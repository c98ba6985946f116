(* Tests for the evaluation engine (PR 1): the Domain worker pool, the
   per-prepared schedule cache, serial/parallel determinism, the
   weight-sweep pack bound, and the hardened numeric/job constructors
   that feed it. *)

module Pool = Msoc_util.Pool
module Numeric = Msoc_util.Numeric
module Job = Msoc_tam.Job
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Exhaustive = Msoc_testplan.Exhaustive
module Plan = Msoc_testplan.Plan
module Explore = Msoc_testplan.Explore
module Instances = Msoc_testplan.Instances

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- pool --- *)

let test_pool_map_order () =
  let xs = List.init 40 Fun.id in
  let squares = Pool.with_pool ~jobs:3 (fun pool -> Pool.map pool (fun x -> x * x) xs) in
  Alcotest.(check (list int)) "in input order" (List.map (fun x -> x * x) xs) squares

let test_pool_serial_when_one_job () =
  let r = Pool.with_pool ~jobs:1 (fun pool -> Pool.map pool succ [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "jobs=1 works" [ 2; 3; 4 ] r

let test_pool_empty_list () =
  let r = Pool.with_pool ~jobs:2 (fun pool -> Pool.map pool succ []) in
  checki "empty in, empty out" 0 (List.length r)

let test_pool_propagates_exception () =
  match
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map pool
          (fun x -> if x = 2 then failwith "boom" else x)
          [ 1; 2; 3; 4 ])
  with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "first failure" "boom" msg

let test_pool_rejects_use_after_shutdown () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  match Pool.map pool succ [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown accepted"
  | exception Invalid_argument _ -> ()

let test_pool_validation () =
  match Pool.create ~jobs:0 with
  | _ -> Alcotest.fail "jobs=0 accepted"
  | exception Invalid_argument _ -> ()

(* --- schedule cache --- *)

let prepared_d281 ?(weight_time = 0.5) () =
  Evaluate.prepare (Fixtures.d281m ~weight_time ~tam_width:16 ())

let test_cache_seeded_with_reference () =
  let prep = prepared_d281 () in
  let stats = Evaluate.cache_stats prep in
  checki "prepare packs exactly once" 1 stats.Evaluate.misses;
  checki "one entry (full sharing)" 1 stats.Evaluate.entries;
  (* full sharing is already cached, so evaluating it is a pure hit *)
  let full = Sharing.full_sharing (Evaluate.problem prep).Problem.analog_cores in
  ignore (Evaluate.evaluate prep full);
  let stats = Evaluate.cache_stats prep in
  checki "no repack of the reference" 1 stats.Evaluate.misses;
  checki "served from cache" 1 stats.Evaluate.hits

let test_cache_one_pack_per_combination () =
  let prep = prepared_d281 () in
  let combos = Problem.combinations (Evaluate.problem prep) in
  let r1 = Exhaustive.run prep in
  let misses1 = (Evaluate.cache_stats prep).Evaluate.misses in
  checkb "at most one pack per distinct combination (+reference)" true
    (misses1 <= List.length combos + 1);
  (* a second search over the same prepared packs nothing new *)
  let r2 = Exhaustive.run prep in
  let stats2 = Evaluate.cache_stats prep in
  checki "no new packs" misses1 stats2.Evaluate.misses;
  checkb "identical best" true
    (r1.Exhaustive.best.Evaluate.cost = r2.Exhaustive.best.Evaluate.cost
    && Sharing.equal r1.Exhaustive.best.Evaluate.combination
         r2.Exhaustive.best.Evaluate.combination)

let test_reweight_shares_cache () =
  let prep = prepared_d281 ~weight_time:0.2 () in
  ignore (Exhaustive.run prep);
  let misses = (Evaluate.cache_stats prep).Evaluate.misses in
  let heavy = Fixtures.d281m ~weight_time:0.8 ~tam_width:16 () in
  let reweighted = Evaluate.reweight prep heavy in
  let r = Exhaustive.run reweighted in
  checki "no pack at the new weight point"
    misses
    (Evaluate.cache_stats reweighted).Evaluate.misses;
  (* same search, fresh preparation: costs must agree *)
  let fresh = Exhaustive.run (Evaluate.prepare heavy) in
  checkb "reweighted best equals fresh best" true
    (r.Exhaustive.best.Evaluate.cost = fresh.Exhaustive.best.Evaluate.cost
    && Sharing.equal r.Exhaustive.best.Evaluate.combination
         fresh.Exhaustive.best.Evaluate.combination)

let test_reweight_rejects_structural_change () =
  let prep = prepared_d281 () in
  let other = Fixtures.d281m ~tam_width:24 () in
  match Evaluate.reweight prep other with
  | _ -> Alcotest.fail "different TAM width accepted"
  | exception Invalid_argument _ -> ()

(* --- serial/parallel determinism (the ISSUE's property test) --- *)

let check_same_result ~ctx (a : Exhaustive.result) (b : Exhaustive.result) =
  checkb (ctx ^ ": same best cost") true
    (a.Exhaustive.best.Evaluate.cost = b.Exhaustive.best.Evaluate.cost);
  checkb (ctx ^ ": same best combination") true
    (Sharing.equal a.Exhaustive.best.Evaluate.combination
       b.Exhaustive.best.Evaluate.combination);
  checki (ctx ^ ": same best makespan") a.Exhaustive.best.Evaluate.makespan
    b.Exhaustive.best.Evaluate.makespan;
  checki (ctx ^ ": same evaluation count") a.Exhaustive.evaluations
    b.Exhaustive.evaluations;
  List.iter2
    (fun (x : Evaluate.evaluation) (y : Evaluate.evaluation) ->
      checkb (ctx ^ ": pairwise identical evaluations") true
        (x.Evaluate.cost = y.Evaluate.cost
        && x.Evaluate.makespan = y.Evaluate.makespan
        && x.Evaluate.c_t = y.Evaluate.c_t
        && x.Evaluate.c_a = y.Evaluate.c_a
        && Sharing.equal x.Evaluate.combination y.Evaluate.combination))
    a.Exhaustive.all b.Exhaustive.all

let test_parallel_equals_serial () =
  (* the paper's 5-core catalog at several widths; cold cache on both
     sides so the parallel path actually packs on the workers *)
  List.iter
    (fun width ->
      let problem = Instances.p93791m ~tam_width:width () in
      let serial = Exhaustive.run (Evaluate.prepare problem) in
      let parallel =
        Pool.with_pool ~jobs:4 (fun pool ->
            Exhaustive.run ~pool (Evaluate.prepare problem))
      in
      check_same_result ~ctx:(Printf.sprintf "W=%d" width) serial parallel)
    [ 16; 24; 32 ]

let test_parallel_heuristic_equals_serial () =
  let problem = Fixtures.d281m ~tam_width:16 () in
  let serial = Plan.run ~search:(Plan.Heuristic { delta = 0.0 }) problem in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool ->
        Plan.run ~search:(Plan.Heuristic { delta = 0.0 }) ~pool problem)
  in
  checkb "same best cost" true
    (serial.Plan.best.Evaluate.cost = parallel.Plan.best.Evaluate.cost);
  checkb "same combination" true
    (Sharing.equal serial.Plan.best.Evaluate.combination
       parallel.Plan.best.Evaluate.combination);
  checki "same evaluations" serial.Plan.evaluations parallel.Plan.evaluations

(* --- weight sweep pack bound --- *)

let test_weight_sweep_packs_once_per_combination () =
  let weights = [ 0.1; 0.25; 0.5; 0.75; 0.9 ] in
  let problem_of_weight weight_time =
    Fixtures.d281m ~weight_time ~tam_width:16 ()
  in
  let combos = List.length (Problem.combinations (problem_of_weight 0.5)) in
  let packs0 = Evaluate.total_packs () in
  let sweep =
    Explore.weight_sweep ~search:Plan.Exhaustive_search ~weights problem_of_weight
  in
  let packs = Evaluate.total_packs () - packs0 in
  checki "every weight planned" (List.length weights) (List.length sweep);
  checkb
    (Printf.sprintf "%d packs for %d combinations x %d weights" packs combos
       (List.length weights))
    true
    (packs <= combos + 1);
  (* sharing the cache must not change any answer: each sweep point
     agrees with a cold planner run at that weight *)
  List.iter
    (fun (w, plan) ->
      let fresh = Plan.run ~search:Plan.Exhaustive_search (problem_of_weight w) in
      checkb
        (Printf.sprintf "w=%.2f same cost" w)
        true
        (plan.Plan.best.Evaluate.cost = fresh.Plan.best.Evaluate.cost))
    sweep

(* --- hardened constructors --- *)

let test_numeric_percent_of_or () =
  checkb "zero whole yields default" true
    (Numeric.percent_of_or ~default:0.0 50.0 0.0 = 0.0);
  checkb "nan whole yields default" true
    (Numeric.percent_of_or ~default:42.0 50.0 Float.nan = 42.0);
  checkb "normal case" true (Numeric.percent_of_or ~default:0.0 50.0 200.0 = 25.0)

let test_job_rejects_nonpositive_points () =
  (match Job.analog ~label:"z" ~width:0 ~time:100 ~group:0 with
  | _ -> Alcotest.fail "zero width accepted"
  | exception Invalid_argument _ -> ());
  (match Job.analog ~label:"z" ~width:2 ~time:0 ~group:0 with
  | _ -> Alcotest.fail "zero time accepted"
  | exception Invalid_argument _ -> ());
  match Job.analog ~label:"z" ~width:2 ~time:(-5) ~group:0 with
  | _ -> Alcotest.fail "negative time accepted"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "jobs=1 is serial" `Quick test_pool_serial_when_one_job;
        Alcotest.test_case "empty list" `Quick test_pool_empty_list;
        Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception;
        Alcotest.test_case "use after shutdown" `Quick test_pool_rejects_use_after_shutdown;
        Alcotest.test_case "validation" `Quick test_pool_validation;
      ] );
    ( "engine-cache",
      [
        Alcotest.test_case "seeded with reference" `Quick test_cache_seeded_with_reference;
        Alcotest.test_case "one pack per combination" `Slow test_cache_one_pack_per_combination;
        Alcotest.test_case "reweight shares cache" `Slow test_reweight_shares_cache;
        Alcotest.test_case "reweight rejects structure change" `Quick
          test_reweight_rejects_structural_change;
      ] );
    ( "engine-parallel",
      [
        Alcotest.test_case "exhaustive parallel = serial at several widths" `Slow
          test_parallel_equals_serial;
        Alcotest.test_case "heuristic parallel = serial" `Slow
          test_parallel_heuristic_equals_serial;
      ] );
    ( "engine-sweep",
      [
        Alcotest.test_case "weight sweep packs once per combination" `Slow
          test_weight_sweep_packs_once_per_combination;
      ] );
    ( "hardening-engine",
      [
        Alcotest.test_case "percent_of_or" `Quick test_numeric_percent_of_or;
        Alcotest.test_case "job rejects non-positive points" `Quick
          test_job_rejects_nonpositive_points;
      ] );
  ]
