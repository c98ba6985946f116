(* Msoc_search: strategy certification against the exhaustive optimum,
   the Bell(m) enumeration guard, anytime budgets, and the fingerprint
   extension that keys cached results by strategy + budget + seed. *)

module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Instances = Msoc_testplan.Instances
module Fingerprint = Msoc_testplan.Fingerprint
module Plan = Msoc_testplan.Plan
module Export = Msoc_testplan.Export
module Synthetic = Msoc_itc02.Synthetic
module Spec = Msoc_analog.Spec
module Sharing = Msoc_analog.Sharing
module Strategy = Msoc_search.Strategy
module Budget = Msoc_search.Budget
module Bnb = Msoc_search.Bnb
module Anneal = Msoc_search.Anneal
module Portfolio = Msoc_search.Portfolio
module Verify = Msoc_check.Verify
module Diagnostic = Msoc_check.Diagnostic

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let close = Msoc_util.Numeric.close

(* A small digital SOC keeps each TAM pack cheap, so the exhaustive
   reference over thousands of partitions stays affordable. *)
let synthetic_problem ~seed ~m ~tam_width =
  let profile =
    {
      Synthetic.n_cores = 3;
      target_area = 400_000;
      max_chains = 8;
      bottleneck = false;
    }
  in
  let soc = Synthetic.generate ~seed ~name:(Printf.sprintf "search%d" seed) profile in
  Problem.make ~soc ~analog_cores:(Instances.scaled_analog ~n:m) ~tam_width
    ~weight_time:0.5 ()

let assert_no_findings ~ctx diags =
  checkb (ctx ^ ": verifies clean") true (diags = [])

(* --- property: bnb cost == exhaustive optimum, strictly fewer evals --- *)

let test_bnb_matches_exhaustive () =
  List.iter
    (fun (seed, m) ->
      let ctx = Printf.sprintf "seed=%d m=%d" seed m in
      let problem = synthetic_problem ~seed ~m ~tam_width:24 in
      let prepared = Evaluate.prepare problem in
      let exhaustive = Strategy.run Strategy.Exhaustive prepared in
      let bnb = Strategy.run Strategy.Bnb prepared in
      checkb (ctx ^ ": bnb cost equals exhaustive optimum") true
        (close bnb.Strategy.best.Evaluate.cost
           exhaustive.Strategy.best.Evaluate.cost);
      checkb (ctx ^ ": bnb proves optimality") true bnb.Strategy.optimal;
      checkb
        (Printf.sprintf "%s: bnb evaluates strictly fewer (%d < %d)" ctx
           bnb.Strategy.stats.Msoc_search.Stats.evaluations
           exhaustive.Strategy.stats.Msoc_search.Stats.evaluations)
        true
        (bnb.Strategy.stats.Msoc_search.Stats.evaluations
        < exhaustive.Strategy.stats.Msoc_search.Stats.evaluations);
      checkb (ctx ^ ": bnb pruned something") true
        (bnb.Strategy.stats.Msoc_search.Stats.nodes_pruned > 0);
      assert_no_findings ~ctx:(ctx ^ " bnb") bnb.Strategy.diagnostics;
      assert_no_findings ~ctx:(ctx ^ " exhaustive") exhaustive.Strategy.diagnostics)
    [ (11, 5); (23, 5); (11, 6); (42, 6); (7, 7) ]

(* --- property: no strategy beats the optimum; all plans verify --- *)

let test_strategies_bounded_by_optimum () =
  let problem = synthetic_problem ~seed:19 ~m:6 ~tam_width:24 in
  let prepared = Evaluate.prepare problem in
  let optimum =
    (Strategy.run Strategy.Exhaustive prepared).Strategy.best.Evaluate.cost
  in
  List.iter
    (fun kind ->
      let ctx = Strategy.name kind in
      let outcome = Strategy.run kind prepared in
      let cost = outcome.Strategy.best.Evaluate.cost in
      checkb
        (Printf.sprintf "%s: cost %.4f >= optimum %.4f" ctx cost optimum)
        true
        (cost >= optimum || close cost optimum);
      assert_no_findings ~ctx outcome.Strategy.diagnostics;
      let plan = Strategy.plan_of_outcome prepared outcome in
      assert_no_findings ~ctx:(ctx ^ " plan") (Verify.plan plan))
    [
      Strategy.Repr { delta = 0.0 };
      Strategy.Bnb;
      Strategy.Anneal { seed = 3 };
      Strategy.Portfolio { seeds = [ 1; 2 ] };
    ]

(* --- anneal determinism --- *)

let test_anneal_deterministic () =
  let problem = synthetic_problem ~seed:31 ~m:7 ~tam_width:24 in
  let run () =
    let prepared = Evaluate.prepare problem in
    let r = Anneal.run ~seed:9 prepared in
    ( r.Anneal.best.Evaluate.cost,
      Sharing.full_name r.Anneal.best.Evaluate.combination,
      r.Anneal.stats.Msoc_search.Stats.moves,
      r.Anneal.stats.Msoc_search.Stats.accepted_moves )
  in
  let c1, n1, m1, a1 = run () in
  let c2, n2, m2, a2 = run () in
  checkb "same cost" true (close c1 c2);
  Alcotest.(check string) "same sharing" n1 n2;
  checki "same proposals" m1 m2;
  checki "same acceptances" a1 a2

(* --- the Bell(m) enumeration guard --- *)

let test_combination_overflow_guard () =
  let problem = synthetic_problem ~seed:5 ~m:12 ~tam_width:24 in
  (match Problem.all_combinations problem with
  | _ -> Alcotest.fail "m=12 enumeration should refuse (Bell(12) > 200k)"
  | exception Problem.Combination_overflow { analog_cores; combinations; limit }
    ->
    checki "core count" 12 analog_cores;
    checki "Bell(12)" 4_213_597 combinations;
    checki "default limit" 200_000 limit;
    let message = Problem.overflow_message ~analog_cores ~combinations ~limit in
    checkb "message suggests bnb" true
      (let needle = "--strategy bnb" in
       let rec contains i =
         if i + String.length needle > String.length message then false
         else String.sub message i (String.length needle) = needle || contains (i + 1)
       in
       contains 0));
  (* Strategy.Exhaustive goes through the same guard. *)
  let prepared = Evaluate.prepare problem in
  (match Strategy.run Strategy.Exhaustive prepared with
  | _ -> Alcotest.fail "exhaustive strategy should refuse m=12"
  | exception Problem.Combination_overflow _ -> ());
  (* An explicit limit overrides the default in both directions. *)
  let small = synthetic_problem ~seed:5 ~m:5 ~tam_width:24 in
  checkb "m=5 passes at limit=Bell(5)" true
    (Problem.all_combinations ~limit:52 small <> []);
  (match Problem.all_combinations ~limit:51 small with
  | _ -> Alcotest.fail "limit=51 should refuse Bell(5)=52"
  | exception Problem.Combination_overflow { combinations; limit; _ } ->
    checki "counts Bell(5)" 52 combinations;
    checki "echoes limit" 51 limit)

(* --- anytime strategies on an instance the guard refuses --- *)

let test_anytime_beyond_enumeration_limit () =
  let problem = synthetic_problem ~seed:3 ~m:14 ~tam_width:24 in
  (match Problem.all_combinations problem with
  | _ -> Alcotest.fail "m=14 enumeration should refuse"
  | exception Problem.Combination_overflow _ -> ());
  let prepared = Evaluate.prepare problem in
  let budget = Budget.make ~max_evals:12 () in
  let anneal = Strategy.run ~budget (Strategy.Anneal { seed = 2 }) prepared in
  checkb "anneal within budget" true
    (anneal.Strategy.stats.Msoc_search.Stats.evaluations <= 12);
  assert_no_findings ~ctx:"anneal m=14" anneal.Strategy.diagnostics;
  assert_no_findings ~ctx:"anneal m=14 plan"
    (Verify.plan (Strategy.plan_of_outcome prepared anneal));
  let bnb = Strategy.run ~budget Strategy.Bnb prepared in
  checkb "budgeted bnb is anytime, not optimal" false bnb.Strategy.optimal;
  checkb "budgeted bnb within budget" true
    (bnb.Strategy.stats.Msoc_search.Stats.evaluations <= 12);
  assert_no_findings ~ctx:"bnb m=14" bnb.Strategy.diagnostics;
  let portfolio =
    Strategy.run ~budget (Strategy.Portfolio { seeds = [ 4; 5 ] }) prepared
  in
  checki "portfolio members" 3 (List.length portfolio.Strategy.members);
  assert_no_findings ~ctx:"portfolio m=14" portfolio.Strategy.diagnostics;
  (* The portfolio returns the cheapest member result. *)
  List.iter
    (fun (m : Portfolio.member_result) ->
      checkb
        (Printf.sprintf "winner <= member %s" m.Portfolio.member)
        true
        (portfolio.Strategy.best.Evaluate.cost <= m.Portfolio.cost
        || close portfolio.Strategy.best.Evaluate.cost m.Portfolio.cost))
    portfolio.Strategy.members

(* --- budgets --- *)

let test_budget_validation_and_floor () =
  (match Budget.make ~max_evals:0 () with
  | _ -> Alcotest.fail "max_evals=0 must be rejected"
  | exception Invalid_argument _ -> ());
  (match Budget.make ~time_limit_s:0.0 () with
  | _ -> Alcotest.fail "time_limit_s=0 must be rejected"
  | exception Invalid_argument _ -> ());
  (* A NaN compares false against every instant, so such a budget
     would never expire. *)
  (match Budget.make ~time_limit_s:Float.nan () with
  | _ -> Alcotest.fail "time_limit_s=nan must be rejected"
  | exception Invalid_argument _ -> ());
  (match Budget.make ~deadline:Float.nan () with
  | _ -> Alcotest.fail "deadline=nan must be rejected"
  | exception Invalid_argument _ -> ());
  let problem = synthetic_problem ~seed:13 ~m:6 ~tam_width:24 in
  let prepared = Evaluate.prepare problem in
  (* One evaluation is always delivered, even when the deadline is
     already in the past. *)
  let expired = Budget.make ~deadline:(Msoc_util.Clock.now () -. 1.0) () in
  let r = Bnb.run ~budget:expired prepared in
  checki "expired deadline still evaluates the fallback" 1
    r.Bnb.stats.Msoc_search.Stats.evaluations;
  checkb "and reports non-optimal" false r.Bnb.optimal;
  let a = Anneal.run ~budget:expired ~seed:1 prepared in
  checkb "anneal fallback under expired deadline" true
    (a.Anneal.stats.Msoc_search.Stats.evaluations >= 1);
  (* An eval cap cuts bnb early with the incumbent. *)
  let capped = Bnb.run ~budget:(Budget.make ~max_evals:2 ()) prepared in
  checki "eval cap respected" 2 capped.Bnb.stats.Msoc_search.Stats.evaluations;
  checkb "capped bnb not optimal" false capped.Bnb.optimal

(* --- portfolio eval cap --- *)

(* Four members (bnb, then three annealers) share a cap of n: each gets
   n / 4, the first n mod 4 one more, and a member with no share does
   not run. On this instance every member can spend its share, so the
   portfolio evaluates exactly n times. *)
let test_portfolio_cap () =
  let problem =
    Instances.with_analog ~tam_width:32 ~analog_cores:(Instances.scaled_analog ~n:8) ()
  in
  let prepared = Evaluate.prepare problem in
  let names = [ "bnb"; "anneal:1"; "anneal:2"; "anneal:3" ] in
  for n = 1 to 10 do
    let ctx = Printf.sprintf "max_evals=%d" n in
    let outcome =
      Strategy.run ~budget:(Budget.make ~max_evals:n ())
        (Strategy.Portfolio { seeds = [ 1; 2; 3 ] })
        prepared
    in
    let members = outcome.Strategy.members in
    Alcotest.(check (list string))
      (ctx ^ ": members that ran")
      (List.filteri (fun i _ -> i < n) names)
      (List.map (fun (m : Portfolio.member_result) -> m.Portfolio.member) members);
    List.iteri
      (fun i (m : Portfolio.member_result) ->
        let share = (n / 4) + if i < n mod 4 then 1 else 0 in
        checkb
          (Printf.sprintf "%s: %s within its share %d" ctx m.Portfolio.member share)
          true
          (m.Portfolio.stats.Msoc_search.Stats.evaluations <= share))
      members;
    checki (ctx ^ ": evaluations") n outcome.Strategy.stats.Msoc_search.Stats.evaluations;
    assert_no_findings ~ctx outcome.Strategy.diagnostics
  done

(* --- incumbent trace --- *)

let test_incumbent_trace_monotone () =
  let problem = synthetic_problem ~seed:29 ~m:6 ~tam_width:24 in
  let prepared = Evaluate.prepare problem in
  let r = Bnb.run prepared in
  let trace = r.Bnb.stats.Msoc_search.Stats.incumbent_trace in
  checkb "trace non-empty" true (trace <> []);
  let rec decreasing = function
    | ({ Msoc_search.Stats.cost = c1; _ } as _p1)
      :: ({ Msoc_search.Stats.cost = c2; _ } as p2) :: rest ->
      c2 < c1 && decreasing (p2 :: rest)
    | _ -> true
  in
  checkb "incumbent strictly improves" true (decreasing trace);
  let last = List.nth trace (List.length trace - 1) in
  checkb "trace ends at the returned best" true
    (close last.Msoc_search.Stats.cost r.Bnb.best.Evaluate.cost)

(* --- fingerprints: stability and discrimination --- *)

let test_fingerprint_strategy_keys () =
  let problem = synthetic_problem ~seed:17 ~m:5 ~tam_width:24 in
  let search = Plan.Heuristic { delta = 0.0 } in
  let key ?extra () = Fingerprint.request_hex ?extra ~op:"optimize" ~search problem in
  (* Stability: equal requests hash equally, with and without extra. *)
  Alcotest.(check string) "legacy key stable" (key ()) (key ());
  let bnb = Strategy.request_json Strategy.Bnb in
  Alcotest.(check string) "extra key stable" (key ~extra:bnb ())
    (key ~extra:bnb ());
  (* Discrimination: strategy, seed and budget all split the key. *)
  let keys =
    [
      key ();
      key ~extra:bnb ();
      key ~extra:(Strategy.request_json (Strategy.Anneal { seed = 1 })) ();
      key ~extra:(Strategy.request_json (Strategy.Anneal { seed = 2 })) ();
      key ~extra:(Strategy.request_json ~max_evals:10 Strategy.Bnb) ();
      key ~extra:(Strategy.request_json ~max_evals:20 Strategy.Bnb) ();
      key ~extra:(Strategy.request_json ~time_limit_ms:50.0 Strategy.Bnb) ();
      key
        ~extra:
          (Strategy.request_json (Strategy.Portfolio { seeds = [ 1; 2 ] }))
        ();
      key
        ~extra:
          (Strategy.request_json (Strategy.Portfolio { seeds = [ 2; 1 ] }))
        ();
    ]
  in
  checki "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* --- strategy names round-trip --- *)

let test_strategy_names () =
  List.iter
    (fun n ->
      match Strategy.of_name n with
      | Some kind -> Alcotest.(check string) n n (Strategy.name kind)
      | None -> Alcotest.fail ("of_name rejects listed name " ^ n))
    Strategy.names;
  checkb "unknown rejected" true (Strategy.of_name "simplex" = None);
  checkb "case-insensitive" true (Strategy.of_name "BnB" = Some Strategy.Bnb)

let suites =
  [
    ( "search",
      [
        Alcotest.test_case "bnb == exhaustive optimum, fewer evals" `Slow
          test_bnb_matches_exhaustive;
        Alcotest.test_case "no strategy beats the optimum" `Slow
          test_strategies_bounded_by_optimum;
        Alcotest.test_case "anneal is seed-deterministic" `Quick
          test_anneal_deterministic;
        Alcotest.test_case "Bell(m) guard refuses enumeration" `Quick
          test_combination_overflow_guard;
        Alcotest.test_case "anytime strategies past the limit" `Quick
          test_anytime_beyond_enumeration_limit;
        Alcotest.test_case "budget validation and floor" `Quick
          test_budget_validation_and_floor;
        Alcotest.test_case "portfolio deals out the eval cap" `Quick
          test_portfolio_cap;
        Alcotest.test_case "incumbent trace monotone" `Quick
          test_incumbent_trace_monotone;
        Alcotest.test_case "fingerprint strategy keys" `Quick
          test_fingerprint_strategy_keys;
        Alcotest.test_case "strategy name round-trip" `Quick
          test_strategy_names;
      ] );
  ]
