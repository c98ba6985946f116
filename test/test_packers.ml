(* Tests for the pluggable packer layer: the registry (lookup,
   certification), the diagonal and constrained heuristics, the
   per-variant cache keying, and the cross-variant invariants the
   packer-matrix bench also gates on — every variant Msoc_check-clean,
   makespan >= lower bound, and best_fit bit-identical to
   Packer.pack. *)

module Types = Msoc_itc02.Types
module Synthetic = Msoc_itc02.Synthetic
module Pareto = Msoc_wrapper.Pareto
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Diagonal = Msoc_tam.Packer_diagonal
module Constrained = Msoc_tam.Packer_constrained
module Registry = Msoc_tam.Packer_registry
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Fingerprint = Msoc_testplan.Fingerprint
module Export = Msoc_testplan.Export
module Instances = Msoc_testplan.Instances
module Sharing = Msoc_analog.Sharing
module Schedule_check = Msoc_check.Schedule_check

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- registry --- *)

let test_registry_names () =
  checkb "registration order" true
    (Registry.names = [ "best_fit"; "diagonal"; "constrained" ]);
  checks "default is best_fit" "best_fit" (Registry.name Registry.default)

let test_registry_find () =
  List.iter
    (fun spelling ->
      match Registry.find spelling with
      | Some p -> checks ("find " ^ spelling) "diagonal" (Registry.name p)
      | None -> Alcotest.failf "find %S returned None" spelling)
    [ "diagonal"; "Diagonal"; " DIAGONAL " ];
  checkb "unknown rejected" true (Registry.find "nope" = None);
  checkb "empty rejected" true (Registry.find "" = None)

(* --- heuristic keys --- *)

let labels order = List.map (fun j -> j.Job.label) order

let test_diagonal_key () =
  (* the first order ranks by group diagonal, then diagonal, then
     time: a 6x8 job alone (10) ties a group of a 3x4 and a 4x3 job
     (5 + 5) and wins on its own diagonal; a 7x7 one (9.9) comes last *)
  let jobs =
    [
      Job.analog ~label:"c" ~width:7 ~time:7 ~group:2;
      Job.analog ~label:"a" ~width:3 ~time:4 ~group:0;
      Job.analog ~label:"b" ~width:4 ~time:3 ~group:0;
      Job.analog ~label:"s" ~width:6 ~time:8 ~group:1;
    ]
  in
  match Diagonal.orders jobs with
  | first :: _ ->
    Alcotest.(check (list string)) "3-4-5 triangle" [ "s"; "a"; "b"; "c" ] (labels first)
  | [] -> Alcotest.fail "no order"

let test_constraint_degree () =
  let fixed l = Fixtures.digital_job ~label:l (Pareto.fixed ~width:1 ~time:10) in
  let jobs =
    [
      Job.analog ~label:"a" ~width:1 ~time:10 ~group:0;
      Job.analog ~label:"b" ~width:1 ~time:10 ~group:0;
      Job.with_predecessors (fixed "c") [ "a" ];
      Job.with_conflicts (fixed "d") [ "a" ];
      fixed "e";
    ]
  in
  (* degrees: a 3 (group peer + pred + conflict), b, c and d 1, e 0;
     the first order ranks by degree first *)
  match Constrained.orders jobs with
  | first :: _ ->
    checks "most constrained first" "a" (List.hd (labels first));
    checks "unconstrained last" "e" (List.nth (labels first) 4)
  | [] -> Alcotest.fail "no order"

(* --- certification: a lying variant cannot return its schedule --- *)

let test_certify_rejects_invalid () =
  let module Lying = struct
    let name = "lying"
    let orders jobs = [ jobs ]

    (* packs a valid strip, then reports half the jobs *)
    let pack ?power_budget ~width jobs =
      let s = Packer.pack ?power_budget ~width jobs in
      {
        s with
        Schedule.placements =
          List.filteri (fun i _ -> i mod 2 = 0) s.Schedule.placements;
      }

    let lower_bound = Packer.lower_bound
  end in
  let module Forging = struct
    let name = "forging"
    let orders jobs = [ jobs ]

    (* packs a valid strip, then halves every test and rewrites its
       job's staircase to the halved point *)
    let pack ?power_budget ~width jobs =
      let s = Packer.pack ?power_budget ~width jobs in
      let forge (p : Schedule.placement) =
        let time = p.Schedule.time / 2 in
        let staircase = Pareto.fixed ~width:p.Schedule.width ~time in
        { p with Schedule.time; job = { p.Schedule.job with Job.staircase } }
      in
      { s with Schedule.placements = List.map forge s.Schedule.placements }

    let lower_bound = Packer.lower_bound
  end in
  let jobs =
    [
      Job.analog ~label:"a" ~width:1 ~time:10 ~group:0;
      Job.analog ~label:"b" ~width:1 ~time:20 ~group:0;
    ]
  in
  (match Registry.pack (module Lying) ~width:4 jobs with
  | exception Packer.Infeasible _ -> ()
  | _ -> Alcotest.fail "certification accepted a job-dropping packer");
  match Registry.pack (module Forging) ~width:4 jobs with
  | exception Packer.Infeasible _ -> ()
  | _ -> Alcotest.fail "certification accepted a forged staircase"

(* --- per-variant cache keys --- *)

let packer_extra name = Export.Object [ ("packer", Export.String name) ]

let test_fingerprint_distinct_per_variant () =
  let problem = Fixtures.d281m ~tam_width:16 () in
  let search = Msoc_testplan.Plan.Exhaustive_search in
  let base = Fingerprint.request_hex ~op:"plan" ~search problem in
  let keys =
    List.map
      (fun p ->
        Fingerprint.request_hex
          ~extra:(packer_extra (Registry.name p))
          ~op:"plan" ~search problem)
      Registry.all
  in
  let distinct = List.sort_uniq compare (base :: keys) in
  (* the legacy key and every explicit variant key are pairwise
     distinct: a diagonal result can never be served from a best_fit
     cache entry (or vice versa) *)
  checki "all keys distinct" (1 + List.length Registry.all)
    (List.length distinct)

(* --- cross-variant invariants on seeded synthetic instances --- *)

let synthetic_jobs ~seed ~tam_width =
  let profile =
    {
      Synthetic.n_cores = 4 + (seed mod 4);
      target_area = 600_000;
      max_chains = 10;
      bottleneck = seed mod 2 = 0;
    }
  in
  let soc = Synthetic.generate ~seed ~name:(Printf.sprintf "pk%d" seed) profile in
  let analog = Instances.scaled_analog ~n:(5 + (seed mod 5)) in
  let problem =
    Problem.make ~soc ~analog_cores:analog ~tam_width ~weight_time:0.5 ()
  in
  Evaluate.jobs_for_problem problem (Sharing.no_sharing analog)

let qcheck_tests =
  let open QCheck in
  let instance_arb =
    make
      ~print:(fun (seed, w) -> Printf.sprintf "seed=%d W=%d" seed w)
      (* widths start above the widest catalog analog core (10 wires)
         so Problem.make never rejects the instance *)
      Gen.(pair (int_range 1 500) (int_range 12 48))
  in
  [
    Test.make ~name:"every variant verifies clean and respects the bound"
      ~count:25 instance_arb (fun (seed, width) ->
        let jobs = synthetic_jobs ~seed ~tam_width:width in
        List.for_all
          (fun packer ->
            let s = Registry.pack packer ~width jobs in
            Schedule_check.run ~expected:jobs s = []
            && Schedule.makespan s
               >= Registry.lower_bound packer ~width jobs)
          Registry.all);
    Test.make ~name:"best_fit variant is bit-identical to Packer.pack"
      ~count:25 instance_arb (fun (seed, width) ->
        let jobs = synthetic_jobs ~seed ~tam_width:width in
        Registry.pack Registry.default ~width jobs = Packer.pack ~width jobs);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "packers.registry",
      [
        Alcotest.test_case "names and default" `Quick test_registry_names;
        Alcotest.test_case "find" `Quick test_registry_find;
        Alcotest.test_case "certification rejects invalid" `Quick
          test_certify_rejects_invalid;
        Alcotest.test_case "cache keys distinct per variant" `Quick
          test_fingerprint_distinct_per_variant;
      ] );
    ( "packers.heuristics",
      [
        Alcotest.test_case "diagonal key" `Quick test_diagonal_key;
        Alcotest.test_case "constraint degree" `Quick test_constraint_degree;
      ] );
    ("packers.properties", qcheck_tests);
  ]
