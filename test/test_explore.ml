(* Tests for the exploration helpers and the annealing packer. *)

module Types = Msoc_itc02.Types
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Catalog = Msoc_analog.Catalog
module Problem = Msoc_testplan.Problem
module Plan = Msoc_testplan.Plan
module Explore = Msoc_testplan.Explore

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let problem_of_width tam_width =
  Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ())
    ~analog_cores:[ Catalog.core_c; Catalog.core_e ] ~tam_width ~weight_time:0.5 ()

(* --- Explore --- *)

let test_weight_sweep () =
  let problem_of_weight weight_time =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ())
      ~analog_cores:[ Catalog.core_c; Catalog.core_d; Catalog.core_e ]
      ~tam_width:24 ~weight_time ()
  in
  let sweep = Explore.weight_sweep ~weights:[ 0.0; 0.5; 1.0 ] problem_of_weight in
  checki "three plans" 3 (List.length sweep);
  let c_a w = (List.assoc w sweep).Plan.best.Msoc_testplan.Evaluate.c_a in
  checkb "area weight favors lower C_A" true (c_a 0.0 <= c_a 1.0 +. 1e-9)

(* Regression: a width below a core's TAM need must read as "this
   width misses the constraints", never crash the sweep — whether the
   constructor rejects it (Invalid_argument, e.g. core D's 10-wire
   test below) or the feasibility check is deferred to the packer
   (Packer.Infeasible). *)
let test_infeasible_width_is_none_not_crash () =
  (* model a problem source that defers width checking to the packer *)
  let problem_of_width tam_width =
    if tam_width < 10 then
      raise
        (Msoc_tam.Packer.Infeasible
           (Printf.sprintf "job D:gain needs width 10 > TAM width %d" tam_width))
    else problem_of_width tam_width
  in
  let sweep = Explore.width_sweep ~widths:[ 3; 16 ] problem_of_width in
  checki "packer-infeasible width skipped" 1 (List.length sweep);
  checkb "the feasible width survives" true (List.mem_assoc 16 sweep)

let test_width_sweep_skips_infeasible () =
  (* width 3 < core D's 10-wire test -> Problem.make raises, skipped *)
  let problem_of_width tam_width =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ())
      ~analog_cores:[ Catalog.core_d ] ~tam_width ~weight_time:0.5 ()
  in
  let sweep = Explore.width_sweep ~widths:[ 3; 16 ] problem_of_width in
  checki "only the feasible width" 1 (List.length sweep);
  checkb "it is W=16" true (List.mem_assoc 16 sweep)

(* --- anneal --- *)

let test_anneal_never_worse () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let jobs = List.map (Job.of_core ~max_width:12) soc.Types.cores in
  let baseline = Schedule.makespan (Packer.pack_optimized ~width:12 jobs) in
  let annealed = Packer.anneal ~iterations:60 ~width:12 jobs in
  checkb "<= pack_optimized" true (Schedule.makespan annealed <= baseline);
  checki "valid" 0 (List.length (Schedule.check annealed))

let test_anneal_deterministic () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let jobs = List.map (Job.of_core ~max_width:10) soc.Types.cores in
  let a = Packer.anneal ~seed:7 ~iterations:40 ~width:10 jobs in
  let b = Packer.anneal ~seed:7 ~iterations:40 ~width:10 jobs in
  checki "same makespan for same seed" (Schedule.makespan a) (Schedule.makespan b)

let test_anneal_respects_constraints () =
  let jobs =
    [
      Job.analog ~label:"a" ~width:2 ~time:500 ~group:0;
      Job.analog ~label:"b" ~width:2 ~time:400 ~group:0;
      Job.with_power (Fixtures.digital_job ~label:"c" (Msoc_wrapper.Pareto.fixed ~width:3 ~time:600)) 5;
      Job.with_power (Fixtures.digital_job ~label:"d" (Msoc_wrapper.Pareto.fixed ~width:3 ~time:600)) 5;
    ]
  in
  let s = Packer.anneal ~power_budget:8 ~iterations:50 ~width:8 jobs in
  checki "valid with power + groups" 0 (List.length (Schedule.check s));
  checkb "power respected" true (Schedule.peak_power s <= 8)

let test_anneal_empty () =
  let s = Packer.anneal ~width:4 [] in
  checki "empty schedule" 0 (List.length s.Schedule.placements)

let suites =
  [
    ( "explore",
      [
        Alcotest.test_case "weight sweep" `Quick test_weight_sweep;
        Alcotest.test_case "infeasible width is None, not a crash" `Slow
          test_infeasible_width_is_none_not_crash;
        Alcotest.test_case "width sweep skips infeasible" `Quick test_width_sweep_skips_infeasible;
      ] );
    ( "anneal",
      [
        Alcotest.test_case "never worse" `Quick test_anneal_never_worse;
        Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
        Alcotest.test_case "respects constraints" `Quick test_anneal_respects_constraints;
        Alcotest.test_case "empty" `Quick test_anneal_empty;
      ] );
  ]
