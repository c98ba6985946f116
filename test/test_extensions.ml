(* Tests for the extension subsystems: the fixed-partition TAM
   baseline, converter BIST, and self-test-aware planning. *)

module Types = Msoc_itc02.Types
module Pareto = Msoc_wrapper.Pareto
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Fixed = Msoc_tam.Fixed_partition
module Bist = Msoc_mixedsig.Bist
module Wrapper = Msoc_mixedsig.Wrapper
module Catalog = Msoc_analog.Catalog
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let digital_core id patterns chains =
  Types.core ~id ~name:(Printf.sprintf "d%d" id) ~inputs:20 ~outputs:15 ~bidirs:0
    ~scan_chains:chains ~patterns

let sample_jobs () =
  [
    Job.of_core (digital_core 1 100 [ 50; 50 ]) ~max_width:16;
    Job.of_core (digital_core 2 200 [ 80 ]) ~max_width:16;
    Job.of_core (digital_core 3 150 [ 120; 40 ]) ~max_width:16;
    Job.analog ~label:"X:t1" ~width:2 ~time:5_000 ~group:0;
    Job.analog ~label:"X:t2" ~width:1 ~time:3_000 ~group:0;
    Job.analog ~label:"Y:t1" ~width:3 ~time:4_000 ~group:1;
  ]

(* --- Fixed_partition --- *)

let test_fixed_design_feasible () =
  let t = Fixed.optimize ~max_buses:3 ~width:16 (sample_jobs ()) in
  let total = Array.fold_left ( + ) 0 t.Fixed.bus_widths in
  checkb "widths fit" true (total <= 16);
  Array.iter (fun w -> checkb "positive bus" true (w > 0)) t.Fixed.bus_widths;
  let assigned =
    Array.to_list t.Fixed.bus_jobs |> List.concat |> List.length
  in
  checki "all jobs assigned" 6 assigned

let test_fixed_exclusion_groups_stay_together () =
  let t = Fixed.optimize ~max_buses:4 ~width:16 (sample_jobs ()) in
  let bus_of label =
    let found = ref (-1) in
    Array.iteri
      (fun b jobs ->
        if List.exists (fun j -> j.Job.label = label) jobs then found := b)
      t.Fixed.bus_jobs;
    !found
  in
  checki "group 0 on one bus" (bus_of "X:t1") (bus_of "X:t2")

let test_fixed_never_beats_flexible () =
  let jobs = sample_jobs () in
  let flexible = Schedule.makespan (Packer.pack ~width:16 jobs) in
  let fixed = Fixed.makespan (Fixed.optimize ~width:16 jobs) in
  checkb
    (Printf.sprintf "fixed %d >= flexible %d" fixed flexible)
    true (fixed >= flexible)

let test_fixed_single_bus_is_serial () =
  let jobs = sample_jobs () in
  let t = Fixed.optimize ~max_buses:1 ~width:16 jobs in
  let serial =
    List.fold_left
      (fun acc j -> acc + Pareto.time_at j.Job.staircase ~width:16)
      0 jobs
  in
  checki "one bus = serial sum" serial (Fixed.makespan t)

let test_fixed_optimize_explores_buses () =
  let jobs = sample_jobs () in
  let best = Fixed.optimize ~max_buses:4 ~width:16 jobs in
  (* more bus counts to try never make the best design worse *)
  List.iter
    (fun max_buses ->
      match Fixed.optimize ~max_buses ~width:16 jobs with
      | t -> checkb "optimize at least as good" true (Fixed.makespan best <= Fixed.makespan t)
      | exception Fixed.Infeasible _ -> ())
    [ 1; 2; 3 ]

let test_fixed_infeasible_wide_job () =
  let jobs = [ Job.analog ~label:"wide" ~width:20 ~time:100 ~group:0 ] in
  match Fixed.optimize ~max_buses:2 ~width:16 jobs with
  | exception Fixed.Infeasible _ -> ()
  | _ -> Alcotest.fail "too-wide job accepted"

let test_fixed_validation () =
  (* no bus count to try: nothing is feasible *)
  match Fixed.optimize ~max_buses:0 ~width:8 [] with
  | exception Fixed.Infeasible _ -> ()
  | _ -> Alcotest.fail "0 buses accepted"

(* --- Bist --- *)

let test_bist_sample_counts () =
  checki "256 codes x 1, one word per sample" 256
    (Bist.self_test_cycles ~bits:8 ~tam_width:8 ~hits_per_code:1 ());
  checki "cycles scale with ser/par" (1024 * 2)
    (Bist.self_test_cycles ~bits:8 ~tam_width:4 ());
  checki "wide TAM, 1 word per sample" 1024
    (Bist.self_test_cycles ~bits:8 ~tam_width:8 ())

let test_bist_loopback_ideal () =
  let wrapper = Wrapper.create ~bits:8 () in
  let r = Bist.loopback_linearity wrapper in
  checki "no code error" 0 r.Bist.max_code_error;
  checkb "monotonic" true r.Bist.monotonic;
  checkb "passes" true (Bist.passes r)

let test_bist_loopback_catches_bad_converter () =
  let dac =
    Msoc_mixedsig.Dac.create ~mismatch_sigma:0.2 ~seed:13 Msoc_mixedsig.Dac.Modular
      ~bits:8
  in
  let wrapper = Wrapper.create ~dac ~bits:8 () in
  let r = Bist.loopback_linearity wrapper in
  checkb "gross mismatch detected" true
    ((not (Bist.passes r)) || r.Bist.max_code_error > 1)

let test_bist_validation () =
  (match Bist.self_test_cycles ~bits:1 ~tam_width:1 ~hits_per_code:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "1 bit accepted");
  (match Bist.self_test_cycles ~bits:8 ~tam_width:1 ~hits_per_code:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 hits accepted");
  match Bist.self_test_cycles ~bits:8 ~tam_width:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 width accepted"

(* --- self-test-aware planning --- *)

let problem_with_self_test ?(hits = 4) () =
  Problem.make
    ~self_test:{ Problem.hits_per_code = hits }
    ~soc:(Msoc_itc02.Synthetic.d281s ())
    ~analog_cores:[ Catalog.core_c; Catalog.core_d; Catalog.core_e ]
    ~tam_width:24 ~weight_time:0.5 ()

let test_selftest_jobs_present_and_gating () =
  let prepared = Evaluate.prepare (problem_with_self_test ()) in
  let problem = Evaluate.problem prepared in
  let combo =
    Msoc_analog.Sharing.full_sharing problem.Problem.analog_cores
  in
  let jobs = Evaluate.jobs_for prepared combo in
  let self_tests = List.filter (fun j -> j.Job.predecessors = [] && j.Job.exclusion <> None) jobs in
  checki "one self-test for the single wrapper" 1 (List.length self_tests);
  let gated =
    List.filter (fun j -> j.Job.predecessors <> []) jobs
  in
  checki "every core test gated" 8 (List.length gated);
  (* D requires 10 bits (via C) ... the merged wrapper is 10-bit, 10 wires *)
  let st = List.hd self_tests in
  checki "self-test width = wrapper width" 10 (Job.min_width st)

let test_selftest_schedule_valid_and_longer () =
  let base =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ())
      ~analog_cores:[ Catalog.core_c; Catalog.core_d; Catalog.core_e ]
      ~tam_width:24 ~weight_time:0.5 ()
  in
  let with_st = problem_with_self_test ~hits:16 () in
  let plan_base = Plan.run ~search:Plan.Exhaustive_search base in
  let plan_st = Plan.run ~search:Plan.Exhaustive_search with_st in
  checki "valid schedule with self-tests" 0
    (List.length (Schedule.check plan_st.Plan.best.Evaluate.schedule));
  (* this instance is analog-bound, so the serial self-test time shows *)
  checkb "self-test lengthens the analog-bound plan" true
    (Plan.makespan plan_st >= Plan.makespan plan_base)

let test_selftest_validation () =
  match problem_with_self_test ~hits:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hits_per_code 0 accepted"

let suites =
  [
    ( "fixed_partition",
      [
        Alcotest.test_case "design feasible" `Quick test_fixed_design_feasible;
        Alcotest.test_case "groups stay together" `Quick test_fixed_exclusion_groups_stay_together;
        Alcotest.test_case "never beats flexible" `Quick test_fixed_never_beats_flexible;
        Alcotest.test_case "single bus serial" `Quick test_fixed_single_bus_is_serial;
        Alcotest.test_case "optimize explores" `Quick test_fixed_optimize_explores_buses;
        Alcotest.test_case "infeasible wide job" `Quick test_fixed_infeasible_wide_job;
        Alcotest.test_case "validation" `Quick test_fixed_validation;
      ] );
    ( "bist",
      [
        Alcotest.test_case "sample counts" `Quick test_bist_sample_counts;
        Alcotest.test_case "ideal loopback" `Quick test_bist_loopback_ideal;
        Alcotest.test_case "catches bad converter" `Quick test_bist_loopback_catches_bad_converter;
        Alcotest.test_case "validation" `Quick test_bist_validation;
      ] );
    ( "selftest_planning",
      [
        Alcotest.test_case "jobs present and gating" `Quick test_selftest_jobs_present_and_gating;
        Alcotest.test_case "schedule valid and longer" `Quick test_selftest_schedule_valid_and_longer;
        Alcotest.test_case "validation" `Quick test_selftest_validation;
      ] );
  ]
