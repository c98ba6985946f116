(* Cross-library integration tests on the paper's experimental setup:
   p93791m end-to-end, the Fig. 5 wrapped-core measurement chain, and
   consistency between the analytic bounds and the scheduler. *)

module Types = Msoc_itc02.Types
module Job = Msoc_tam.Job
module Packer = Msoc_tam.Packer
module Schedule = Msoc_tam.Schedule
module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Bounds = Msoc_analog.Bounds
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan
module Instances = Msoc_testplan.Instances

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- p93791m planning --- *)

let test_p93791m_plan_valid_and_fast_enough () =
  let problem = Instances.p93791m ~tam_width:32 () in
  let plan = Plan.run problem in
  checki "valid schedule" 0
    (List.length (Schedule.check plan.Plan.best.Evaluate.schedule));
  (* calibrated magnitude: ~1M cycles at W=32 (DESIGN.md §3) *)
  checkb "makespan near 1M cycles" true
    (Plan.makespan plan > 800_000 && Plan.makespan plan < 1_300_000)

let test_p93791m_makespan_never_below_analog_bound () =
  let problem = Instances.p93791m ~tam_width:64 () in
  let prepared = Evaluate.prepare problem in
  List.iter
    (fun combo ->
      let e = Evaluate.evaluate prepared combo in
      checkb
        (Printf.sprintf "%s >= analog LB" (Sharing.short_name combo))
        true
        (e.Evaluate.makespan >= Bounds.lower_bound combo))
    (Problem.combinations problem)

let test_p93791m_full_sharing_is_analog_bound_at_w64 () =
  (* At W=64 the digital tests finish well before 636,113 cycles, so
     the full-sharing makespan equals the serial analog chain — the
     paper's explanation for why sharing matters more at large W. *)
  let problem = Instances.p93791m ~tam_width:64 () in
  let prepared = Evaluate.prepare problem in
  checki "reference = 636,113" Catalog.total_time (Evaluate.reference_makespan prepared)

let test_p93791m_spread_grows_with_width () =
  let spread w =
    let problem = Instances.p93791m ~tam_width:w () in
    let prepared = Evaluate.prepare problem in
    let exh = Msoc_testplan.Exhaustive.run prepared in
    let cts = List.map (fun e -> e.Evaluate.c_t) exh.Msoc_testplan.Exhaustive.all in
    List.fold_left Float.max 0.0 cts -. List.fold_left Float.min 1.0e9 cts
  in
  let s32 = spread 32 and s64 = spread 64 in
  checkb
    (Printf.sprintf "spread widens: %.2f @32 < %.2f @64" s32 s64)
    true (s32 < s64);
  (* the paper's magnitudes: 2.45 at W=32, 17.18 at W=64 *)
  checkb "spread small at W=32" true (s32 < 8.0);
  checkb "spread large at W=64" true (s64 > 8.0)

let test_digital_only_makespans_decrease () =
  let soc = Msoc_itc02.Synthetic.p93791s () in
  let makespan w =
    let jobs = List.map (Job.of_core ~max_width:w) soc.Types.cores in
    Schedule.makespan (Packer.pack ~width:w jobs)
  in
  let ms = List.map makespan [ 16; 24; 32; 48; 64 ] in
  let rec decreasing = function
    | a :: b :: rest -> a > b && decreasing (b :: rest)
    | [ _ ] | [] -> true
  in
  checkb "strictly decreasing over 16..64" true (decreasing ms)

(* --- Fig. 5 chain: wrapped analog core measurement --- *)

let test_wrapped_cutoff_measurement_error_small () =
  (* The paper's demonstration: cut-off extracted through the 8-bit
     wrapper is within ~5% of the direct analog measurement. *)
  let r = Msoc_cosim.Testbench.run ~config:Msoc_cosim.Testbench.ideal Msoc_cosim.Testbench.Fc in
  let fc_direct = r.Msoc_cosim.Testbench.direct
  and fc_wrapped = r.Msoc_cosim.Testbench.measured in
  let err = Float.abs (fc_wrapped -. fc_direct) /. fc_direct in
  checkb
    (Printf.sprintf "direct %.0f Hz vs wrapped %.0f Hz: err %.2f%%" fc_direct
       fc_wrapped (100.0 *. err))
    true (err < 0.06);
  checkb "direct near design" true (Float.abs (fc_direct -. 61_000.0) < 3_000.0)

(* --- Shared wrapper usage equals the scheduling bound --- *)

let test_shared_wrapper_usage_vs_bound () =
  (* Every test of cores A and E runs through one shared behavioral
     wrapper (tiny records); in the planned p93791m schedule with A and
     E on that wrapper its tests are serialized, so its usage = Σ runs
     = the analytic per-wrapper bound. *)
  let shared = [ Catalog.core_a; Catalog.core_e ] in
  let sw = Msoc_mixedsig.Shared_wrapper.create ~system_clock_hz:200.0e6 shared in
  let stim = Array.init 32 (fun i -> (i * 8) mod 256) in
  let responses =
    List.concat_map
      (fun (core : Spec.core) ->
        List.map
          (fun test ->
            Msoc_mixedsig.Shared_wrapper.run_test sw ~core_label:core.Spec.label
              ~core:Fun.id ~test ~stimulus:stim)
          core.Spec.tests)
      shared
  in
  checki "8 runs (6 + 2 tests)" 8 (List.length responses);
  List.iter (fun r -> checki "one code per sample" 32 (Array.length r)) responses;
  let problem = Instances.p93791m ~tam_width:32 () in
  let on_shared (c : Spec.core) = List.mem c.Spec.label [ "A"; "E" ] in
  let combo =
    Sharing.make
      (shared
      :: List.filter_map
           (fun c -> if on_shared c then None else Some [ c ])
           problem.Problem.analog_cores)
  in
  checkb "A and E may share" true (Sharing.is_feasible combo);
  let e = Evaluate.evaluate (Evaluate.prepare problem) combo in
  let runs =
    List.filter
      (fun (p : Schedule.placement) ->
        match String.index_opt p.Schedule.job.Job.label ':' with
        | Some i -> List.mem (String.sub p.Schedule.job.Job.label 0 i) [ "A"; "E" ]
        | None -> false)
      e.Evaluate.schedule.Schedule.placements
  in
  checki "8 scheduled runs" 8 (List.length runs);
  let by_start =
    List.sort (fun (a : Schedule.placement) b -> compare a.Schedule.start b.Schedule.start) runs
  in
  ignore
    (List.fold_left
       (fun prev_finish (p : Schedule.placement) ->
         checkb "serialized" true (p.Schedule.start >= prev_finish);
         Schedule.finish p)
       0 by_start);
  checki "usage = sum of runs" (Bounds.wrapper_usage shared)
    (List.fold_left (fun acc (p : Schedule.placement) -> acc + p.Schedule.time) 0 runs)

(* --- Sharing choice changes with weights on the real instance --- *)

let test_p93791m_weights_steer () =
  let prepared = lazy (Evaluate.prepare (Instances.p93791m ~tam_width:48 ())) in
  let prep = Lazy.force prepared in
  (* re-weight by rebuilding problems but reusing staircases is not
     exposed; evaluate both weightings via fresh prepares *)
  let plan_area =
    Plan.run ~search:Plan.Exhaustive_search (Instances.p93791m ~weight_time:0.1 ~tam_width:48 ())
  in
  let plan_time =
    Plan.run ~search:Plan.Exhaustive_search (Instances.p93791m ~weight_time:0.9 ~tam_width:48 ())
  in
  ignore prep;
  checkb "area weighting shares more" true
    (Sharing.wrappers (Plan.sharing plan_area) <= Sharing.wrappers (Plan.sharing plan_time));
  checkb "area-weighted C_A no worse" true
    (plan_area.Plan.best.Evaluate.c_a <= plan_time.Plan.best.Evaluate.c_a +. 1e-9)

let suites =
  [
    ( "integration.p93791m",
      [
        Alcotest.test_case "plan valid, calibrated magnitude" `Slow
          test_p93791m_plan_valid_and_fast_enough;
        Alcotest.test_case "makespan >= analog bound" `Slow
          test_p93791m_makespan_never_below_analog_bound;
        Alcotest.test_case "full sharing analog-bound at W=64" `Slow
          test_p93791m_full_sharing_is_analog_bound_at_w64;
        Alcotest.test_case "spread grows with width" `Slow
          test_p93791m_spread_grows_with_width;
        Alcotest.test_case "digital makespans decrease" `Slow
          test_digital_only_makespans_decrease;
        Alcotest.test_case "weights steer sharing" `Slow test_p93791m_weights_steer;
      ] );
    ( "integration.fig5",
      [
        Alcotest.test_case "wrapped cutoff error < 6%" `Quick
          test_wrapped_cutoff_measurement_error_small;
      ] );
    ( "integration.shared_wrapper",
      [
        Alcotest.test_case "usage vs bound" `Quick test_shared_wrapper_usage_vs_bound;
      ] );
  ]
