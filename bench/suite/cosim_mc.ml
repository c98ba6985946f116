(* cosim-mc: Monte-Carlo sweeps of the co-simulated Table-2 spec tests.
   One round is the seven spec programs under one seeded Monte-Carlo
   seed, 20 trials each, default variation ranges, serial. This is the
   only workload that runs the event scheduler, the DUT, the converters
   and the DSP extraction, and it touches no planning layer: it is the
   control that must not move when the planner changes. *)

module Testbench = Msoc_cosim.Testbench
module Monte_carlo = Msoc_cosim.Monte_carlo
module Engine = Msoc_cosim.Engine
module Scheduler = Msoc_cosim.Scheduler
module Export = Msoc_testplan.Export

let trials = 20
let smoke_trials = 4

(* Rounds of seven ops in a default run: 56 ops, 8 Monte-Carlo seeds. *)
let default_rounds = 8

(* The paper's Fig. 5 agreement between the wrapped and the direct
   cut-off measurement. *)
let fig5_limit_pct = 5.0

type op = { spec : Testbench.spec; seed : int; trials : int }

type result = { trials_out : Monte_carlo.trial list; summary : Monte_carlo.summary }

let make_ops ctx ~rounds =
  let rng = Msoc_util.Rng.create ~seed:ctx.Workload.seed in
  let trials = if ctx.Workload.smoke then smoke_trials else trials in
  Array.concat
    (List.init rounds (fun _ ->
         let seed = 1 + Msoc_util.Rng.int rng ~bound:1_000_000_000 in
         Measure.shuffled rng
           (Array.of_list
              (List.map (fun spec -> { spec; seed; trials }) Testbench.specs))))

let fig5_check () =
  let r = Testbench.run Testbench.Fc in
  if not (r.Testbench.error_pct <= fig5_limit_pct) then
    failwith
      (Printf.sprintf "Fig. 5 check: wrapped fc is %.3f%% off the direct value (limit %.1f%%)"
         r.Testbench.error_pct fig5_limit_pct);
  r.Testbench.error_pct

let run op =
  let trials_out, summary =
    Trace.span "cosim.monte_carlo" (fun () ->
        Monte_carlo.run ~trials:op.trials ~seed:op.seed op.spec)
  in
  { trials_out; summary }

let check op r =
  let s = r.summary in
  let finite = List.for_all Float.is_finite in
  if List.length r.trials_out <> op.trials || s.Monte_carlo.trials <> op.trials then
    Error "trial count"
  else if
    not
      (List.for_all
         (fun (t : Monte_carlo.trial) ->
           finite [ t.Monte_carlo.measured; t.Monte_carlo.direct; t.Monte_carlo.error_pct ])
         r.trials_out)
  then Error "non-finite trial value"
  else if
    not
      (finite
         [
           s.Monte_carlo.measured_mean;
           s.Monte_carlo.measured_stddev;
           s.Monte_carlo.error_pct_mean;
           s.Monte_carlo.yield_frac;
         ])
  then Error "non-finite summary"
  else if s.Monte_carlo.yield_frac < 0.0 || s.Monte_carlo.yield_frac > 1.0 then
    Error "yield outside [0, 1]"
  else Ok r

type probe_stats = { events : int; peak_queue : int; tam_cycles : int }

(* Traced-only probe, beside the op: one default-config run of the same
   spec, for the scheduler counters a Monte-Carlo summary does not
   carry. *)
let probes : probe_stats list ref = ref []

let probe op _ =
  let r = Trace.span "cosim.testbench" (fun () -> Testbench.run op.spec) in
  let trace = r.Testbench.trace in
  probes :=
    {
      events = trace.Engine.scheduler.Scheduler.processed;
      peak_queue = trace.Engine.scheduler.Scheduler.peak_queue;
      tam_cycles = trace.Engine.tam_cycles;
    }
    :: !probes

let run_workload ctx =
  let rounds = Workload.rounds ctx ~default:default_rounds in
  let setup () =
    let err = fig5_check () in
    (make_ops ctx ~rounds, err)
  in
  let ops, fig5_error_pct = setup () in
  let ((untraced, traced) as passes) =
    Workload.passes ctx ~setup ~ops ~run ~check ~probe
  in
  let n = Array.length ops in
  let buf = Buffer.create 4096 in
  let errors = ref [] in
  Array.iteri
    (fun i op ->
      match untraced.Workload.results.(i) with
      | None -> ()
      | Some r ->
        errors := r.summary.Monte_carlo.error_pct_mean :: !errors;
        Printf.bprintf buf "%s %d %d\n" (Testbench.spec_name op.spec) op.seed
          r.summary.Monte_carlo.passes;
        List.iter
          (fun (t : Monte_carlo.trial) ->
            Printf.bprintf buf "%d %s %s %b\n" t.Monte_carlo.index
              (Measure.digest_float t.Monte_carlo.measured)
              (Measure.digest_float t.Monte_carlo.direct)
              t.Monte_carlo.pass)
          r.trials_out)
    ops;
  let sim_err = Measure.mean (Array.of_list !errors) in
  let layer_metrics =
    match traced with
    | None -> []
    | Some t ->
      let ps = !probes in
      let per_probe f =
        Measure.per (List.length ps)
          (List.fold_left (fun acc p -> acc +. float_of_int (f p)) 0.0 ps)
      in
      let probe_ms = Trace.total_ms "cosim.testbench" in
      let trials_t = Array.fold_left (fun acc o -> acc + o.trials) 0 ops in
      Workload.
        [
          metric "cosim.trial_ms" "ms"
            (Measure.per trials_t (Trace.total_ms "cosim.monte_carlo"));
          metric "cosim.events_per_trial" "count" (per_probe (fun p -> p.events));
          metric "cosim.peak_queue" "count" (per_probe (fun p -> p.peak_queue));
          metric "cosim.tam_cycles_per_trial" "count"
            (per_probe (fun p -> p.tam_cycles));
          metric "cosim.ns_per_event" "ns"
            (1e6 *. Measure.ratio probe_ms
               (float_of_int (List.fold_left (fun acc p -> acc + p.events) 0 ps)));
          metric "cosim.sim_err_pct" "%" sim_err;
        ]
      @ Workload.gc_metrics untraced.Workload.gc ~ops:n
      @ Workload.trace_metrics untraced t
  in
  {
    Workload.attempted = Workload.attempted passes;
    failed = Workload.failed passes;
    end_to_end = Workload.end_to_end untraced;
    per_layer = layer_metrics;
    digest = Workload.digest_of buf;
    params =
      [
        ("ops", Export.Int n);
        ("trials_per_op", Export.Int (if n > 0 then ops.(0).trials else 0));
        ("specs", Export.List (List.map (fun s -> Export.String s) Testbench.spec_names));
        ("fig5_error_pct", Export.Float fig5_error_pct);
        ("sim_err_pct", Export.Float sim_err);
      ];
  }
