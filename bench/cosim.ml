(* Co-simulation workload: the Fig. 5 closed loop through the wrapped
   batch path, the full spec-test battery, and a 200-trial Monte-Carlo
   yield sweep timed serial vs pooled on four domains, with the
   bit-identical certificate.

   Gates (hard failures, so CI catches a regression):
     - Fig. 5: wrapped fc within 5 % of the direct measurement
     - Monte-Carlo: pooled sweep bit-identical to the serial sweep

   Writes BENCH_cosim.json so CI can archive and assert on the run,
   with the serial sweep's minor- and major-heap words per trial:
   counts, the same on every host, that CI gates without a wall
   clock. *)

module Testbench = Msoc_cosim.Testbench
module Monte_carlo = Msoc_cosim.Monte_carlo
module Pool = Msoc_util.Pool
module Export = Msoc_testplan.Export

let trial_key (t : Monte_carlo.trial) =
  (t.Monte_carlo.index, t.Monte_carlo.measured, t.Monte_carlo.direct,
   t.Monte_carlo.error_pct, t.Monte_carlo.pass)

let run () =
  Printf.printf "\n=== cosim: wrapped co-simulation (one batch pass) ===\n%!";

  (* --- Fig. 5 closed loop --- *)
  let fig5 = Testbench.run Testbench.Fc in
  Printf.printf
    "fig5 closed loop: wrapped fc %.0f Hz, direct %.0f Hz, err %.2f%% \
     (%d events over %d TAM cycles)\n%!"
    fig5.Testbench.measured fig5.Testbench.direct fig5.Testbench.error_pct
    fig5.Testbench.trace.Msoc_cosim.Engine.scheduler
      .Msoc_cosim.Scheduler.processed
    fig5.Testbench.trace.Msoc_cosim.Engine.tam_cycles;
  if fig5.Testbench.error_pct > 5.0 then
    failwith
      (Printf.sprintf "cosim gate: Fig. 5 fc error %.2f%% exceeds 5%%"
         fig5.Testbench.error_pct);

  (* --- the full battery --- *)
  let battery = List.map (fun s -> Testbench.run s) Testbench.specs in
  List.iter
    (fun r -> Format.printf "  %a@." Testbench.pp_result r)
    battery;

  (* --- Monte-Carlo sweep, serial vs pooled --- *)
  let trials = 200 and jobs = 4 in
  let seed = 42 in
  let per_trial before after = (after -. before) /. float_of_int trials in
  let minor_before = Gc.minor_words () and _, _, major_before = Gc.counters () in
  let serial_trials, serial = Monte_carlo.run ~trials ~seed Testbench.Fc in
  let minor_words_per_trial = per_trial minor_before (Gc.minor_words ()) in
  let major_words_per_trial =
    let _, _, major_after = Gc.counters () in
    per_trial major_before major_after
  in
  let pooled_trials, pooled =
    Pool.with_pool ~jobs (fun pool ->
        Monte_carlo.run ~pool ~trials ~seed Testbench.Fc)
  in
  let identical =
    List.length serial_trials = List.length pooled_trials
    && List.for_all2
         (fun a b -> trial_key a = trial_key b)
         serial_trials pooled_trials
  in
  Printf.printf
    "monte-carlo fc: %d trials seed %d -> yield %.1f%% (CI %.1f-%.1f%%), \
     fc %.0f +/- %.0f Hz\n%!"
    trials seed
    (100.0 *. serial.Monte_carlo.yield_frac)
    (100.0 *. serial.Monte_carlo.ci_low)
    (100.0 *. serial.Monte_carlo.ci_high)
    serial.Monte_carlo.measured_mean serial.Monte_carlo.measured_stddev;
  Printf.printf
    "  serial %.1f trials/s | pooled (%d jobs) %.1f trials/s | bit-identical \
     %b\n%!"
    serial.Monte_carlo.trials_per_s jobs pooled.Monte_carlo.trials_per_s
    identical;
  Printf.printf "  serial sweep allocates %.0f minor words per trial\n%!"
    minor_words_per_trial;
  Printf.printf "  serial sweep allocates %.0f major words per trial\n%!"
    major_words_per_trial;
  if not identical then
    failwith "cosim gate: pooled Monte-Carlo differs from serial";

  let json =
    Export.Object
      [
        ( "fig5",
          Export.Object
            [
              ("wrapped_fc_hz", Export.Float fig5.Testbench.measured);
              ("direct_fc_hz", Export.Float fig5.Testbench.direct);
              ("error_pct", Export.Float fig5.Testbench.error_pct);
              ("pass", Export.Bool fig5.Testbench.pass);
            ] );
        ("specs", Export.List (List.map Testbench.result_json battery));
        ( "monte_carlo",
          Export.Object
            [
              ("summary", Monte_carlo.summary_json serial);
              ("jobs", Export.Int jobs);
              ( "pooled_trials_per_s",
                Export.Float pooled.Monte_carlo.trials_per_s );
              ("bit_identical", Export.Bool identical);
              ("minor_words_per_trial", Export.Float minor_words_per_trial);
              ("major_words_per_trial", Export.Float major_words_per_trial);
            ] );
      ]
  in
  let path = "BENCH_cosim.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Export.to_string json ^ "\n"));
  Printf.printf "wrote %s\n%!" path
