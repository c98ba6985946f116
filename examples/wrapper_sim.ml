(* Analog test wrapper simulation: the paper's §5 demonstration.

   A low-pass analog core (61 kHz Butterworth) is tested for its
   cut-off frequency twice, in one trial of the co-simulation
   testbench's fc program:
     1. directly, with the analog multi-tone stimulus on the bare core;
     2. through the 8-bit analog test wrapper (digital codes -> DAC ->
        core -> ADC -> digital codes), as a tester without analog
        instruments would.

   The two extracted cut-off frequencies agree within a few percent —
   the feasibility claim behind the whole test-planning approach.

     dune exec examples/wrapper_sim.exe *)

module Testbench = Msoc_cosim.Testbench
module Spectrum = Msoc_signal.Spectrum
module Wrapper = Msoc_mixedsig.Wrapper

let () =
  (* ideal 8-bit converters; the paper's 1.7 MHz sampling from a
     50 MHz system clock, 4551 samples, three tones *)
  let config = Testbench.ideal in
  let variation = config.Testbench.variation in
  let r, s = Testbench.spectra (Testbench.program config Testbench.Fc) variation in
  let n = config.Testbench.samples in
  Printf.printf "Stimulus: %d samples at %.1f MHz, tones at %s kHz\n" n
    (config.Testbench.fs /. 1.0e6)
    (String.concat ", "
       (List.map (fun f -> Printf.sprintf "%.1f" (f /. 1.0e3)) s.Testbench.tones));

  (* the wrapper the trial ran through, configured for the catalog's
     f_c test on the SOC's TAM *)
  let fc_test =
    Msoc_analog.Spec.test ~name:"f_c" ~f_low_hz:45_000.0 ~f_high_hz:55_000.0
      ~f_sample_hz:1.5e6 ~cycles:13_653 ~tam_width:4
      ~resolution_bits:variation.Msoc_mixedsig.Variation.bits
  in
  let wrapper =
    Wrapper.configure_for_test
      (Msoc_mixedsig.Variation.wrapper variation)
      ~system_clock_hz:50.0e6 fc_test
  in
  let cfg = Wrapper.config wrapper in
  Printf.printf
    "Wrapper configured: divide ratio %d (fs=%.2f MHz), serial-to-parallel %d, \
     %d TAM wires\n"
    cfg.Wrapper.divide_ratio
    (Wrapper.sample_rate_hz wrapper ~system_clock_hz:50.0e6 /. 1.0e6)
    cfg.Wrapper.serial_to_parallel cfg.Wrapper.tam_width;
  Printf.printf "Streaming this record costs %s TAM cycles\n"
    (Msoc_util.Ascii_table.int_cell (Wrapper.test_cycles wrapper ~samples:n));

  (* report: per-tone levels and extracted cut-offs *)
  Printf.printf "\n%-12s %12s %12s %12s\n" "tone (kHz)" "input (dB)" "direct (dB)"
    "wrapped (dB)";
  List.iter
    (fun f ->
      Printf.printf "%-12.1f %12.1f %12.1f %12.1f\n" (f /. 1.0e3)
        (Spectrum.tone_level_db s.Testbench.input f)
        (Spectrum.tone_level_db s.Testbench.direct_spectrum f)
        (Spectrum.tone_level_db s.Testbench.wrapped_spectrum f))
    s.Testbench.tones;
  Printf.printf
    "\nCut-off: design %.1f kHz | direct measurement %.1f kHz | wrapped %.1f kHz\n"
    (config.Testbench.fc_nominal /. 1.0e3)
    (r.Testbench.direct /. 1.0e3) (r.Testbench.measured /. 1.0e3);
  Printf.printf "Wrapper-induced error: %.2f%% (paper reports ~5%% in silicon)\n"
    r.Testbench.error_pct;

  (* the wrapper's self-test mode checks the converters themselves *)
  let self = Wrapper.set_mode wrapper Wrapper.Self_test in
  Printf.printf "Self-test (DAC->ADC loopback) worst error: %.1f LSB\n"
    (Wrapper.self_test_max_error_lsb self ~samples:256)
