module Spec = Msoc_analog.Spec
module Variation = Msoc_mixedsig.Variation
module Wrapper = Msoc_mixedsig.Wrapper
module Problem = Msoc_testplan.Problem
module Export = Msoc_testplan.Export

type measured = {
  test : Spec.test;
  spec : Testbench.spec;
  measured_cycles : int;
  value : float;
  error_pct : float;
  pass : bool;
}

(* Heuristic name match over the catalog's Table-2 vocabulary. Gain is
   the fallback: every analog test at least measures a transfer
   level. *)
let spec_for_test (test : Spec.test) =
  let name = String.lowercase_ascii test.Spec.name in
  let has sub =
    let n = String.length name and m = String.length sub in
    let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  if has "f_c" || has "fc" then Testbench.Fc
  else if has "thd" then Testbench.Thd
  else if has "iip3" then Testbench.Iip3
  else if has "offset" then Testbench.Dc_offset
  else if has "sr" || has "slew" then Testbench.Slew
  else if has "dr" then Testbench.Dr
  else Testbench.Gain

(* The calibration wrapper honours the test's own demands: its
   resolution (modular converters need an even bit count — round up)
   and its sampling rate via the divide ratio. *)
let bits_for_test (test : Spec.test) =
  let b = test.Spec.resolution_bits in
  let b = if b mod 2 = 1 then b + 1 else b in
  Msoc_util.Numeric.clamp_int ~lo:4 ~hi:16 b

let measure_test ~(config : Testbench.config) ~system_clock_hz (test : Spec.test) =
  let spec = spec_for_test test in
  let bits = bits_for_test test in
  let variation = { config.Testbench.variation with Variation.bits } in
  (* The whole regime rides the test's sampling rate: stimulus tones
     scale with fs inside the testbench, and the DUT's pole (and with
     it the slew limit) scales here, so the Fc program keeps its tones
     around the knee and the Slew program its step per sample at any
     rate. *)
  let factor = test.Spec.f_sample_hz /. config.Testbench.fs in
  let config =
    {
      config with
      Testbench.variation;
      fs = test.Spec.f_sample_hz;
      fc_nominal = config.Testbench.fc_nominal *. factor;
    }
  in
  (* Run the spec's full program at the test's sampling rate for the
     value and error ... *)
  let r = Testbench.run ~config spec in
  (* ... and account the record's TAM time under the test's own
     wrapper configuration (divide ratio from the SOC clock, word
     serialization from the test's TAM width). *)
  let wrapper =
    Wrapper.configure_for_test
      (Variation.wrapper variation)
      ~system_clock_hz test
  in
  let cycles_per_sample =
    let cfg = Wrapper.config wrapper in
    cfg.Wrapper.serial_to_parallel * cfg.Wrapper.divide_ratio
  in
  let measured_cycles = r.Testbench.trace.Engine.samples * cycles_per_sample in
  {
    test;
    spec;
    measured_cycles;
    value = r.Testbench.measured;
    error_pct = r.Testbench.error_pct;
    pass = r.Testbench.pass;
  }

let measure_core ?(config = Testbench.default) ~system_clock_hz core =
  List.map (measure_test ~config ~system_clock_hz) core.Spec.tests

let calibrated_core ?config ~system_clock_hz core =
  let measurements = measure_core ?config ~system_clock_hz core in
  let tests =
    List.map
      (fun m ->
        Spec.test ~name:m.test.Spec.name ~f_low_hz:m.test.Spec.f_low_hz
          ~f_high_hz:m.test.Spec.f_high_hz ~f_sample_hz:m.test.Spec.f_sample_hz
          ~cycles:m.measured_cycles ~tam_width:m.test.Spec.tam_width
          ~resolution_bits:m.test.Spec.resolution_bits)
      measurements
  in
  ( Spec.core ~label:core.Spec.label ~name:core.Spec.name ~tests,
    measurements )

let calibrated_problem ?config ~system_clock_hz ~soc ~analog_cores
    ~tam_width ~weight_time () =
  let calibrated =
    List.map (calibrated_core ?config ~system_clock_hz) analog_cores
  in
  let cores = List.map fst calibrated in
  let problem =
    Problem.make ~soc ~analog_cores:cores ~tam_width ~weight_time ()
  in
  (problem, List.map snd calibrated)

let calibration_json reports =
  Export.List
    (List.concat_map
       (fun measurements ->
         List.map
           (fun m ->
             Export.Object
               [
                 ("test", Export.String m.test.Spec.name);
                 ("spec", Export.String (Testbench.spec_name m.spec));
                 ("nominal_cycles", Export.Int m.test.Spec.cycles);
                 ("measured_cycles", Export.Int m.measured_cycles);
                 ("value", Export.Float m.value);
                 ("error_pct", Export.Float m.error_pct);
                 ("pass", Export.Bool m.pass);
               ])
           measurements)
       reports)
