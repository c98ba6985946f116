module Variation = Msoc_mixedsig.Variation
module Wrapper = Msoc_mixedsig.Wrapper
module Quantize = Msoc_mixedsig.Quantize
module Models = Msoc_mixedsig.Analog_models
module Tone = Msoc_signal.Tone
module Spectrum = Msoc_signal.Spectrum
module Goertzel = Msoc_signal.Goertzel
module Cutoff = Msoc_signal.Cutoff
module Distortion = Msoc_signal.Distortion
module Fft = Msoc_signal.Fft
module Export = Msoc_testplan.Export

type spec = Gain | Fc | Thd | Iip3 | Dc_offset | Slew | Dr

let specs = [ Gain; Fc; Thd; Iip3; Dc_offset; Slew; Dr ]

let spec_name = function
  | Gain -> "gain"
  | Fc -> "fc"
  | Thd -> "thd"
  | Iip3 -> "iip3"
  | Dc_offset -> "offset"
  | Slew -> "slew"
  | Dr -> "dr"

let spec_names = List.map spec_name specs

let spec_of_name name =
  let name = String.lowercase_ascii (String.trim name) in
  List.find_opt (fun s -> spec_name s = name) specs

(* Below a 128-point FFT the two iip3 tones (45 and 55 kHz at the
   default 1.7 MS/s, both scaled with fs) round to one bin. *)
let min_samples = function
  | Iip3 -> 65
  | Gain | Fc | Thd | Dc_offset | Slew | Dr -> 16

(* A ceiling for records from outside the program: each sample costs
   a few float arrays (stimulus, DUT stages, converters) and the FFT
   pads to the next power of two, so 2^20 samples stay near 100 MB
   where 4e8 would ask for several 3.2 GB arrays. *)
let max_samples = 1 lsl 20

(* Gain and fc ride the paper's 5 % Fig. 5 agreement; the distortion
   and DC readouts sit near the converter noise/step floor where an
   8-bit wrapped path legitimately deviates more. *)
let default_tolerance_pct = function
  | Gain | Fc -> 5.0
  | Slew -> 20.0
  | Dr -> 25.0  (* an 8-bit wrapped path caps SINAD ~8 dB under direct *)
  | Thd | Iip3 -> 40.0
  | Dc_offset -> 50.0

type config = {
  variation : Variation.t;
  fs : float;
  samples : int;
  bias : float;
  fc_nominal : float;
  gain_nominal : float;
}

let default =
  {
    variation =
      {
        (Variation.nominal ~bits:8 ()) with
        Variation.dac_mismatch_sigma = 0.02;
        adc_threshold_sigma_lsb = 0.5;
        converter_seed = 20;
      };
    fs = 1.7e6;
    samples = 4551;
    bias = 2.0;
    fc_nominal = 61_000.0;
    gain_nominal = 1.0;
  }

let ideal = { default with variation = Variation.nominal ~bits:8 () }

let with_variation variation config = { config with variation }

(* --- the behavioral cores each spec probes --- *)

let shifted nominal pct = nominal *. (1.0 +. (pct /. 100.0))

let dut_for config spec =
  let v = config.variation in
  let fc = shifted config.fc_nominal v.Variation.fc_shift_pct in
  let g = shifted config.gain_nominal v.Variation.gain_shift_pct in
  let with_noise ?(floor = 0.0) stages =
    let sigma = Float.max floor v.Variation.noise_sigma_v in
    if sigma > 0.0 then
      stages @ [ Dut.Noise { sigma; seed = v.Variation.noise_seed } ]
    else stages
  in
  let stages =
    match spec with
    | Gain | Fc -> with_noise [ Dut.Gain g; Dut.Lowpass { order = 2; fc } ]
    | Dr ->
      (* A noiseless float path has unbounded SINAD; the DR core owns
         a physical noise floor so the direct measurement is finite. *)
      with_noise ~floor:0.002 [ Dut.Gain g; Dut.Lowpass { order = 2; fc } ]
    | Thd ->
      with_noise [ Dut.Polynomial { a1 = g; a2 = 0.005; a3 = 0.01 } ]
    | Iip3 ->
      with_noise [ Dut.Polynomial { a1 = g; a2 = 0.0; a3 = 0.02 } ]
    | Dc_offset -> with_noise [ Dut.Gain g; Dut.Dc_offset 0.05 ]
    | Slew ->
      (* Process variation moves the bias current, hence the slew. *)
      with_noise
        [ Dut.Gain g;
          Dut.Slew_limited
            { max_slew_v_per_s = shifted 5.0e5 v.Variation.fc_shift_pct } ]
  in
  Dut.make ~bias:config.bias ~fs:config.fs stages

(* --- stimulus programs --- *)

let pad_of config = Fft.next_pow2 config.samples

let coherent config f = Tone.coherent_freq ~fs:config.fs ~n:(pad_of config) f

(* Stimulus frequencies ride the sampling rate so a program stays
   alias-free at any test's fs (the calibration path runs each Table-2
   test at its own rate). The ratios reproduce the Fig. 5 values at
   the default 1.7 MS/s: [scaled config 20.0] is 20 kHz there. *)
let scaled config khz_at_1p7m =
  coherent config (config.fs *. (khz_at_1p7m /. 1700.0))

let tone_stimulus config ~tones ~amplitude =
  Tone.sample
    ~tones:(List.map (fun hz -> Tone.tone ~amplitude hz) tones)
    ~fs:config.fs ~n:config.samples
  |> Array.map (fun v -> v +. config.bias)

let step_stimulus config ~step_volts =
  let half = config.samples / 2 in
  Array.init config.samples (fun i ->
      if i < half then config.bias -. (step_volts /. 2.0)
      else config.bias +. (step_volts /. 2.0))

type stimulus = { samples_v : float array; tones : float list; amplitude : float }

let stimulus_for config spec =
  match spec with
  | Gain ->
    let f = scaled config 20.0 in
    { samples_v = tone_stimulus config ~tones:[ f ] ~amplitude:1.0;
      tones = [ f ]; amplitude = 1.0 }
  | Fc ->
    (* Fig. 5's three-tone program: one tone in the pass band, one at
       the knee, one in the stop band. *)
    let tones = List.map (scaled config) [ 20.0; 60.0; 150.0 ] in
    { samples_v = tone_stimulus config ~tones ~amplitude:0.6; tones;
      amplitude = 0.6 }
  | Thd ->
    let f = scaled config 10.0 in
    { samples_v = tone_stimulus config ~tones:[ f ] ~amplitude:1.2;
      tones = [ f ]; amplitude = 1.2 }
  | Iip3 ->
    let f1 = scaled config 45.0 and f2 = scaled config 55.0 in
    { samples_v = tone_stimulus config ~tones:[ f1; f2 ] ~amplitude:0.7;
      tones = [ f1; f2 ]; amplitude = 0.7 }
  | Dc_offset ->
    { samples_v = Array.make config.samples config.bias; tones = [];
      amplitude = 0.0 }
  | Slew ->
    { samples_v = step_stimulus config ~step_volts:1.5; tones = [];
      amplitude = 1.5 }
  | Dr ->
    let f = scaled config 20.0 in
    { samples_v = tone_stimulus config ~tones:[ f ] ~amplitude:1.0;
      tones = [ f ]; amplitude = 1.0 }

(* --- extraction (identical DSP on both paths) --- *)

let mean x =
  let sum = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    sum := !sum +. x.(i)
  done;
  !sum /. float_of_int (Array.length x)

(* The spec's readout of a response record, built once per program.
   What depends on the stimulus alone is computed here, once for every
   trial and both paths: the window's coefficients for the record
   length (inside the analyzer) and the Fc program's input spectrum. *)
let extract config spec ~stimulus =
  let analyzer () = Spectrum.analyzer ~fs:config.fs ~pad_to:(pad_of config) config.samples in
  match (spec, stimulus.tones) with
  | Gain, [ f ] ->
    (* Goertzel, the ATE fast path: evaluated at exactly the stimulus
       frequency, no FFT grid. *)
    fun response ->
      Goertzel.amplitude ~fs:config.fs ~f (Models.remove_bias ~bias:config.bias response)
      /. stimulus.amplitude
  | Fc, tones ->
    let spectrum = analyzer () in
    let s_in = spectrum stimulus.samples_v in
    fun response ->
      Cutoff.from_spectra ~order:2 ~input:s_in ~output:(spectrum response) tones
  | Thd, [ f ] ->
    let spectrum = analyzer () in
    fun response -> Distortion.thd (spectrum response) ~fundamental:f
  | Iip3, [ f1; f2 ] ->
    let spectrum = analyzer () in
    fun response -> (Distortion.imd3 (spectrum response) ~f1 ~f2).Distortion.iip3_rel
  | Dc_offset, _ -> fun response -> mean response -. config.bias
  | Slew, _ ->
    fun response ->
      let max_slope = ref 0.0 in
      for i = 1 to Array.length response - 1 do
        let slope = Float.abs (response.(i) -. response.(i - 1)) *. config.fs in
        if slope > !max_slope then max_slope := slope
      done;
      !max_slope /. 1.0e6 (* V/us *)
  | Dr, [ f ] ->
    let spectrum = analyzer () in
    fun response ->
      let ac = Models.remove_bias ~bias:(mean response) response in
      Distortion.sinad_db (spectrum ac) ~fundamental:f
  | (Gain | Thd | Iip3 | Dr), _ ->
    invalid_arg "Testbench.extract: stimulus does not match the spec's program"

let unit_label = function
  | Gain -> "V/V"
  | Fc -> "Hz"
  | Thd -> "ratio"
  | Iip3 -> "V"
  | Dc_offset -> "V"
  | Slew -> "V/us"
  | Dr -> "dB"

(* --- the program and its trials --- *)

(* Everything a spec test computes that does not depend on the die.
   Nothing writes to it once built, so one program serves every trial
   of a Monte-Carlo run, on any domain. *)
type program = {
  spec : spec;
  config : config;  (* its variation is unused: each trial brings a die *)
  tolerance_pct : float;
  stimulus : stimulus;
  readout : float array -> float;
}

type result = {
  spec : spec;
  measured : float;
  direct : float;
  unit_label : string;
  error_pct : float;
  tolerance_pct : float;
  pass : bool;
  trace : Engine.trace;
}

let program ?tolerance_pct config spec =
  let lo = min_samples spec in
  if config.samples < lo || config.samples > max_samples then
    invalid_arg
      (Printf.sprintf "Testbench.program: spec %s needs samples in %d..%d, got %d"
         (spec_name spec) lo max_samples config.samples);
  let tolerance_pct =
    match tolerance_pct with
    | Some t -> t
    | None -> default_tolerance_pct spec
  in
  let stimulus = stimulus_for config spec in
  { spec; config; tolerance_pct; stimulus; readout = extract config spec ~stimulus }

let run_program p variation =
  let config = with_variation variation p.config in
  (* One DUT model per trial, noise drawn once, for both paths. *)
  let core = Dut.batch ~samples:config.samples (dut_for config p.spec) in
  let stimulus = p.stimulus.samples_v in
  (* Direct path: a bench probe on the bare core — no converters. *)
  let direct = p.readout (core stimulus) in
  (* Wrapped path: digital words through DAC → DUT → ADC. *)
  let bits = variation.Variation.bits in
  let range = Quantize.default_range in
  let codes = Quantize.encode_all ~bits ~range stimulus in
  let wrapper = Wrapper.set_mode (Variation.wrapper variation) Wrapper.Core_test in
  let trace = Engine.run_core ~wrapper ~core ~stimulus_codes:codes in
  let response = Quantize.decode_all ~bits ~range trace.Engine.response in
  let measured = p.readout response in
  let error_pct =
    if direct = 0.0 then Float.abs measured *. 100.0
    else 100.0 *. Float.abs (measured -. direct) /. Float.abs direct
  in
  {
    spec = p.spec;
    measured;
    direct;
    unit_label = unit_label p.spec;
    error_pct;
    tolerance_pct = p.tolerance_pct;
    pass = error_pct <= p.tolerance_pct;
    trace;
  }

let run ?tolerance_pct ?(config = default) spec =
  run_program (program ?tolerance_pct config spec) config.variation

let result_json r =
  Export.Object
    [
      ("spec", Export.String (spec_name r.spec));
      ("measured", Export.Float r.measured);
      ("direct", Export.Float r.direct);
      ("unit", Export.String r.unit_label);
      ("error_pct", Export.Float r.error_pct);
      ("tolerance_pct", Export.Float r.tolerance_pct);
      ("pass", Export.Bool r.pass);
      ("samples", Export.Int r.trace.Engine.samples);
      ("tam_cycles", Export.Int r.trace.Engine.tam_cycles);
      ("events", Export.Int r.trace.Engine.scheduler.Scheduler.processed);
    ]

let pp_result ppf r =
  Format.fprintf ppf
    "%-7s wrapped %12.5g %-5s direct %12.5g  err %5.2f%% (tol %g%%) %s  [%d \
     events, %d TAM cycles]"
    (spec_name r.spec) r.measured r.unit_label r.direct r.error_pct
    r.tolerance_pct
    (if r.pass then "PASS" else "FAIL")
    r.trace.Engine.scheduler.Scheduler.processed r.trace.Engine.tam_cycles
