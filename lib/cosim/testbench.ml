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
      (* Process variation moves the bias current, hence the slew. The
         limit is 0.5 V/us for the 61 kHz core and scales with the
         design cut-off, so a core scaled to a test's own rate (as
         Calibrate scales it) slews as far per sample. *)
      let max_slew = 5.0e5 *. (config.fc_nominal /. default.fc_nominal) in
      with_noise
        [ Dut.Gain g;
          Dut.Slew_limited
            { max_slew_v_per_s = shifted max_slew v.Variation.fc_shift_pct } ]
  in
  Dut.make ~bias:config.bias ~fs:config.fs stages

(* --- stimulus programs --- *)

type stimulus = { tones : float list; amplitude : float }

let pad_of config = Fft.next_pow2 config.samples

let coherent config f = Tone.coherent_freq ~fs:config.fs ~n:(pad_of config) f

(* A spec's own stimulus. Its frequencies ride the sampling rate so a
   program stays alias-free at any test's fs (the calibration path runs
   each Table-2 test at its own rate); the ratios reproduce the Fig. 5
   values at the default 1.7 MS/s. *)
let default_stimulus config spec =
  let at_1p7m khz amplitude =
    { tones = List.map (fun k -> config.fs *. (k /. 1700.0)) khz; amplitude }
  in
  match spec with
  | Gain | Dr -> at_1p7m [ 20.0 ] 1.0
  | Fc ->
    (* Fig. 5's three-tone program: one tone in the pass band, one at
       the knee, one in the stop band. *)
    at_1p7m [ 20.0; 60.0; 150.0 ] 0.6
  | Thd -> at_1p7m [ 10.0 ] 1.2
  | Iip3 -> at_1p7m [ 45.0; 55.0 ] 0.7
  | Dc_offset -> at_1p7m [] 0.0
  | Slew -> at_1p7m [] 1.5

(* What a readout needs of a caller's stimulus, checked once when the
   program is built: the tone count it reads, tones below Nyquist on
   the grid (Iip3's on two bins, their IMD3 products in band) and an
   amplitude it can divide by; the offset test holds the bias. *)
let check_stimulus config spec { tones; amplitude } =
  let fail why =
    invalid_arg (Printf.sprintf "Testbench.program: spec %s %s" (spec_name spec) why)
  in
  let n = List.length tones in
  (match spec with
  | Gain | Thd | Dr -> if n <> 1 then fail "reads one tone"
  | Iip3 -> if n <> 2 then fail "reads two tones"
  | Fc -> if n < 2 then fail "fits two tones or more"
  | Dc_offset | Slew -> if n <> 0 then fail "takes no tones");
  let in_band f = f > 0.0 && f < config.fs /. 2.0 in
  if not (List.for_all (fun f -> f > 0.0 && in_band (coherent config f)) tones) then
    fail "needs tones in (0, fs/2) on the record's grid";
  (match List.map (coherent config) tones with
  | [ f1; f2 ] when spec = Iip3 ->
    if f1 = f2 || not (in_band ((2.0 *. f1) -. f2) && in_band ((2.0 *. f2) -. f1)) then
      fail "needs its tones on two bins and IMD3 products in (0, fs/2)"
  | _ -> ());
  if spec = Dc_offset then (if amplitude <> 0.0 then fail "takes no amplitude")
  else if not (Float.is_finite amplitude && amplitude > 0.0) then
    fail "needs a positive finite amplitude"

(* The record a stimulus drives, its tones already on the grid. *)
let record_of config spec { tones; amplitude } =
  match spec with
  | Dc_offset -> Array.make config.samples config.bias
  | Slew ->
    (* a step of [amplitude] volts across the bias, at mid-record *)
    let half = config.samples / 2 in
    Array.init config.samples (fun i ->
        if i < half then config.bias -. (amplitude /. 2.0)
        else config.bias +. (amplitude /. 2.0))
  | Gain | Fc | Thd | Iip3 | Dr ->
    (* the bias goes on in place: a record-sized copy would be one
       more array in the major heap for every program *)
    let record =
      Tone.sample
        ~tones:(List.map (fun hz -> Tone.tone ~amplitude hz) tones)
        ~fs:config.fs ~n:config.samples
    in
    for i = 0 to Array.length record - 1 do
      record.(i) <- record.(i) +. config.bias
    done;
    record

(* --- extraction (identical DSP on both paths) --- *)

let mean x =
  let sum = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    sum := !sum +. x.(i)
  done;
  !sum /. float_of_int (Array.length x)

(* A response's readout: from the record itself, or from its spectrum.
   A spectral readout keeps the analysis apart from the reading, so a
   trial can hand out the spectra it read ({!spectra}). Both may
   overwrite the response they are given (the bias or the mean comes
   off in place): a trial hands them its own sample buffer. The
   analysis computes the spectrum in the scratch it is lent. *)
type readout =
  | Of_record of (float array -> float)
  | Of_spectrum of {
      analyze : Spectrum.scratch -> float array -> Spectrum.t;
      read : Spectrum.t -> float;
    }

let remove_bias_in_place ~bias x = Models.remove_bias_into ~bias x ~into:x

(* The spec's readout, built once per program. What depends on the
   stimulus alone is computed here, once for every trial and both
   paths: the window's coefficients for the record length (inside the
   analyzer) and the Fc program's input tone amplitudes, read from an
   input spectrum that is dropped once they are read. *)
let extract config spec { tones; amplitude } ~record =
  let analyzer () =
    Spectrum.analyzer_into ~fs:config.fs ~pad_to:(pad_of config) config.samples
  in
  match (spec, tones) with
  | Gain, [ f ] ->
    (* Goertzel, the ATE fast path: evaluated at exactly the stimulus
       frequency, no FFT grid. *)
    Of_record
      (fun response ->
        remove_bias_in_place ~bias:config.bias response;
        Goertzel.amplitude ~fs:config.fs ~f response /. amplitude)
  | Fc, tones ->
    let analyze = analyzer () in
    let fit =
      Cutoff.from_spectra ~order:2 ~input:(analyze (Spectrum.scratch (pad_of config)) record) tones
    in
    Of_spectrum { analyze; read = (fun s -> fit ~output:s) }
  | Thd, [ f ] ->
    Of_spectrum { analyze = analyzer (); read = (fun s -> Distortion.thd s ~fundamental:f) }
  | Iip3, [ f1; f2 ] ->
    Of_spectrum
      { analyze = analyzer (); read = (fun s -> (Distortion.imd3 s ~f1 ~f2).Distortion.iip3_rel) }
  | Dc_offset, _ -> Of_record (fun response -> mean response -. config.bias)
  | Slew, _ ->
    Of_record
      (fun response ->
        let max_slope = ref 0.0 in
        for i = 1 to Array.length response - 1 do
          let slope = Float.abs (response.(i) -. response.(i - 1)) *. config.fs in
          if slope > !max_slope then max_slope := slope
        done;
        !max_slope /. 1.0e6 (* V/us *))
  | Dr, [ f ] ->
    let spectrum = analyzer () in
    Of_spectrum
      {
        analyze =
          (fun scratch response ->
            remove_bias_in_place ~bias:(mean response) response;
            spectrum scratch response);
        read = (fun s -> Distortion.sinad_db s ~fundamental:f);
      }
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
  tones : float list;  (* the stimulus tones, on the record's grid *)
  record : float array;
  readout : readout;
}

type reading = { measured : float; direct : float; error_pct : float; pass : bool }

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

let program ?tolerance_pct ?stimulus config spec =
  let lo = min_samples spec in
  if config.samples < lo || config.samples > max_samples then
    invalid_arg
      (Printf.sprintf "Testbench.program: spec %s needs samples in %d..%d, got %d"
         (spec_name spec) lo max_samples config.samples);
  Option.iter (check_stimulus config spec) stimulus;
  let { tones; amplitude } = Option.value stimulus ~default:(default_stimulus config spec) in
  let tolerance_pct = Option.value tolerance_pct ~default:(default_tolerance_pct spec) in
  let stimulus = { tones = List.map (coherent config) tones; amplitude } in
  let record = record_of config spec stimulus in
  let readout = extract config spec stimulus ~record in
  { spec; config; tolerance_pct; tones = stimulus.tones; record; readout }

(* --- the workspace and the trial --- *)

(* Everything a trial writes, sized for one program: the die's noise
   draws, the sample buffer every stage of both paths overwrites, the
   code buffer (the stimulus codes, then the response codes) and a
   spectral readout's scratch (its FFT buffers, and the magnitudes
   once SINAD fills them). The scratch is built
   when a readout first needs it, so a record readout and {!spectra},
   which lends each spectrum a scratch of its own, build none. *)
type workspace = {
  program : program;
  draws : float array;
  samples : float array;
  codes : int array;
  scratch : Spectrum.scratch Lazy.t;
}

let workspace (p : program) =
  let n = p.config.samples in
  {
    program = p;
    draws = Array.create_float n;
    samples = Array.create_float n;
    codes = Array.make n 0;
    scratch = lazy (Spectrum.scratch (pad_of p.config));
  }

(* The program's readout of a response, a spectrum in the workspace's
   scratch. *)
let read ws response =
  match ws.program.readout with
  | Of_record read -> read response
  | Of_spectrum { analyze; read } -> read (analyze (Lazy.force ws.scratch) response)

(* One trial through [ws]: both paths through one DUT model (its noise
   drawn once, into the workspace), each response read by [read] from
   the sample buffer as soon as it exists; returns the direct reading,
   the wrapped reading and the wrapped path's trace, whose response is
   the workspace's code buffer. *)
let trial ws variation read =
  let p = ws.program in
  let config = with_variation variation p.config in
  let core = Dut.batch_into ~draws:ws.draws (dut_for config p.spec) in
  (* Direct path: a bench probe on the bare core — no converters. *)
  core p.record ~into:ws.samples;
  let direct = read ws.samples in
  (* Wrapped path: digital words through DAC → DUT → ADC. *)
  let bits = variation.Variation.bits in
  let range = Quantize.default_range in
  Quantize.encode_into ~bits ~range p.record ~into:ws.codes;
  let trace =
    Engine.run_core
      ~wrapper:(Wrapper.set_mode (Variation.wrapper variation) Wrapper.Core_test)
      ~core:(fun x -> core x ~into:x)
      ~codes:ws.codes ~samples:ws.samples
  in
  Quantize.decode_into ~bits ~range ws.codes ~into:ws.samples;
  (direct, read ws.samples, trace)

let error_pct_of ~direct ~measured =
  if direct = 0.0 then Float.abs measured *. 100.0
  else 100.0 *. Float.abs (measured -. direct) /. Float.abs direct

let result_of (p : program) ~direct ~measured trace =
  let error_pct = error_pct_of ~direct ~measured in
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

let program_spec (p : program) = p.spec

(* A fresh workspace per call: the result's trace holds its code
   buffer, so no two results share one. *)
let run_program p variation =
  let ws = workspace p in
  let direct, measured, trace = trial ws variation (read ws) in
  result_of p ~direct ~measured trace

(* The verdict alone: nothing of the workspace leaves the trial. *)
let run_trial ws variation : reading =
  let direct, measured, _ = trial ws variation (read ws) in
  let error_pct = error_pct_of ~direct ~measured in
  { measured; direct; error_pct; pass = error_pct <= ws.program.tolerance_pct }

type spectra = {
  tones : float list;
  input : Spectrum.t;
  direct_spectrum : Spectrum.t;
  wrapped_spectrum : Spectrum.t;
}

let spectra (p : program) variation =
  match p.readout with
  | Of_record _ ->
    invalid_arg
      (Printf.sprintf "Testbench.spectra: spec %s reads no spectrum" (spec_name p.spec))
  | Of_spectrum { analyze; read } ->
    (* each spectrum in a scratch of its own, so all three outlive the
       trial; the record is copied, as an analysis may write it *)
    let analyze x = analyze (Spectrum.scratch (pad_of p.config)) x in
    let direct_spectrum, wrapped_spectrum, trace = trial (workspace p) variation analyze in
    ( result_of p ~direct:(read direct_spectrum) ~measured:(read wrapped_spectrum) trace,
      {
        tones = p.tones;
        input = analyze (Array.copy p.record);
        direct_spectrum;
        wrapped_spectrum;
      } )

let run ?tolerance_pct ?stimulus ?(config = default) spec =
  run_program (program ?tolerance_pct ?stimulus config spec) config.variation

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
