module Tone = Msoc_signal.Tone
module Spectrum = Msoc_signal.Spectrum
module Cutoff = Msoc_signal.Cutoff
module Distortion = Msoc_signal.Distortion

type setup = {
  wrapper : Wrapper.t;
  core : Analog_models.t;
  fs : float;
  samples : int;
  bias : float;
}

let setup ?(bits = 8) ?(fs = 1.7e6) ?(samples = 4551) ?(bias = 2.0) core =
  { wrapper = Wrapper.create ~bits (); core; fs; samples; bias }

let pad_of t = Msoc_signal.Fft.next_pow2 t.samples

(* Stream an analog stimulus through the wrapper against the biased
   core model and return the reconstructed analog response. *)
let run_through_wrapper t stimulus =
  let bits = Wrapper.bits t.wrapper in
  let range = Quantize.default_range in
  let codes = Quantize.encode_all ~bits ~range stimulus in
  let wrapper = Wrapper.set_mode t.wrapper Wrapper.Core_test in
  let biased_core = Analog_models.biased ~bias:t.bias t.core in
  let response = Wrapper.apply_core_test wrapper ~core:biased_core ~stimulus:codes in
  Quantize.decode_all ~bits ~range response

let coherent t f = Tone.coherent_freq ~fs:t.fs ~n:(pad_of t) f

let tone_stimulus t ~tones ~amplitude =
  Tone.sample ~tones:(List.map (fun hz -> Tone.tone ~amplitude hz) tones) ~fs:t.fs ~n:t.samples
  |> Array.map (fun v -> v +. t.bias)

let spectra t stimulus =
  let response = run_through_wrapper t stimulus in
  let analyze x = Spectrum.analyze ~fs:t.fs ~pad_to:(pad_of t) x in
  (analyze stimulus, analyze response)

let measure_gain t ~freq ~amplitude =
  let f = coherent t freq in
  let s_in, s_out = spectra t (tone_stimulus t ~tones:[ f ] ~amplitude) in
  Spectrum.tone_amplitude s_out f /. Spectrum.tone_amplitude s_in f

let measure_cutoff t ~tones ~amplitude =
  let tones = List.map (coherent t) tones in
  let s_in, s_out = spectra t (tone_stimulus t ~tones ~amplitude) in
  Cutoff.from_spectra ~order:2 ~input:s_in ~output:s_out tones

let measure_thd t ~freq ~amplitude =
  let f = coherent t freq in
  let _, s_out = spectra t (tone_stimulus t ~tones:[ f ] ~amplitude) in
  Distortion.thd s_out ~fundamental:f

let measure_iip3 t ~f1 ~f2 ~amplitude =
  let f1 = coherent t f1 and f2 = coherent t f2 in
  let _, s_out = spectra t (tone_stimulus t ~tones:[ f1; f2 ] ~amplitude) in
  Distortion.imd3 s_out ~f1 ~f2

let measure_dc_offset t =
  let stimulus = Array.make t.samples t.bias in
  let response = run_through_wrapper t stimulus in
  let mean =
    Array.fold_left ( +. ) 0.0 response /. float_of_int (Array.length response)
  in
  mean -. t.bias

let measure_slew_rate t ~step_volts =
  if step_volts <= 0.0 then
    invalid_arg "Measurements.measure_slew_rate: step must be positive";
  let half = t.samples / 2 in
  let stimulus =
    Array.init t.samples (fun i ->
        if i < half then t.bias -. (step_volts /. 2.0)
        else t.bias +. (step_volts /. 2.0))
  in
  let response = run_through_wrapper t stimulus in
  let max_slope = ref 0.0 in
  for i = 1 to Array.length response - 1 do
    let slope = Float.abs (response.(i) -. response.(i - 1)) *. t.fs in
    if slope > !max_slope then max_slope := slope
  done;
  !max_slope

let measure_dynamic_range t ~freq ~amplitude =
  let f = coherent t freq in
  let response = run_through_wrapper t (tone_stimulus t ~tones:[ f ] ~amplitude) in
  (* Remove the operating-point DC before the spectrum: its window
     leakage would otherwise masquerade as low-frequency noise. *)
  let mean =
    Array.fold_left ( +. ) 0.0 response /. float_of_int (Array.length response)
  in
  let ac = Analog_models.remove_bias ~bias:mean response in
  let s_out = Spectrum.analyze ~fs:t.fs ~pad_to:(pad_of t) ac in
  Distortion.sinad_db s_out ~fundamental:f

type verdict = { name : string; value : float; limit_low : float; limit_high : float }

let passed v = v.value >= v.limit_low && v.value <= v.limit_high

let pp_verdict ppf v =
  Format.fprintf ppf "%-12s %10.4g  [%g .. %g]  %s" v.name v.value v.limit_low
    v.limit_high
    (if passed v then "PASS" else "FAIL")
