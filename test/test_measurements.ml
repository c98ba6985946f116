(* Tests for the analog test library: distortion metrics, behavioral
   core models, and Table 2's specification tests executed through the
   wrapper. Each measurement is checked against the analytic ground
   truth of the core model it observes. *)

module Tone = Msoc_signal.Tone
module Spectrum = Msoc_signal.Spectrum
module Distortion = Msoc_signal.Distortion
module Models = Msoc_mixedsig.Analog_models
module M = Msoc_mixedsig.Measurements

let checkb = Alcotest.(check bool)
let close_pct name pct expected actual =
  if expected = 0.0 then Alcotest.(check (float 1e-6)) name expected actual
  else
    checkb
      (Printf.sprintf "%s: %.6g within %.1f%% of %.6g" name actual pct expected)
      true
      (Float.abs (actual -. expected) /. Float.abs expected <= pct /. 100.0)

(* --- Distortion --- *)

let spectrum_of ?(fs = 1.0e6) ?(n = 8192) tones =
  Spectrum.analyze ~fs (Tone.sample ~tones ~fs ~n)

let test_harmonic_frequencies () =
  let hs = Distortion.harmonic_frequencies ~fundamental:100_000.0 ~fs:1.0e6 ~count:4 in
  Alcotest.(check (list (float 0.1))) "2f..5f" [ 200_000.0; 300_000.0; 400_000.0; 500_000.0 ] hs;
  (* folding: 3 x 400k = 1.2M aliases to 200k at fs=1M *)
  let folded = Distortion.harmonic_frequencies ~fundamental:400_000.0 ~fs:1.0e6 ~count:2 in
  Alcotest.(check (list (float 0.1))) "fold" [ 200_000.0; 200_000.0 ] folded

let test_thd_of_synthetic_harmonics () =
  let fs = 1.0e6 and n = 8192 in
  let f = Tone.coherent_freq ~fs ~n 50_000.0 in
  let tones =
    [
      Tone.tone ~amplitude:1.0 f;
      Tone.tone ~amplitude:0.03 (Tone.coherent_freq ~fs ~n (2.0 *. f));
      Tone.tone ~amplitude:0.04 (Tone.coherent_freq ~fs ~n (3.0 *. f));
    ]
  in
  let s = spectrum_of ~fs ~n tones in
  (* THD = sqrt(0.03^2 + 0.04^2) / 1.0 = 0.05 *)
  close_pct "thd" 3.0 0.05 (Distortion.thd s ~fundamental:f)

let test_thd_pure_tone_is_tiny () =
  let fs = 1.0e6 and n = 8192 in
  let f = Tone.coherent_freq ~fs ~n 50_000.0 in
  let s = spectrum_of ~fs ~n [ Tone.tone f ] in
  checkb "pure tone thd < 1e-6" true (Distortion.thd s ~fundamental:f < 1e-6)

let test_sinad_enob_of_quantized_tone () =
  (* An n-bit quantized full-scale sine has ENOB ~ n. *)
  let fs = 1.0e6 and n = 8192 in
  let bits = 8 in
  let range = Msoc_mixedsig.Quantize.default_range in
  let f = Tone.coherent_freq ~fs ~n 50_321.0 in
  let x =
    Tone.sample ~tones:[ Tone.tone ~amplitude:1.99 f ] ~fs ~n
    |> Array.map (fun v ->
           Msoc_mixedsig.Quantize.roundtrip ~bits ~range (v +. 2.0) -. 2.0)
  in
  let s = Spectrum.analyze ~fs x in
  let enob = Distortion.enob s ~fundamental:f in
  checkb (Printf.sprintf "enob %.2f in [7, 8.7]" enob) true (enob > 7.0 && enob < 8.7)

let test_imd3_cubic_ground_truth () =
  (* For y = x + a3 x^3 driven by two tones of amplitude A, the IMD3
     product amplitude is (3/4) a3 A^3. *)
  let fs = 1.0e6 and n = 16384 in
  let a3 = 0.05 and amp = 0.5 in
  let f1 = Tone.coherent_freq ~fs ~n 90_000.0
  and f2 = Tone.coherent_freq ~fs ~n 110_000.0 in
  let x = Tone.sample ~tones:[ Tone.tone ~amplitude:amp f1; Tone.tone ~amplitude:amp f2 ] ~fs ~n in
  let y = Models.polynomial ~a1:1.0 ~a2:0.0 ~a3 x in
  let s = Spectrum.analyze ~fs y in
  let r = Distortion.imd3 s ~f1 ~f2 in
  close_pct "imd level" 8.0 (0.75 *. a3 *. (amp ** 3.0)) r.Distortion.imd_level;
  (* IIP3 of this polynomial: sqrt(4/3 * a1/a3) ~ 5.16; the two-tone
     estimate converges to it from small-signal measurements. *)
  close_pct "iip3" 12.0 (Float.sqrt (4.0 /. 3.0 /. a3)) r.Distortion.iip3_rel

let test_imd3_validation () =
  let fs = 1.0e6 and n = 4096 in
  let s = spectrum_of ~fs ~n [ Tone.tone 100_000.0 ] in
  (match Distortion.imd3 s ~f1:100_000.0 ~f2:100_000.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "equal tones accepted");
  match Distortion.imd3 s ~f1:10_000.0 ~f2:490_000.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-band product accepted"

let test_dc_offset_readout () =
  let fs = 1.0e6 and n = 4096 in
  let x = Array.make n 0.123 in
  let s = Spectrum.analyze ~window:Msoc_signal.Window.Rectangular ~fs x in
  close_pct "dc" 1.0 0.123 (Distortion.dc_offset s)

(* --- Analog models --- *)

let test_models_compose_and_bias () =
  let model = Models.compose [ Models.gain 2.0; Models.dc_offset 0.1 ] in
  let y = model [| 1.0; -1.0 |] in
  Alcotest.(check (array (float 1e-12))) "gain then offset" [| 2.1; -1.9 |] y;
  let biased = Models.biased ~bias:2.0 (Models.gain 0.5) in
  Alcotest.(check (array (float 1e-12))) "biased half" [| 2.5 |] (biased [| 3.0 |])

let test_models_slew_limiter () =
  let fs = 1.0e6 in
  let model = Models.slew_limited ~max_slew_v_per_s:1.0e6 ~fs in
  (* step of 5 V can move 1 V per sample *)
  let y = model [| 0.0; 5.0; 5.0; 5.0; 5.0; 5.0; 5.0 |] in
  Alcotest.(check (array (float 1e-9))) "ramp" [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 5.0 |] y

let test_models_slew_validation () =
  List.iter
    (fun (max_slew_v_per_s, fs) ->
      match Models.slew_limited ~max_slew_v_per_s ~fs [| 0.0; 1.0 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "slew %g at fs %g accepted" max_slew_v_per_s fs)
    [ (0.0, 1.0e6); (-1.0, 1.0e6); (Float.nan, 1.0e6); (1.0e6, Float.nan) ]

let test_models_downconverter () =
  let fs = 1.0e6 and n = 8192 in
  let lo = Tone.coherent_freq ~fs ~n 200_000.0 in
  let rf = Tone.coherent_freq ~fs ~n 230_000.0 in
  let model = Models.downconverter ~lo_hz:lo ~fs ~if_lowpass_fc:60_000.0 in
  let y = model (Tone.sample ~tones:[ Tone.tone rf ] ~fs ~n) in
  let s = Spectrum.analyze ~fs y in
  (* difference product at 30 kHz with gain 1/2; sum product filtered *)
  close_pct "IF tone" 6.0 0.5 (Spectrum.tone_amplitude s (rf -. lo));
  checkb "sum suppressed" true (Spectrum.tone_amplitude s (rf +. lo) < 0.02)

(* --- Measurements through the wrapper --- *)

let test_measure_gain () =
  let t = M.setup (Models.gain 0.7) in
  close_pct "gain 0.7" 2.0 0.7 (M.measure_gain t ~freq:50_000.0 ~amplitude:0.8)

let test_measure_cutoff () =
  let t = M.setup (Models.lowpass ~order:2 ~fc:61_000.0 ~fs:1.7e6) in
  let fc =
    M.measure_cutoff t ~tones:[ 20_000.0; 60_000.0; 150_000.0 ] ~amplitude:0.55
  in
  close_pct "cutoff" 5.0 61_000.0 fc

let test_measure_thd () =
  (* For y = x + a3 x^3 with a 0.5 V tone, HD3 relative to the
     fundamental is a3 A^2 / 4 = 1.25e-3. A 12-bit wrapper adds small
     quantization spurs on top, so allow a generous band. *)
  let model = Models.polynomial ~a1:1.0 ~a2:0.0 ~a3:0.02 in
  let t = M.setup ~bits:12 model in
  let thd = M.measure_thd t ~freq:20_000.0 ~amplitude:0.5 in
  close_pct "thd (12-bit wrapper)" 30.0 (0.02 *. 0.5 *. 0.5 /. 4.0) thd

let test_measure_iip3 () =
  let a3 = 0.05 in
  let model = Models.polynomial ~a1:1.0 ~a2:0.0 ~a3:(-.a3) in
  let t = M.setup ~bits:12 model in
  let r = M.measure_iip3 t ~f1:90_000.0 ~f2:110_000.0 ~amplitude:0.5 in
  close_pct "iip3" 15.0 (Float.sqrt (4.0 /. 3.0 /. a3)) r.Distortion.iip3_rel

let test_measure_dc_offset () =
  let t = M.setup ~bits:12 (Models.dc_offset 0.05) in
  close_pct "offset" 10.0 0.05 (M.measure_dc_offset t)

let test_measure_slew_rate () =
  let fs = 1.7e6 in
  let sr = 0.4e6 (* 0.4 V/us *) in
  let t = M.setup ~bits:12 (Models.slew_limited ~max_slew_v_per_s:sr ~fs) in
  close_pct "slew" 10.0 sr (M.measure_slew_rate t ~step_volts:1.5)

let test_measure_dynamic_range_tracks_noise () =
  let quiet = M.setup ~bits:12 (Models.additive_noise ?seed:None ~sigma:0.001) in
  let noisy = M.setup ~bits:12 (Models.additive_noise ?seed:None ~sigma:0.02) in
  let dr s = M.measure_dynamic_range s ~freq:50_000.0 ~amplitude:0.9 in
  let d_quiet = dr quiet and d_noisy = dr noisy in
  checkb
    (Printf.sprintf "DR falls with noise: %.1f dB > %.1f dB" d_quiet d_noisy)
    true
    (d_quiet > d_noisy +. 15.0)

let test_measurement_verdicts () =
  let v = { M.name = "g"; value = 0.7; limit_low = 0.6; limit_high = 0.8 } in
  checkb "pass" true (M.passed v);
  checkb "fail low" false (M.passed { v with M.value = 0.5 });
  let s = Format.asprintf "%a" M.pp_verdict v in
  checkb "prints PASS" true
    (let n = String.length s in
     n >= 4 && String.sub s (n - 4) 4 = "PASS")

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"measured gain tracks model gain" ~count:15
      (float_range 0.2 1.5)
      (fun g ->
        let t = M.setup ~bits:12 (Models.gain g) in
        let measured = M.measure_gain t ~freq:40_000.0 ~amplitude:0.4 in
        Float.abs (measured -. g) /. g < 0.05);
    Test.make ~name:"thd grows with drive for cubic core" ~count:10
      (float_range 0.01 0.04)
      (fun a3 ->
        let t = M.setup ~bits:12 (Models.polynomial ~a1:1.0 ~a2:0.0 ~a3) in
        let low = M.measure_thd t ~freq:20_000.0 ~amplitude:0.25 in
        let high = M.measure_thd t ~freq:20_000.0 ~amplitude:0.75 in
        high > low);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "measure.distortion",
      [
        Alcotest.test_case "harmonic frequencies" `Quick test_harmonic_frequencies;
        Alcotest.test_case "thd synthetic" `Quick test_thd_of_synthetic_harmonics;
        Alcotest.test_case "thd pure tone" `Quick test_thd_pure_tone_is_tiny;
        Alcotest.test_case "sinad/enob quantized" `Quick test_sinad_enob_of_quantized_tone;
        Alcotest.test_case "imd3 ground truth" `Quick test_imd3_cubic_ground_truth;
        Alcotest.test_case "imd3 validation" `Quick test_imd3_validation;
        Alcotest.test_case "dc offset" `Quick test_dc_offset_readout;
      ] );
    ( "measure.models",
      [
        Alcotest.test_case "compose and bias" `Quick test_models_compose_and_bias;
        Alcotest.test_case "slew limiter" `Quick test_models_slew_limiter;
        Alcotest.test_case "slew validation" `Quick test_models_slew_validation;
        Alcotest.test_case "downconverter" `Quick test_models_downconverter;
      ] );
    ( "measure.wrapped",
      [
        Alcotest.test_case "gain" `Quick test_measure_gain;
        Alcotest.test_case "cutoff" `Quick test_measure_cutoff;
        Alcotest.test_case "thd" `Quick test_measure_thd;
        Alcotest.test_case "iip3" `Quick test_measure_iip3;
        Alcotest.test_case "dc offset" `Quick test_measure_dc_offset;
        Alcotest.test_case "slew rate" `Quick test_measure_slew_rate;
        Alcotest.test_case "dynamic range" `Quick test_measure_dynamic_range_tracks_noise;
        Alcotest.test_case "verdicts" `Quick test_measurement_verdicts;
      ] );
    ("measure.properties", qcheck_tests);
  ]
