(* Tests for the analog test library: distortion metrics, behavioral
   core models, and Table 2's specification tests executed through the
   wrapper by the co-simulation testbench. Each measurement is checked
   against the analytic ground truth of the DUT stages it observes. *)

module Tone = Msoc_signal.Tone
module Spectrum = Msoc_signal.Spectrum
module Distortion = Msoc_signal.Distortion
module Filter = Msoc_signal.Filter
module Models = Msoc_mixedsig.Analog_models
module Variation = Msoc_mixedsig.Variation
module Testbench = Msoc_cosim.Testbench
module Dut = Msoc_cosim.Dut

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
  (* THD reads the harmonics where the spectrum shows them: 2f..4f of
     a 100 kHz tone each carry 0.01 *)
  let fs = 1.0e6 and n = 8192 in
  let f = Tone.coherent_freq ~fs ~n 100_000.0 in
  let harmonics = List.map (fun k -> Tone.tone ~amplitude:0.01 (float_of_int k *. f)) [ 2; 3; 4 ] in
  close_pct "2f..4f" 3.0 (0.01 *. Float.sqrt 3.0)
    (Distortion.thd ~harmonics:3 (spectrum_of ~fs ~n (Tone.tone f :: harmonics)) ~fundamental:f);
  (* folding: at fs = 1 MHz, 2 x 400k = 800k and 3 x 400k = 1.2M both
     alias to 200k, so one tone there counts twice *)
  let f = Tone.coherent_freq ~fs ~n 400_000.0 in
  let s = spectrum_of ~fs ~n [ Tone.tone f; Tone.tone ~amplitude:0.05 (fs -. (2.0 *. f)) ] in
  close_pct "fold" 3.0 (0.05 *. Float.sqrt 2.0) (Distortion.thd ~harmonics:2 s ~fundamental:f)

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
           Fixtures.roundtrip ~bits ~range (v +. 2.0) -. 2.0)
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
  let y = Fixtures.on_copy (Models.polynomial_in_place ~a1:1.0 ~a2:0.0 ~a3) x in
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

(* --- Analog models --- *)

let test_models_compose_and_bias () =
  let y =
    Fixtures.on_copy
      (fun x ->
        Models.gain_in_place 2.0 x;
        Models.dc_offset_in_place 0.1 x)
      [| 1.0; -1.0 |]
  in
  Alcotest.(check (array (float 1e-12))) "gain then offset" [| 2.1; -1.9 |] y;
  (* the AC component around the bias, the stage, the bias back *)
  let biased x =
    Models.remove_bias_into ~bias:2.0 x ~into:x;
    Models.gain_in_place 0.5 x;
    Models.dc_offset_in_place 2.0 x
  in
  Alcotest.(check (array (float 1e-12))) "biased half" [| 2.5 |] (Fixtures.on_copy biased [| 3.0 |])

let test_models_slew_limiter () =
  let fs = 1.0e6 in
  let model = Fixtures.on_copy (Models.slew_limited_in_place ~max_slew_v_per_s:1.0e6 ~fs) in
  (* step of 5 V can move 1 V per sample *)
  let y = model [| 0.0; 5.0; 5.0; 5.0; 5.0; 5.0; 5.0 |] in
  Alcotest.(check (array (float 1e-9))) "ramp" [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 5.0 |] y

let test_models_slew_validation () =
  List.iter
    (fun (max_slew_v_per_s, fs) ->
      match Fixtures.on_copy (Models.slew_limited_in_place ~max_slew_v_per_s ~fs) [| 0.0; 1.0 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "slew %g at fs %g accepted" max_slew_v_per_s fs)
    [ (0.0, 1.0e6); (-1.0, 1.0e6); (Float.nan, 1.0e6); (1.0e6, Float.nan) ]

(* --- Table 2's spec tests through the wrapper --- *)

(* Ideal converters at [bits], the DUT's design values and its noise
   floor: only quantization stands between the truth and the wrapped
   readout. *)
let bench ?(bits = 8) ?(noise = 0.0) ?(gain = 1.0) () =
  {
    Testbench.ideal with
    Testbench.variation = { (Variation.nominal ~bits ()) with Variation.noise_sigma_v = noise };
    gain_nominal = gain;
  }

let tones ?(amplitude = 0.5) tones = { Testbench.tones; amplitude }

let wrapped ?stimulus config spec = (Testbench.run ?stimulus ~config spec).Testbench.measured

(* The stages of the DUT a spec probes: every ground truth below is
   computed from them. *)
let stages config spec = (Testbench.dut_for config spec).Dut.stages

let on_grid config f =
  Tone.coherent_freq ~fs:config.Testbench.fs
    ~n:(Msoc_signal.Fft.next_pow2 config.Testbench.samples)
    f

(* Gain times the low-pass stage's magnitude at the tone on the grid. *)
let gain_truth config f =
  match stages config Testbench.Gain with
  | [ Dut.Gain g; Dut.Lowpass { order; fc } ] ->
    let fs = config.Testbench.fs in
    g *. Fixtures.magnitude_response (Filter.butterworth_lowpass ~order ~fc ~fs) ~fs (on_grid config f)
  | _ -> Alcotest.fail "gain DUT: expected gain then low-pass"

let test_measure_gain () =
  let config = bench ~gain:0.7 () in
  close_pct "gain 0.7" 2.0 (gain_truth config 50_000.0)
    (wrapped ~stimulus:(tones ~amplitude:0.8 [ 50_000.0 ]) config Testbench.Gain)

let test_measure_cutoff () =
  let config = bench () in
  match stages config Testbench.Fc with
  | [ Dut.Gain _; Dut.Lowpass { fc; _ } ] ->
    close_pct "cutoff" 5.0 fc
      (wrapped ~stimulus:(tones ~amplitude:0.55 [ 20_000.0; 60_000.0; 150_000.0 ]) config Testbench.Fc)
  | _ -> Alcotest.fail "fc DUT: expected gain then low-pass"

let test_measure_thd () =
  (* For y = a1 x + a2 x^2 + a3 x^3 driven by a tone of amplitude A,
     HD2 is a2 A^2 / 2, HD3 is a3 A^3 / 4 and the fundamental
     a1 A + 3/4 a3 A^3. A 12-bit wrapper adds small quantization spurs
     on top, so allow a generous band. *)
  let config = bench ~bits:12 () in
  match stages config Testbench.Thd with
  | [ Dut.Polynomial { a1; a2; a3 } ] ->
    let a = 0.5 in
    let truth =
      Float.hypot (a2 *. a *. a /. 2.0) (a3 *. a *. a *. a /. 4.0)
      /. Float.abs ((a1 *. a) +. (0.75 *. a3 *. a *. a *. a))
    in
    close_pct "thd (12-bit wrapper)" 30.0 truth
      (wrapped ~stimulus:(tones ~amplitude:a [ 20_000.0 ]) config Testbench.Thd)
  | _ -> Alcotest.fail "thd DUT: expected one polynomial"

let test_measure_iip3 () =
  let config = bench ~bits:12 () in
  match stages config Testbench.Iip3 with
  | [ Dut.Polynomial { a1; a3; _ } ] ->
    close_pct "iip3" 15.0
      (Float.sqrt (4.0 /. 3.0 *. a1 /. Float.abs a3))
      (wrapped ~stimulus:(tones [ 90_000.0; 110_000.0 ]) config Testbench.Iip3)
  | _ -> Alcotest.fail "iip3 DUT: expected one polynomial"

let test_measure_dc_offset () =
  let config = bench ~bits:12 () in
  match stages config Testbench.Dc_offset with
  | [ Dut.Gain _; Dut.Dc_offset c ] ->
    close_pct "offset" 10.0 c (wrapped config Testbench.Dc_offset)
  | _ -> Alcotest.fail "offset DUT: expected gain then offset"

let test_measure_slew_rate () =
  let config = bench ~bits:12 () in
  match stages config Testbench.Slew with
  | [ Dut.Gain _; Dut.Slew_limited { max_slew_v_per_s } ] ->
    (* the readout is in V/us *)
    close_pct "slew" 10.0 (max_slew_v_per_s /. 1.0e6)
      (wrapped ~stimulus:(tones ~amplitude:1.5 []) config Testbench.Slew)
  | _ -> Alcotest.fail "slew DUT: expected gain then slew limiter"

let test_measure_dynamic_range_tracks_noise () =
  let dr noise =
    wrapped ~stimulus:(tones ~amplitude:0.9 [ 50_000.0 ]) (bench ~bits:12 ~noise ()) Testbench.Dr
  in
  let d_quiet = dr 0.001 and d_noisy = dr 0.02 in
  checkb
    (Printf.sprintf "DR falls with noise: %.1f dB > %.1f dB" d_quiet d_noisy)
    true
    (d_quiet > d_noisy +. 15.0)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"measured gain tracks model gain" ~count:15
      (float_range 0.2 1.5)
      (fun g ->
        let config = bench ~bits:12 ~gain:g () in
        let measured =
          wrapped ~stimulus:(tones ~amplitude:0.4 [ 40_000.0 ]) config Testbench.Gain
        in
        let truth = gain_truth config 40_000.0 in
        Float.abs (measured -. truth) /. truth < 0.05);
    (* The THD core is y = a1 x + 0.005 x^2 + 0.01 x^3; its linear gain
       a1 follows the config's gain. *)
    Test.make ~name:"thd grows with drive for cubic core" ~count:10
      (float_range 0.5 1.5)
      (fun a1 ->
        let config = bench ~bits:12 ~gain:a1 () in
        let thd amplitude =
          wrapped ~stimulus:(tones ~amplitude [ 20_000.0 ]) config Testbench.Thd
        in
        thd 0.75 > thd 0.25);
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
      ] );
    ( "measure.models",
      [
        Alcotest.test_case "compose and bias" `Quick test_models_compose_and_bias;
        Alcotest.test_case "slew limiter" `Quick test_models_slew_limiter;
        Alcotest.test_case "slew validation" `Quick test_models_slew_validation;
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
      ] );
    ("measure.properties", qcheck_tests);
  ]
