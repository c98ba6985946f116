(* Tests for Msoc_signal: FFT correctness (impulse, sine, Parseval,
   linearity, inverse), windows, Butterworth filters and cut-off
   extraction. *)

module Fft = Msoc_signal.Fft
module Window = Msoc_signal.Window
module Tone = Msoc_signal.Tone
module Filter = Msoc_signal.Filter
module Spectrum = Msoc_signal.Spectrum
module Cutoff = Msoc_signal.Cutoff
module Distortion = Msoc_signal.Distortion

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let close = Msoc_util.Numeric.close

(* --- Fft --- *)

let test_next_pow2 () =
  checki "0 -> 1" 1 (Fft.next_pow2 0);
  checki "1 -> 1" 1 (Fft.next_pow2 1);
  checki "5 -> 8" 8 (Fft.next_pow2 5);
  checki "4551 -> 8192" 8192 (Fft.next_pow2 4551);
  checki "1024 -> 1024" 1024 (Fft.next_pow2 1024)

(* 2^61 is the largest power of two an int holds: above it the
   doubling used to wrap to 0 and spin. *)
let test_next_pow2_ceiling () =
  let top = (max_int lsr 1) + 1 in
  checki "2^61 -> 2^61" top (Fft.next_pow2 top);
  List.iter
    (fun n ->
      match Fft.next_pow2 n with
      | exception Invalid_argument _ -> ()
      | p -> Alcotest.failf "next_pow2 %d returned %d" n p)
    [ top + 1; max_int ]

(* The transform of a boxed vector through the one entry: each part's
   real transform (a rectangular window, no padding), combined by
   linearity; the inverse by conjugation, scaled by 1/n. *)
let real_transform x =
  let n = Array.length x in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  Fft.execute_windowed (Fft.plan n) ~coefs:(Array.make n 1.0) x ~re ~im;
  (re, im)

let forward (x : Complex.t array) =
  let ar, ai = real_transform (Array.map (fun c -> c.Complex.re) x)
  and br, bi = real_transform (Array.map (fun c -> c.Complex.im) x) in
  Array.init (Array.length x) (fun k -> { Complex.re = ar.(k) -. bi.(k); im = ai.(k) +. br.(k) })

let inverse (x : Complex.t array) =
  let n = float_of_int (Array.length x) in
  Array.map
    (fun c -> { Complex.re = c.Complex.re /. n; im = -.c.Complex.im /. n })
    (forward (Array.map Complex.conj x))

let test_fft_rejects_non_pow2 () =
  match Fft.plan 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length 5 accepted"

let test_fft_impulse () =
  (* delta -> flat spectrum of ones *)
  let x = Array.make 16 Complex.zero in
  x.(0) <- Complex.one;
  let spectrum = forward x in
  Array.iter
    (fun c ->
      checkb "flat 1" true (close ~abs_tol:1e-12 (Complex.norm c) 1.0))
    spectrum

let test_fft_dc () =
  let x = Array.make 8 Complex.one in
  let s = forward x in
  checkb "bin 0 = N" true (close (Complex.norm s.(0)) 8.0);
  for i = 1 to 7 do
    checkb "other bins 0" true (Complex.norm s.(i) < 1e-10)
  done

let test_fft_sine_bin () =
  (* coherent sine lands in exactly one (mirrored) bin with height N/2 *)
  let n = 256 in
  let k = 13 in
  let x =
    Array.init n (fun i ->
        {
          Complex.re = Float.sin (2.0 *. Float.pi *. float_of_int (k * i) /. float_of_int n);
          im = 0.0;
        })
  in
  let s = forward x in
  checkb "peak at k" true (close ~rel:1e-9 (Complex.norm s.(k)) (float_of_int n /. 2.0));
  checkb "mirror at n-k" true
    (close ~rel:1e-9 (Complex.norm s.(n - k)) (float_of_int n /. 2.0));
  for i = 0 to n - 1 do
    if i <> k && i <> n - k then
      checkb "elsewhere zero" true (Complex.norm s.(i) < 1e-8)
  done

let test_fft_inverse_roundtrip () =
  let rng = Msoc_util.Rng.create ~seed:11 in
  let x =
    Array.init 64 (fun _ ->
        { Complex.re = Msoc_util.Rng.float_in rng ~lo:(-1.0) ~hi:1.0;
          im = Msoc_util.Rng.float_in rng ~lo:(-1.0) ~hi:1.0 })
  in
  let back = inverse (forward x) in
  Array.iteri
    (fun i c ->
      checkb "re restored" true (close ~abs_tol:1e-9 c.Complex.re x.(i).Complex.re);
      checkb "im restored" true (close ~abs_tol:1e-9 c.Complex.im x.(i).Complex.im))
    back

let test_fft_parseval () =
  let rng = Msoc_util.Rng.create ~seed:12 in
  let n = 128 in
  let x =
    Array.init n (fun _ ->
        { Complex.re = Msoc_util.Rng.float_in rng ~lo:(-1.0) ~hi:1.0; im = 0.0 })
  in
  let time_energy =
    Array.fold_left (fun acc c -> acc +. Complex.norm2 c) 0.0 x
  in
  let freq_energy =
    Array.fold_left (fun acc c -> acc +. Complex.norm2 c) 0.0 (forward x)
    /. float_of_int n
  in
  checkb "Parseval" true (close ~rel:1e-9 time_energy freq_energy)

let test_fft_linearity () =
  let rng = Msoc_util.Rng.create ~seed:13 in
  let mk () =
    Array.init 32 (fun _ ->
        { Complex.re = Msoc_util.Rng.float_in rng ~lo:(-1.0) ~hi:1.0; im = 0.0 })
  in
  let a = mk () and b = mk () in
  let sum = Array.init 32 (fun i -> Complex.add a.(i) b.(i)) in
  let fa = forward a and fb = forward b and fsum = forward sum in
  Array.iteri
    (fun i c ->
      checkb "additive" true
        (close ~abs_tol:1e-9 (Complex.norm (Complex.sub c (Complex.add fa.(i) fb.(i)))) 0.0))
    fsum

(* --- Window --- *)

let test_window_bounds () =
  List.iter
    (fun w ->
      let c = Window.coefficients w 64 in
      Array.iter (fun v -> checkb "in [0,1.001]" true (v >= -1e-9 && v <= 1.001)) c)
    [ Window.Rectangular; Window.Hann; Window.Hamming; Window.Blackman ]

let test_window_hann_shape () =
  let c = Window.coefficients Window.Hann 65 in
  checkb "ends at 0" true (close ~abs_tol:1e-12 c.(0) 0.0);
  checkb "peak 1 at center" true (close c.(32) 1.0);
  checkb "symmetric" true (close c.(10) c.(54))

let test_window_mean_matches_coherent_gain () =
  List.iter
    (fun w ->
      let c = Window.coefficients w 4096 in
      let mean = Array.fold_left ( +. ) 0.0 c /. 4096.0 in
      checkb "mean ~ coherent gain" true
        (Float.abs (mean -. Window.coherent_gain w) < 0.01))
    [ Window.Rectangular; Window.Hann; Window.Hamming; Window.Blackman ]

(* --- Tone --- *)

let test_tone_sample () =
  let t = Tone.tone ~amplitude:2.0 1000.0 in
  let s = Tone.sample ~tones:[ t ] ~fs:8000.0 ~n:8 in
  checkb "starts at 0 (sine)" true (close ~abs_tol:1e-12 s.(0) 0.0);
  (* sample 2 is sin(2π·1000·2/8000)·2 = 2·sin(π/2) = 2 *)
  checkb "quarter period peak" true (close s.(2) 2.0)

let test_tone_coherent () =
  let f = Tone.coherent_freq ~fs:1.7e6 ~n:4551 60_000.0 in
  (* integer number of cycles in the record *)
  let cycles = f *. 4551.0 /. 1.7e6 in
  checkb "integral cycles" true (close ~abs_tol:1e-6 cycles (Float.round cycles));
  checkb "close to request" true (Float.abs (f -. 60_000.0) < 1.7e6 /. 4551.0)

let test_tone_crest_factor () =
  let t = Tone.tone 100.0 in
  let s = Tone.sample ~tones:[ t ] ~fs:100_000.0 ~n:10_000 in
  let peak = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 s in
  let rms = Float.sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 s /. float_of_int (Array.length s)) in
  checkb "sine crest ~ sqrt(2)" true (Float.abs ((peak /. rms) -. Float.sqrt 2.0) < 0.01)

let test_tone_validation () =
  List.iter
    (fun (amplitude, f) ->
      match Tone.tone ~amplitude f with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "tone %g Hz at amplitude %g accepted" f amplitude)
    [ (1.0, 0.0); (1.0, -5.0); (1.0, Float.nan); (-0.1, 100.0); (Float.nan, 100.0) ];
  let t = Tone.tone ~amplitude:0.0 100.0 in
  checkb "zero amplitude accepted" true (t.Tone.amplitude = 0.0)

(* --- Filter --- *)

let test_butterworth_minus3db_at_fc () =
  List.iter
    (fun order ->
      let f = Filter.butterworth_lowpass ~order ~fc:60_000.0 ~fs:1.7e6 in
      let g = Fixtures.magnitude_response f ~fs:1.7e6 60_000.0 in
      checkb
        (Printf.sprintf "order %d: |H(fc)| = -3dB" order)
        true
        (close ~rel:1e-6 g (1.0 /. Float.sqrt 2.0)))
    [ 1; 2; 3; 4; 5; 8 ]

let test_butterworth_dc_gain () =
  let f = Filter.butterworth_lowpass ~order:4 ~fc:10_000.0 ~fs:1.0e6 in
  checkb "unit DC gain" true
    (close ~rel:1e-6 (Fixtures.magnitude_response f ~fs:1.0e6 1.0) 1.0)

let test_butterworth_monotone () =
  let f = Filter.butterworth_lowpass ~order:3 ~fc:50_000.0 ~fs:1.7e6 in
  let freqs = List.init 40 (fun i -> 1_000.0 +. (float_of_int i *. 20_000.0)) in
  let gains = List.map (Fixtures.magnitude_response f ~fs:1.7e6) freqs in
  let rec decreasing = function
    | a :: b :: rest -> a >= b -. 1e-12 && decreasing (b :: rest)
    | [ _ ] | [] -> true
  in
  checkb "monotone decreasing" true (decreasing gains)

let test_butterworth_rolloff_slope () =
  (* order n rolls off ~ 6n dB/octave deep in the stop band *)
  let fs = 10.0e6 in
  let f = Filter.butterworth_lowpass ~order:2 ~fc:10_000.0 ~fs in
  let g1 = Fixtures.magnitude_response f ~fs 160_000.0 in
  let g2 = Fixtures.magnitude_response f ~fs 320_000.0 in
  let slope_db = Msoc_util.Numeric.db g2 -. Msoc_util.Numeric.db g1 in
  checkb "≈ -12 dB/octave" true (Float.abs (slope_db +. 12.0) < 1.0)

let test_filter_process_attenuates () =
  let fs = 1.7e6 in
  let filter = Filter.butterworth_lowpass ~order:2 ~fc:20_000.0 ~fs in
  let tone_hi = Tone.tone (Tone.coherent_freq ~fs ~n:4096 200_000.0) in
  let input = Tone.sample ~tones:[ tone_hi ] ~fs ~n:4096 in
  let output = Fixtures.on_copy (Filter.process_in_place filter) input in
  let rms a =
    Float.sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a /. 4096.0)
  in
  checkb "stop-band tone crushed" true (rms output < 0.05 *. rms input)

let test_filter_cutoff_bisection () =
  let f = Filter.butterworth_lowpass ~order:2 ~fc:61_000.0 ~fs:1.7e6 in
  let found = Fixtures.cutoff_minus3db f ~fs:1.7e6 in
  checkb "bisection finds design fc" true (Float.abs (found -. 61_000.0) < 50.0)

let test_filter_validation () =
  (match Filter.butterworth_lowpass ~order:0 ~fc:1000.0 ~fs:10_000.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "order 0 accepted");
  (match Filter.butterworth_lowpass ~order:2 ~fc:6_000.0 ~fs:10_000.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fc above Nyquist accepted");
  List.iter
    (fun (fc, fs) ->
      match Filter.butterworth_lowpass ~order:2 ~fc ~fs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "fc %g at fs %g accepted" fc fs)
    [ (Float.nan, 10_000.0); (1000.0, Float.nan) ]

(* --- Spectrum --- *)

let test_spectrum_tone_amplitude () =
  let fs = 1.0e6 in
  let n = 4096 in
  let f = Tone.coherent_freq ~fs ~n 50_000.0 in
  let s =
    Spectrum.analyze ~fs (Tone.sample ~tones:[ Tone.tone ~amplitude:0.8 f ] ~fs ~n)
  in
  checkb "amplitude recovered" true
    (Float.abs (Spectrum.tone_amplitude s f -. 0.8) < 0.02)

let test_spectrum_multi_tone_separation () =
  let fs = 1.0e6 in
  let n = 8192 in
  let f1 = Tone.coherent_freq ~fs ~n 20_000.0
  and f2 = Tone.coherent_freq ~fs ~n 90_000.0 in
  let tones = [ Tone.tone ~amplitude:1.0 f1; Tone.tone ~amplitude:0.25 f2 ] in
  let s = Spectrum.analyze ~fs (Tone.sample ~tones ~fs ~n) in
  checkb "tone 1" true (Float.abs (Spectrum.tone_amplitude s f1 -. 1.0) < 0.03);
  checkb "tone 2" true (Float.abs (Spectrum.tone_amplitude s f2 -. 0.25) < 0.03)

let test_spectrum_padding () =
  let s = Spectrum.analyze ~fs:1.0 [| 1.0; 2.0; 3.0 |] in
  checki "padded to 4" 4 s.Spectrum.n_fft;
  checki "bins 0 .. n_fft/2" 3 (Array.length (Spectrum.magnitudes s));
  List.iter
    (fun pad_to ->
      match Spectrum.analyze ~pad_to ~fs:1.0 [| 1.0; 2.0; 3.0 |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "pad_to %d accepted" pad_to)
    [ 2; 6 ]

(* Every frequency guard fails on NaN, every entry that builds a
   spectrum refuses an [fs] that is not finite and positive,
   and the analyzer checks its pad when it is built, computing no next
   power of two for a given one. *)
let test_spectrum_validation () =
  let fs = 1.0e6 and n = 256 in
  let f = Tone.coherent_freq ~fs ~n 50_000.0 in
  let x = Tone.sample ~tones:[ Tone.tone f ] ~fs ~n in
  let s = Spectrum.analyze ~fs x in
  let rejects what thunk =
    match thunk () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "bin_of_freq nan" (fun () -> Spectrum.bin_of_freq s Float.nan);
  rejects "tone_amplitude nan" (fun () -> Spectrum.tone_amplitude s Float.nan);
  rejects "thd ~fundamental:nan" (fun () -> Distortion.thd s ~fundamental:Float.nan);
  rejects "imd3 ~f1:nan" (fun () -> Distortion.imd3 s ~f1:Float.nan ~f2:f);
  rejects "imd3 ~f2:nan" (fun () -> Distortion.imd3 s ~f1:f ~f2:Float.nan);
  List.iter
    (fun bad ->
      rejects (Printf.sprintf "analyzer ~fs:%g" bad) (fun () ->
          Spectrum.analyzer ~fs:bad n);
      rejects (Printf.sprintf "analyze ~fs:%g" bad) (fun () ->
          Spectrum.analyze ~fs:bad x))
    [ Float.nan; 0.0; -1.0; Float.infinity ];
  rejects "pad_to 6, at build" (fun () -> Spectrum.analyzer ~pad_to:6 ~fs 3);
  let huge = (max_int lsr 1) + 2 in
  rejects "pad_to below a huge record" (fun () -> Spectrum.analyzer ~pad_to:8 ~fs huge);
  rejects "huge record, default pad" (fun () -> Spectrum.analyzer ~fs huge)

(* --- Cutoff --- *)

(* |H(f)| of the unit-gain Butterworth model the fit assumes *)
let model_gain ~order ~fc f =
  1.0 /. Float.sqrt (1.0 +. Float.pow (f /. fc) (2.0 *. float_of_int order))

let test_cutoff_fit_exact_model () =
  (* Gains generated from the model itself must be recovered. *)
  let fc = 58_000.0 in
  let gains =
    List.map
      (fun f -> (f, model_gain ~order:2 ~fc f))
      [ 20_000.0; 60_000.0; 150_000.0 ]
  in
  let fit = Cutoff.fit ~order:2 gains in
  checkb "recovers fc" true (Float.abs (fit -. fc) /. fc < 0.005)

let test_cutoff_fit_with_gain_offset () =
  (* An overall gain factor (unnormalized measurements) must not bias
     the estimate. *)
  let fc = 61_000.0 in
  let gains =
    List.map
      (fun f -> (f, 3.7 *. model_gain ~order:2 ~fc f))
      [ 10_000.0; 50_000.0; 100_000.0; 200_000.0 ]
  in
  checkb "gain factor fitted out" true
    (Float.abs (Cutoff.fit ~order:2 gains -. fc) /. fc < 0.01)

let test_cutoff_from_filter_measurement () =
  (* End-to-end: butterworth filter, multi-tone, spectra, fit. *)
  let fs = 1.7e6 in
  let n = 4551 in
  let pad = 8192 in
  let filter = Filter.butterworth_lowpass ~order:2 ~fc:61_000.0 ~fs in
  let tones =
    List.map (Tone.coherent_freq ~fs ~n:pad) [ 20_000.0; 60_000.0; 150_000.0 ]
  in
  let input = Tone.sample ~tones:(List.map (fun hz -> Tone.tone ~amplitude:0.6 hz) tones) ~fs ~n in
  let output = Fixtures.on_copy (Filter.process_in_place filter) input in
  let s_in = Spectrum.analyze ~fs ~pad_to:pad input in
  let s_out = Spectrum.analyze ~fs ~pad_to:pad output in
  let fit = Cutoff.from_spectra ~order:2 ~input:s_in ~output:s_out tones in
  checkb
    (Printf.sprintf "measured fc %.0f within 5%% of 61 kHz" fit)
    true
    (Float.abs (fit -. 61_000.0) /. 61_000.0 < 0.05)

let test_cutoff_fit_validation () =
  (match Cutoff.fit [ (100.0, 1.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single tone accepted");
  (match Cutoff.fit [ (100.0, 1.0); (200.0, -0.5) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative gain accepted");
  List.iter
    (fun gains ->
      match Cutoff.fit gains with
      | exception Invalid_argument _ -> ()
      | fc -> Alcotest.failf "NaN data accepted (fc %g)" fc)
    [ [ (100.0, 1.0); (200.0, Float.nan) ]; [ (Float.nan, 1.0); (200.0, 0.5) ] ]

let test_from_spectra_rejects_aliased_tone () =
  (* A tone at or above Nyquist has aliased: its measured gain would
     pull the fit to a wrong cut-off, so the reader must refuse it. *)
  let fs = 1.0e6 in
  let silence = Array.make 256 0.0 in
  let s = Spectrum.analyze ~fs ~pad_to:256 silence in
  let expect_reject tones =
    match Cutoff.from_spectra ~order:2 ~input:s ~output:s tones with
    | exception Invalid_argument m ->
      checkb "mentions Nyquist" true
        (String.length m > 0
        && (let has sub =
              let n = String.length m and k = String.length sub in
              let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
              go 0
            in
            has "Nyquist"))
    | _ -> Alcotest.failf "aliased tone accepted"
  in
  expect_reject [ 100_000.0; 500_000.0 ] (* exactly Nyquist *);
  expect_reject [ 100_000.0; 620_000.0 ] (* above Nyquist *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"fft-ifft roundtrip" ~count:50
      (pair (int_range 0 1000) (int_range 2 7))
      (fun (seed, logn) ->
        let n = 1 lsl logn in
        let rng = Msoc_util.Rng.create ~seed in
        let x =
          Array.init n (fun _ ->
              { Complex.re = Msoc_util.Rng.float_in rng ~lo:(-1.0) ~hi:1.0; im = 0.0 })
        in
        let back = inverse (forward x) in
        Array.for_all2
          (fun a b -> close ~abs_tol:1e-8 a.Complex.re b.Complex.re)
          back x);
    Test.make ~name:"butterworth |H| <= 1 everywhere" ~count:100
      (pair (int_range 1 8) (float_range 0.01 0.4))
      (fun (order, fc_ratio) ->
        let fs = 1.0e6 in
        let f = Filter.butterworth_lowpass ~order ~fc:(fc_ratio *. fs) ~fs in
        List.for_all
          (fun i ->
            Fixtures.magnitude_response f ~fs (float_of_int i *. fs /. 64.0) <= 1.0 +. 1e-9)
          (List.init 31 (fun i -> i + 1)));
    Test.make ~name:"model_gain decreasing in f" ~count:100
      (pair (float_range 1e3 1e6) (int_range 1 4))
      (fun (fc, order) ->
        model_gain ~order ~fc (fc /. 2.0) > model_gain ~order ~fc (fc *. 2.0));
    Test.make ~name:"cutoff fit recovers fc on random tone grids" ~count:100
      (quad (int_range 1 4) (float_range 5e3 2e5) (int_range 0 10_000)
         (pair (int_range 3 8) (float_range 0.5 5.0)))
      (fun (order, fc, seed, (n_tones, g0)) ->
        (* random tone placements spanning both sides of a random fc,
           with a random overall gain the fit must factor out *)
        let rng = Msoc_util.Rng.create ~seed in
        let tones =
          List.init n_tones (fun i ->
              let lo = fc /. 6.0 and hi = fc *. 6.0 in
              let nominal =
                lo *. ((hi /. lo) ** (float_of_int i /. float_of_int (n_tones - 1)))
              in
              nominal *. (1.0 +. (0.08 *. Msoc_util.Rng.float_in rng ~lo:(-1.0) ~hi:1.0)))
        in
        let gains =
          List.map (fun f -> (f, g0 *. model_gain ~order ~fc f)) tones
        in
        let fit = Cutoff.fit ~order gains in
        Float.abs (fit -. fc) /. fc < 0.02);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "signal.fft",
      [
        Alcotest.test_case "next_pow2" `Quick test_next_pow2;
        Alcotest.test_case "next_pow2 ceiling" `Quick test_next_pow2_ceiling;
        Alcotest.test_case "rejects non-pow2" `Quick test_fft_rejects_non_pow2;
        Alcotest.test_case "impulse" `Quick test_fft_impulse;
        Alcotest.test_case "dc" `Quick test_fft_dc;
        Alcotest.test_case "sine bin" `Quick test_fft_sine_bin;
        Alcotest.test_case "inverse roundtrip" `Quick test_fft_inverse_roundtrip;
        Alcotest.test_case "Parseval" `Quick test_fft_parseval;
        Alcotest.test_case "linearity" `Quick test_fft_linearity;
      ] );
    ( "signal.window",
      [
        Alcotest.test_case "bounds" `Quick test_window_bounds;
        Alcotest.test_case "hann shape" `Quick test_window_hann_shape;
        Alcotest.test_case "coherent gain" `Quick test_window_mean_matches_coherent_gain;
      ] );
    ( "signal.tone",
      [
        Alcotest.test_case "sample" `Quick test_tone_sample;
        Alcotest.test_case "coherent freq" `Quick test_tone_coherent;
        Alcotest.test_case "crest factor" `Quick test_tone_crest_factor;
        Alcotest.test_case "validation" `Quick test_tone_validation;
      ] );
    ( "signal.filter",
      [
        Alcotest.test_case "-3dB at fc" `Quick test_butterworth_minus3db_at_fc;
        Alcotest.test_case "unit DC gain" `Quick test_butterworth_dc_gain;
        Alcotest.test_case "monotone" `Quick test_butterworth_monotone;
        Alcotest.test_case "roll-off slope" `Quick test_butterworth_rolloff_slope;
        Alcotest.test_case "process attenuates" `Quick test_filter_process_attenuates;
        Alcotest.test_case "cutoff bisection" `Quick test_filter_cutoff_bisection;
        Alcotest.test_case "validation" `Quick test_filter_validation;
      ] );
    ( "signal.spectrum",
      [
        Alcotest.test_case "tone amplitude" `Quick test_spectrum_tone_amplitude;
        Alcotest.test_case "multi-tone separation" `Quick test_spectrum_multi_tone_separation;
        Alcotest.test_case "padding" `Quick test_spectrum_padding;
        Alcotest.test_case "validation" `Quick test_spectrum_validation;
      ] );
    ( "signal.cutoff",
      [
        Alcotest.test_case "fit exact model" `Quick test_cutoff_fit_exact_model;
        Alcotest.test_case "fit with gain offset" `Quick test_cutoff_fit_with_gain_offset;
        Alcotest.test_case "from filter measurement" `Quick test_cutoff_from_filter_measurement;
        Alcotest.test_case "fit validation" `Quick test_cutoff_fit_validation;
        Alcotest.test_case "rejects aliased tones" `Quick test_from_spectra_rejects_aliased_tone;
      ] );
    ("signal.properties", qcheck_tests);
  ]
