(* Alias frequency at which a tone of frequency [f] appears when
   sampled at [fs] (folded into the first Nyquist zone). *)
let fold_into_nyquist ~fs f =
  let r = Float.rem f fs in
  let r = if r < 0.0 then r +. fs else r in
  if r <= fs /. 2.0 then r else fs -. r

let harmonic_frequencies ~fundamental ~fs ~count =
  if not (fundamental > 0.0 && fundamental < fs /. 2.0) then
    invalid_arg "Distortion.harmonic_frequencies: fundamental out of (0, fs/2)";
  if count < 1 then invalid_arg "Distortion.harmonic_frequencies: count >= 1";
  List.init count (fun i ->
      fold_into_nyquist ~fs (float_of_int (i + 2) *. fundamental))

let thd ?(harmonics = 5) spectrum ~fundamental =
  let fs = spectrum.Spectrum.fs in
  let fund_amp = Spectrum.tone_amplitude spectrum fundamental in
  if fund_amp <= 0.0 then invalid_arg "Distortion.thd: no fundamental present";
  let harmonic_power =
    harmonic_frequencies ~fundamental ~fs ~count:harmonics
    |> List.map (fun f ->
           let a = Spectrum.tone_amplitude spectrum f in
           a *. a)
    |> List.fold_left ( +. ) 0.0
  in
  Float.sqrt harmonic_power /. fund_amp

let sinad_db spectrum ~fundamental =
  let mags = Spectrum.magnitudes spectrum in
  let n = Array.length mags in
  let fund_bin = Spectrum.bin_of_freq spectrum fundamental in
  (* Zero-padding stretches the window mainlobe from +-2 bins (Hann,
     unpadded) to +-2*(n_fft/n_signal); guard generously so leakage
     skirts are not booked as noise, and likewise around DC. *)
  let pad_ratio =
    float_of_int spectrum.Spectrum.n_fft /. float_of_int spectrum.Spectrum.n_signal
  in
  let guard = max 2 (int_of_float (Float.ceil (6.0 *. pad_ratio))) in
  let signal_power = ref 0.0 and rest_power = ref 0.0 in
  for i = 0 to n - 1 do
    let p = mags.(i) *. mags.(i) in
    if abs (i - fund_bin) <= guard then signal_power := !signal_power +. p
    else if i > guard then rest_power := !rest_power +. p
  done;
  if !rest_power = 0.0 then infinity
  else 10.0 *. Float.log10 (!signal_power /. !rest_power)

let enob spectrum ~fundamental =
  (sinad_db spectrum ~fundamental -. 1.7609125905568124) /. 6.020599913279624

type imd3 = {
  f1 : float;
  f2 : float;
  tone_level : float;
  imd_level : float;
  imd_dbc : float;
  iip3_rel : float;
}

let imd3 spectrum ~f1 ~f2 =
  if f1 = f2 then invalid_arg "Distortion.imd3: tones coincide";
  let fs = spectrum.Spectrum.fs in
  let lo1 = (2.0 *. f1) -. f2 and lo2 = (2.0 *. f2) -. f1 in
  List.iter
    (fun f ->
      if not (f > 0.0 && f < fs /. 2.0) then
        invalid_arg "Distortion.imd3: IMD product outside (0, fs/2)")
    [ lo1; lo2 ];
  let a1 = Spectrum.tone_amplitude spectrum f1
  and a2 = Spectrum.tone_amplitude spectrum f2 in
  let tone_level = (a1 +. a2) /. 2.0 in
  if tone_level <= 0.0 then invalid_arg "Distortion.imd3: tones absent";
  let imd_level =
    Float.max
      (Spectrum.tone_amplitude spectrum lo1)
      (Spectrum.tone_amplitude spectrum lo2)
  in
  let imd_dbc =
    if imd_level = 0.0 then -200.0
    else Msoc_util.Numeric.db (imd_level /. tone_level)
  in
  let iip3_rel = tone_level *. Float.pow 10.0 (-.imd_dbc /. 40.0) in
  { f1; f2; tone_level; imd_level; imd_dbc; iip3_rel }
