(* [mags] stays empty until {!magnitudes} first fills it: a readout of
   a few bins never needs it. *)
type scratch = { re : float array; im : float array; mutable mags : float array }

type t = {
  fs : float;
  n_signal : int;
  n_fft : int;
  window : Window.t;
  bins : scratch;
}

let scratch n_fft =
  if n_fft < 1 then invalid_arg "Spectrum.scratch: length must be positive";
  {
    re = Array.create_float n_fft;
    im = Array.create_float n_fft;
    mags = [||];
  }

let fft_length ?pad_to n_signal =
  match pad_to with Some n -> n | None -> Fft.next_pow2 n_signal

(* The window's coefficients and the FFT plan are built once per
   partial application, as [Quantize.encode ~bits ~range] computes its
   step: every record of a program's length reuses them. *)
let analyzer_into ?(window = Window.Hann) ?pad_to ~fs n_signal =
  if not (Float.is_finite fs && fs > 0.0) then
    invalid_arg "Spectrum.analyze: fs must be finite and positive";
  if n_signal <= 0 then invalid_arg "Spectrum.analyze: empty record";
  let n_fft = fft_length ?pad_to n_signal in
  if n_fft < n_signal then invalid_arg "Spectrum.analyze: pad_to smaller than the record";
  let plan = Fft.plan n_fft in
  let coefs = Window.coefficients window n_signal in
  fun s samples ->
    if Array.length samples <> n_signal then
      invalid_arg "Spectrum.analyze: record length differs from the analyzer's";
    if Array.length s.re <> n_fft then
      invalid_arg "Spectrum.analyze: scratch built for another FFT length";
    Fft.execute_windowed plan ~coefs samples ~re:s.re ~im:s.im;
    { fs; n_signal; n_fft; window; bins = s }

let analyzer ?window ?pad_to ~fs n_signal =
  let into = analyzer_into ?window ?pad_to ~fs n_signal in
  let n_fft = fft_length ?pad_to n_signal in
  fun samples -> into (scratch n_fft) samples

let analyze ?window ?pad_to ~fs samples =
  analyzer ?window ?pad_to ~fs (Array.length samples) samples

(* |X[k]| of one-sided bin [k], from the transform the scratch holds:
   every readout takes a bin's modulus here, when it reads the bin. *)
let[@inline] magnitude { bins = { re; im; _ }; _ } k = Float.hypot re.(k) im.(k)

let last_bin t = t.n_fft / 2

let magnitudes t =
  if Array.length t.bins.mags = 0 then t.bins.mags <- Array.create_float (last_bin t + 1);
  let mags = t.bins.mags in
  for k = 0 to last_bin t do
    mags.(k) <- magnitude t k
  done;
  mags

let bin_of_freq t f =
  if not (f >= 0.0 && f <= t.fs /. 2.0) then invalid_arg "Spectrum.bin_of_freq: out of range";
  let bin = int_of_float (Float.round (f *. float_of_int t.n_fft /. t.fs)) in
  min bin (last_bin t)

let tone_amplitude t f =
  let center = bin_of_freq t f in
  let lo = max 0 (center - 2) and hi = min (last_bin t) (center + 2) in
  let peak = ref 0.0 in
  for i = lo to hi do
    let m = magnitude t i in
    if m > !peak then peak := m
  done;
  let scale =
    2.0 /. (float_of_int t.n_signal *. Window.coherent_gain t.window)
  in
  !peak *. scale

let tone_level_db t f = Msoc_util.Numeric.db (tone_amplitude t f)
