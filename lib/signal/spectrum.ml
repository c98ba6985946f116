type t = {
  fs : float;
  n_signal : int;
  n_fft : int;
  window : Window.t;
  magnitudes : float array;
}

type scratch = { re : float array; im : float array; mags : float array }

let scratch n_fft =
  if n_fft < 1 then invalid_arg "Spectrum.scratch: length must be positive";
  {
    re = Array.create_float n_fft;
    im = Array.create_float n_fft;
    mags = Array.create_float ((n_fft / 2) + 1);
  }

(* Window [coefs]-many samples of [x] from [offset] straight into the
   bit-reversed slots of the scratch's zero-padded split buffer,
   transform it in place over [plan] and write |X[k]| of the one-sided
   bins 0 .. n_fft/2 into its magnitudes. The entry overwrites every
   slot, so whatever the scratch held before is never read. *)
let one_sided_magnitudes ~plan ~coefs ~offset x { re; im; mags } =
  Fft.execute_windowed plan ~coefs ~offset x ~re ~im;
  for k = 0 to Array.length mags - 1 do
    mags.(k) <- Float.hypot re.(k) im.(k)
  done

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
    one_sided_magnitudes ~plan ~coefs ~offset:0 samples s;
    { fs; n_signal; n_fft; window; magnitudes = s.mags }

let analyzer ?window ?pad_to ~fs n_signal =
  let into = analyzer_into ?window ?pad_to ~fs n_signal in
  let n_fft = fft_length ?pad_to n_signal in
  fun samples -> into (scratch n_fft) samples

let analyze ?window ?pad_to ~fs samples =
  analyzer ?window ?pad_to ~fs (Array.length samples) samples

let bin_of_freq t f =
  if not (f >= 0.0 && f <= t.fs /. 2.0) then invalid_arg "Spectrum.bin_of_freq: out of range";
  let bin = int_of_float (Float.round (f *. float_of_int t.n_fft /. t.fs)) in
  min bin (Array.length t.magnitudes - 1)

let freq_of_bin t i = Fft.bin_frequency ~n:t.n_fft ~fs:t.fs i

let tone_amplitude t f =
  let center = bin_of_freq t f in
  let lo = max 0 (center - 2)
  and hi = min (Array.length t.magnitudes - 1) (center + 2) in
  let peak = ref 0.0 in
  for i = lo to hi do
    if t.magnitudes.(i) > !peak then peak := t.magnitudes.(i)
  done;
  let scale =
    2.0 /. (float_of_int t.n_signal *. Window.coherent_gain t.window)
  in
  !peak *. scale

let tone_level_db t f = Msoc_util.Numeric.db (tone_amplitude t f)

let series_db t =
  Array.mapi
    (fun i m ->
      let level = if m = 0.0 then -160.0 else Msoc_util.Numeric.db m in
      (freq_of_bin t i, level))
    t.magnitudes

let peaks t ~count =
  let n = Array.length t.magnitudes in
  let local_max i =
    let m = t.magnitudes.(i) in
    (i = 0 || t.magnitudes.(i - 1) <= m) && (i = n - 1 || t.magnitudes.(i + 1) < m)
  in
  let candidates =
    List.init n Fun.id
    |> List.filter local_max
    |> List.sort (fun a b -> compare t.magnitudes.(b) t.magnitudes.(a))
  in
  let rec take acc = function
    | [] -> List.rev acc
    | _ when List.length acc >= count -> List.rev acc
    | i :: rest ->
      if List.exists (fun j -> abs (i - j) < 3 (* within 2 bins *)) acc then take acc rest
      else take (i :: acc) rest
  in
  take [] candidates
  |> List.map (fun i -> (freq_of_bin t i, tone_amplitude t (freq_of_bin t i)))

let welch_psd ?(window = Window.Hann) ?(segment = 1024) ?(overlap = 0.5) ~fs x =
  if not (Float.is_finite fs && fs > 0.0) then
    invalid_arg "Spectrum.welch_psd: fs must be finite and positive";
  if not (overlap >= 0.0 && overlap <= 0.9) then
    invalid_arg "Spectrum.welch_psd: overlap outside [0, 0.9]";
  if Array.length x < segment then
    invalid_arg "Spectrum.welch_psd: record shorter than one segment";
  if Fft.next_pow2 segment <> segment then
    invalid_arg "Spectrum.welch_psd: segment must be a power of two";
  let plan = Fft.plan segment and coefs = Window.coefficients window segment in
  (* window power normalization: U = mean of w^2 *)
  let u =
    Array.fold_left (fun a w -> a +. (w *. w)) 0.0 coefs /. float_of_int segment
  in
  let hop = max 1 (int_of_float (float_of_int segment *. (1.0 -. overlap))) in
  let n_segments = 1 + ((Array.length x - segment) / hop) in
  let half = (segment / 2) + 1 in
  let acc = Array.make half 0.0 in
  let buffers = scratch segment in
  for s = 0 to n_segments - 1 do
    one_sided_magnitudes ~plan ~coefs ~offset:(s * hop) x buffers;
    let mags = buffers.mags in
    for k = 0 to half - 1 do
      (* one-sided PSD: double everything but DC and Nyquist *)
      let scale = if k = 0 || k = half - 1 then 1.0 else 2.0 in
      acc.(k) <-
        acc.(k)
        +. (scale *. mags.(k) *. mags.(k)
           /. (fs *. float_of_int segment *. u))
    done
  done;
  Array.init half (fun k ->
      ( Fft.bin_frequency ~n:segment ~fs k,
        acc.(k) /. float_of_int n_segments ))
