let ramp_samples ~bits ~hits_per_code =
  if bits < 2 || bits > 16 then invalid_arg "Bist.ramp_samples: bits out of 2..16";
  if hits_per_code < 1 then invalid_arg "Bist.ramp_samples: hits_per_code >= 1";
  (1 lsl bits) * hits_per_code

let self_test_cycles ~bits ~tam_width ?(hits_per_code = 4) () =
  if tam_width < 1 then invalid_arg "Bist.self_test_cycles: tam_width >= 1";
  ramp_samples ~bits ~hits_per_code * Msoc_util.Numeric.ceil_div bits tam_width

type linearity = {
  max_code_error : int;
  mean_abs_error : float;
  monotonic : bool;
}

let loopback_linearity wrapper =
  let adc = Wrapper.adc wrapper and dac = Wrapper.dac wrapper in
  let n = 1 lsl Wrapper.bits wrapper in
  let worst = ref 0 and total = ref 0 and monotonic = ref true in
  let previous = ref (-1) in
  for code = 0 to n - 1 do
    let back = Adc.convert adc (Dac.convert dac code) in
    let err = abs (back - code) in
    if err > !worst then worst := err;
    total := !total + err;
    if back < !previous then monotonic := false;
    previous := back
  done;
  {
    max_code_error = !worst;
    mean_abs_error = float_of_int !total /. float_of_int n;
    monotonic = !monotonic;
  }

let passes linearity = linearity.max_code_error <= 1 && linearity.monotonic

type histogram_result = {
  samples : int;
  inl_lsb : float;
  dnl_lsb : float;
  missing_codes : int;
}

(* Transition level of code c from the cumulative histogram: with a
   full-range sine of amplitude A around the mid-scale C, the fraction
   of samples below the transition T_c maps through the arcsine law as
   T_c = C - A*cos(pi * CH_c / N). *)
let sine_histogram ?(samples = 131_072) ?(overdrive = 1.05) adc =
  if samples < 1024 then invalid_arg "Bist.sine_histogram: need >= 1024 samples";
  if overdrive <= 1.0 then invalid_arg "Bist.sine_histogram: overdrive must exceed 1";
  let bits = Adc.bits adc in
  let n_codes = 1 lsl bits in
  let range = Quantize.default_range in
  let center = (range.Quantize.vmin +. range.Quantize.vmax) /. 2.0 in
  let amplitude = overdrive *. (range.Quantize.vmax -. range.Quantize.vmin) /. 2.0 in
  (* Irrational frequency ratio: phases cover the circle uniformly. *)
  let golden = 0.6180339887498949 in
  let histogram = Array.make n_codes 0 in
  for i = 0 to samples - 1 do
    let phase = 2.0 *. Float.pi *. golden *. float_of_int i in
    let v = center +. (amplitude *. Float.sin phase) in
    let code = Adc.convert adc v in
    histogram.(code) <- histogram.(code) + 1
  done;
  let missing_codes =
    Array.fold_left (fun acc h -> if h = 0 then acc + 1 else acc) 0 histogram
  in
  (* Transition levels T_1 .. T_{n-1} (T_c = threshold below code c). *)
  let cumulative = Array.make (n_codes + 1) 0 in
  for c = 0 to n_codes - 1 do
    cumulative.(c + 1) <- cumulative.(c) + histogram.(c)
  done;
  let transition c =
    center
    -. amplitude
       *. Float.cos (Float.pi *. float_of_int cumulative.(c) /. float_of_int samples)
  in
  let transitions = Array.init (n_codes - 1) (fun i -> transition (i + 1)) in
  (* Best-fit line through the measured transitions removes gain and
     offset; residuals are the INL. *)
  let n = float_of_int (Array.length transitions) in
  let xs = Array.init (Array.length transitions) float_of_int in
  let sum f = Array.fold_left ( +. ) 0.0 (Array.mapi f transitions) in
  let sx = sum (fun i _ -> xs.(i)) and sy = sum (fun _ t -> t) in
  let sxx = sum (fun i _ -> xs.(i) *. xs.(i)) and sxy = sum (fun i t -> xs.(i) *. t) in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let intercept = (sy -. (slope *. sx)) /. n in
  let lsb = slope in
  let inl_lsb =
    Array.mapi
      (fun i t -> Float.abs ((t -. (intercept +. (slope *. xs.(i)))) /. lsb))
      transitions
    |> Array.fold_left Float.max 0.0
  in
  let dnl_lsb =
    let worst = ref 0.0 in
    for i = 0 to Array.length transitions - 2 do
      let w = (transitions.(i + 1) -. transitions.(i)) /. lsb in
      worst := Float.max !worst (Float.abs (w -. 1.0))
    done;
    !worst
  in
  { samples; inl_lsb; dnl_lsb; missing_codes }
