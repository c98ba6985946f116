type t = float array -> float array

let identity samples = samples

let compose models samples =
  List.fold_left (fun acc model -> model acc) samples models

let biased ~bias inner samples =
  Array.map (fun v -> v +. bias) (inner (Array.map (fun v -> v -. bias) samples))

let gain g samples = Array.map (fun v -> g *. v) samples

let dc_offset offset samples = Array.map (fun v -> v +. offset) samples

let polynomial ~a1 ~a2 ~a3 samples =
  Array.map (fun x -> (a1 *. x) +. (a2 *. x *. x) +. (a3 *. x *. x *. x)) samples

let lowpass ~order ~fc ~fs =
  let filter = Msoc_signal.Filter.butterworth_lowpass ~order ~fc ~fs in
  fun samples -> Msoc_signal.Filter.process filter samples

let slew_limited ~max_slew_v_per_s ~fs samples =
  if not (max_slew_v_per_s > 0.0) then
    invalid_arg "Analog_models.slew_limited: slew must be positive";
  if Float.is_nan fs then invalid_arg "Analog_models.slew_limited: fs is NaN";
  let step = max_slew_v_per_s /. fs in
  let out = Array.make (Array.length samples) 0.0 in
  let state = ref (if Array.length samples > 0 then samples.(0) else 0.0) in
  Array.iteri
    (fun i target ->
      let delta = Msoc_util.Numeric.clamp ~lo:(-.step) ~hi:step (target -. !state) in
      state := !state +. delta;
      out.(i) <- !state)
    samples;
  out

let gaussian_draws ~seed n =
  let rng = Msoc_util.Rng.create ~seed in
  let g = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
    let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
    g.(i) <- Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
  done;
  g

let add_draws ~sigma draws samples =
  let n = Array.length samples in
  if n > Array.length draws then
    invalid_arg "Analog_models.add_draws: record longer than the draws";
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    out.(i) <- samples.(i) +. (sigma *. draws.(i))
  done;
  out

let additive_noise ?(seed = 42) ~sigma samples =
  add_draws ~sigma (gaussian_draws ~seed (Array.length samples)) samples

let downconverter ~lo_hz ~fs ~if_lowpass_fc =
  let post = lowpass ~order:3 ~fc:if_lowpass_fc ~fs in
  fun samples ->
    let mixed =
      Array.mapi
        (fun i v ->
          v *. Float.cos (2.0 *. Float.pi *. lo_hz *. float_of_int i /. fs))
        samples
    in
    post mixed
