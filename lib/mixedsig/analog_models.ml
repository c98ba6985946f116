type t = float array -> float array

type kernel = float array -> unit

let remove_bias_into ~bias samples ~into:out =
  if Array.length out <> Array.length samples then
    invalid_arg "Analog_models.remove_bias_into: output length differs from the record's";
  for i = 0 to Array.length samples - 1 do
    out.(i) <- samples.(i) -. bias
  done

let dc_offset_in_place offset x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) +. offset
  done

let gain_in_place g x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- g *. x.(i)
  done

let polynomial_in_place ~a1 ~a2 ~a3 x =
  for i = 0 to Array.length x - 1 do
    let v = x.(i) in
    x.(i) <- (a1 *. v) +. (a2 *. v *. v) +. (a3 *. v *. v *. v)
  done

let lowpass_in_place ~order ~fc ~fs =
  Msoc_signal.Filter.process_in_place (Msoc_signal.Filter.butterworth_lowpass ~order ~fc ~fs)

let slew_limited_in_place ~max_slew_v_per_s ~fs x =
  if not (max_slew_v_per_s > 0.0) then
    invalid_arg "Analog_models.slew_limited: slew must be positive";
  if Float.is_nan fs then invalid_arg "Analog_models.slew_limited: fs is NaN";
  let step = max_slew_v_per_s /. fs in
  let state = ref (if Array.length x > 0 then x.(0) else 0.0) in
  for i = 0 to Array.length x - 1 do
    (* the clamp to [-step, step], spelled out: the stdlib's
       [min] and [max] inline, a call into another module would box
       each sample. *)
    let delta = Float.min step (Float.max (-.step) (x.(i) -. !state)) in
    state := !state +. delta;
    x.(i) <- !state
  done

let gaussian_draws_into ~seed draws =
  Msoc_util.Rng.fill_gaussian (Msoc_util.Rng.create ~seed) draws

let gaussian_draws ~seed n =
  let g = Array.create_float n in
  gaussian_draws_into ~seed g;
  g

let add_draws_in_place ~sigma draws x =
  let n = Array.length x in
  if n > Array.length draws then
    invalid_arg "Analog_models.add_draws: record longer than the draws";
  for i = 0 to n - 1 do
    x.(i) <- x.(i) +. (sigma *. draws.(i))
  done

let additive_noise_in_place ?(seed = 42) ~sigma x =
  add_draws_in_place ~sigma (gaussian_draws ~seed (Array.length x)) x
