module Models = Msoc_mixedsig.Analog_models

type stage =
  | Gain of float
  | Dc_offset of float
  | Lowpass of { order : int; fc : float }
  | Polynomial of { a1 : float; a2 : float; a3 : float }
  | Slew_limited of { max_slew_v_per_s : float }
  | Noise of { sigma : float; seed : int }

type t = { stages : stage list; fs : float; bias : float }

let make ?(bias = 2.0) ~fs stages =
  if not (Float.is_finite fs && fs > 0.0) then
    invalid_arg "Dut.make: fs must be positive and finite";
  if not (Float.is_finite bias) then invalid_arg "Dut.make: bias must be finite";
  { stages; fs; bias }

(* Each stage as its in-place kernel; [noise ~seed ~sigma] builds the
   noise stage's. *)
let kernel ~fs ~noise = function
  | Gain g -> Models.gain_in_place g
  | Dc_offset c -> Models.dc_offset_in_place c
  | Lowpass { order; fc } -> Models.lowpass_in_place ~order ~fc ~fs
  | Polynomial { a1; a2; a3 } -> Models.polynomial_in_place ~a1 ~a2 ~a3
  | Slew_limited { max_slew_v_per_s } -> Models.slew_limited_in_place ~max_slew_v_per_s ~fs
  | Noise { sigma; seed } -> noise ~seed ~sigma

(* The bias comes off into [into], every stage overwrites it in turn,
   and the bias goes back on. *)
let pipeline t ~noise =
  let kernels = List.map (kernel ~fs:t.fs ~noise) t.stages in
  fun record ~into ->
    Models.remove_bias_into ~bias:t.bias record ~into;
    List.iter (fun run -> run into) kernels;
    Models.dc_offset_in_place t.bias into

let batch t =
  let run =
    pipeline t ~noise:(fun ~seed ~sigma -> Models.additive_noise_in_place ~seed ~sigma)
  in
  fun record ->
    let buffer = Array.create_float (Array.length record) in
    run record ~into:buffer;
    buffer

let batch_into ~draws t =
  if List.length (List.filter (function Noise _ -> true | _ -> false) t.stages) > 1 then
    invalid_arg "Dut.batch_into: more than one noise stage for one draws buffer";
  let noise ~seed ~sigma =
    Models.gaussian_draws_into ~seed draws;
    Models.add_draws_in_place ~sigma draws
  in
  pipeline t ~noise
