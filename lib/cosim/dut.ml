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

(* Each stage as its in-place kernel. With [samples], the noise stage
   draws its Gaussian values once, here: a restarted stream would draw
   the same values for every record of that length. *)
let kernel ~fs ~samples = function
  | Gain g -> Models.gain_in_place g
  | Dc_offset c -> Models.dc_offset_in_place c
  | Lowpass { order; fc } -> Models.lowpass_in_place ~order ~fc ~fs
  | Polynomial { a1; a2; a3 } -> Models.polynomial_in_place ~a1 ~a2 ~a3
  | Slew_limited { max_slew_v_per_s } -> Models.slew_limited_in_place ~max_slew_v_per_s ~fs
  | Noise { sigma; seed } -> (
    match samples with
    | None -> Models.additive_noise_in_place ~seed ~sigma
    | Some n -> Models.add_draws_in_place ~sigma (Models.gaussian_draws ~seed n))

(* One buffer per record: the bias comes off into it, every stage
   overwrites it in turn, and the bias goes back on. *)
let batch ?samples t =
  let kernels = List.map (kernel ~fs:t.fs ~samples) t.stages in
  fun record ->
    let buffer = Models.remove_bias ~bias:t.bias record in
    List.iter (fun run -> run buffer) kernels;
    Models.dc_offset_in_place t.bias buffer;
    buffer
