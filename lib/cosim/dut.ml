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

(* With [samples], the noise stage draws its Gaussian values once,
   here: a restarted stream would draw the same values for every
   record of that length. *)
let batch_stage ~fs ~samples = function
  | Gain g -> Models.gain g
  | Dc_offset c -> Models.dc_offset c
  | Lowpass { order; fc } -> Models.lowpass ~order ~fc ~fs
  | Polynomial { a1; a2; a3 } -> Models.polynomial ~a1 ~a2 ~a3
  | Slew_limited { max_slew_v_per_s } ->
    Models.slew_limited ~max_slew_v_per_s ~fs
  | Noise { sigma; seed } -> (
    match samples with
    | None -> Models.additive_noise ~seed ~sigma
    | Some n -> Models.add_draws ~sigma (Models.gaussian_draws ~seed n))

let batch ?samples t =
  Models.biased ~bias:t.bias
    (Models.compose (List.map (batch_stage ~fs:t.fs ~samples) t.stages))
