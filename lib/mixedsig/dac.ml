type architecture = Full_string | Modular

(* Cumulative normalized ladder fractions: [ladder.(c)] is the
   fraction of full scale below code [c]'s cell. One ladder for
   Full_string, two half-size ladders for Modular. *)
type ladders =
  | String_ladder of float array
  | Modular_ladders of { msb : float array; lsb : float array }

type t = { bits : int; range : Quantize.range; ladders : ladders }

(* A ladder of [n] resistors with relative mismatch sigma, returned as
   n cumulative fractions: fractions.(c) = sum of the first c
   resistors / total (so fractions.(0) = 0). *)
let make_ladder rng ~sigma n =
  let resistors =
    Array.init n (fun _ ->
        let r = 1.0 +. (sigma *. Msoc_util.Rng.gaussian rng) in
        Float.max 0.05 r)
  in
  let total = Array.fold_left ( +. ) 0.0 resistors in
  let fractions = Array.make n 0.0 in
  let acc = ref 0.0 in
  for c = 0 to n - 1 do
    fractions.(c) <- !acc /. total;
    acc := !acc +. resistors.(c)
  done;
  fractions

let create ?(mismatch_sigma = 0.0) ?(seed = 1) ?(range = Quantize.default_range)
    architecture ~bits =
  if bits < 2 || bits > 16 then invalid_arg "Dac.create: bits out of 2..16";
  (match architecture with
  | Modular when bits mod 2 <> 0 -> invalid_arg "Dac.create: modular DAC needs even bits"
  | Modular | Full_string -> ());
  let rng = Msoc_util.Rng.create ~seed in
  let ladders =
    match architecture with
    | Full_string -> String_ladder (make_ladder rng ~sigma:mismatch_sigma (1 lsl bits))
    | Modular ->
      let half = 1 lsl (bits / 2) in
      (* The LSB ladder takes the stream's first draws: that order
         fixes every mismatched ladder the tests and goldens pin. *)
      let lsb = make_ladder rng ~sigma:mismatch_sigma half in
      let msb = make_ladder rng ~sigma:mismatch_sigma half in
      Modular_ladders { msb; lsb }
  in
  { bits; range; ladders }

let bits t = t.bits

let span t = t.range.Quantize.vmax -. t.range.Quantize.vmin

(* The conversion, written once: [convert] applies it to one code and
   [convert_into] to a record, with the ladder match outside its
   loop. Inlined, so no sample is boxed. The LSB ladder's fraction is
   scaled by [inv], 2^-h: multiplying by a power of two's exact
   reciprocal rounds as dividing by the power does, so no sample
   divides. *)
let[@inline] check_code ~n code =
  if code < 0 || code >= n then invalid_arg "Dac.convert: code out of range"

let[@inline] string_fraction ladder ~half_lsb code = ladder.(code) +. half_lsb

let[@inline] modular_fraction ~msb ~lsb ~h ~inv ~half_lsb code =
  msb.(code lsr h) +. (lsb.(code land ((1 lsl h) - 1)) *. inv) +. half_lsb

let[@inline] reciprocal_of_pow2 h = Float.ldexp 1.0 (-h)

let[@inline] volts ~vmin ~span fraction = vmin +. (fraction *. span)

let convert_into t codes ~into:out =
  if Array.length out <> Array.length codes then
    invalid_arg "Dac.convert_into: output length differs from the record's";
  let n = 1 lsl t.bits in
  let half_lsb = 0.5 /. float_of_int n and vmin = t.range.Quantize.vmin and span = span t in
  match t.ladders with
  | String_ladder ladder ->
    for i = 0 to Array.length codes - 1 do
      let code = codes.(i) in
      check_code ~n code;
      out.(i) <- volts ~vmin ~span (string_fraction ladder ~half_lsb code)
    done
  | Modular_ladders { msb; lsb } ->
    let h = t.bits / 2 in
    let inv = reciprocal_of_pow2 h in
    for i = 0 to Array.length codes - 1 do
      let code = codes.(i) in
      check_code ~n code;
      out.(i) <- volts ~vmin ~span (modular_fraction ~msb ~lsb ~h ~inv ~half_lsb code)
    done

let convert_all t codes =
  let out = Array.create_float (Array.length codes) in
  convert_into t codes ~into:out;
  out

let convert t code =
  let n = 1 lsl t.bits in
  check_code ~n code;
  let half_lsb = 0.5 /. float_of_int n in
  let fraction =
    match t.ladders with
    | String_ladder ladder -> string_fraction ladder ~half_lsb code
    | Modular_ladders { msb; lsb } ->
      let h = t.bits / 2 in
      modular_fraction ~msb ~lsb ~h ~inv:(reciprocal_of_pow2 h) ~half_lsb code
  in
  volts ~vmin:t.range.Quantize.vmin ~span:(span t) fraction

let lsb t = span t /. float_of_int (1 lsl t.bits)

let inl_lsb t =
  let worst = ref 0.0 in
  for code = 0 to (1 lsl t.bits) - 1 do
    let ideal = Quantize.decode ~bits:t.bits ~range:t.range code in
    let err = Float.abs (convert t code -. ideal) /. lsb t in
    if err > !worst then worst := err
  done;
  !worst
