type range = { vmin : float; vmax : float }

let default_range = { vmin = 0.0; vmax = 4.0 }

let check_bits bits =
  if bits < 1 || bits > 30 then invalid_arg "Quantize: bits out of 1..30"

let code_count ~bits =
  check_bits bits;
  1 lsl bits

let step ~bits ~range =
  check_bits bits;
  if range.vmax <= range.vmin then invalid_arg "Quantize: empty range";
  (range.vmax -. range.vmin) /. float_of_int (code_count ~bits)

(* The two cell formulas, each written once and inlined into the
   per-value closures and the record loops alike, so no sample is
   boxed. *)
let[@inline] code_of ~vmin ~lsb ~hi v =
  Msoc_util.Numeric.clamp_int ~lo:0 ~hi (int_of_float (Float.floor ((v -. vmin) /. lsb)))

let[@inline] volts_of ~vmin ~lsb ~n code =
  if code < 0 || code >= n then invalid_arg "Quantize.decode: code out of range";
  vmin +. ((float_of_int code +. 0.5) *. lsb)

let decode ~bits ~range =
  let lsb = step ~bits ~range and n = code_count ~bits in
  fun code -> volts_of ~vmin:range.vmin ~lsb ~n code

let check_lengths name src into =
  if Array.length into <> Array.length src then
    invalid_arg (name ^ ": output length differs from the record's")

let encode_into ~bits ~range samples ~into:codes =
  let lsb = step ~bits ~range and hi = code_count ~bits - 1 in
  check_lengths "Quantize.encode_into" samples codes;
  for i = 0 to Array.length samples - 1 do
    codes.(i) <- code_of ~vmin:range.vmin ~lsb ~hi samples.(i)
  done

let decode_into ~bits ~range codes ~into:volts =
  let lsb = step ~bits ~range and n = code_count ~bits in
  check_lengths "Quantize.decode_into" codes volts;
  for i = 0 to Array.length codes - 1 do
    volts.(i) <- volts_of ~vmin:range.vmin ~lsb ~n codes.(i)
  done
