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

(* Both take [bits] and [range] first and compute the step once, so a
   partial application converts a whole record at one step. *)
let encode ~bits ~range =
  let lsb = step ~bits ~range and hi = code_count ~bits - 1 in
  fun v ->
    let raw = int_of_float (Float.floor ((v -. range.vmin) /. lsb)) in
    Msoc_util.Numeric.clamp_int ~lo:0 ~hi raw

let decode ~bits ~range =
  let lsb = step ~bits ~range and n = code_count ~bits in
  fun code ->
    if code < 0 || code >= n then invalid_arg "Quantize.decode: code out of range";
    range.vmin +. ((float_of_int code +. 0.5) *. lsb)

let roundtrip ~bits ~range v = decode ~bits ~range (encode ~bits ~range v)

let snr_db_ideal ~bits =
  check_bits bits;
  (6.020599913279624 *. float_of_int bits) +. 1.7609125905568124
