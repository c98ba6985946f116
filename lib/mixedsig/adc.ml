type architecture = Flash | Modular_pipeline

(* A flash bank is its sorted threshold list; output code = number of
   thresholds below the input. *)
type flash_bank = float array

(* [cell_bottom.(msb)] is the bottom of coarse cell [msb], tabulated
   from the reconstruction DAC when the converter is created. *)
type stages =
  | Single of flash_bank
  | Pipeline of { coarse : flash_bank; cell_bottom : float array; fine : flash_bank }

type t = {
  bits : int;
  range : Quantize.range;
  stages : stages;
}

let code_edges_ideal ~bits ~range =
  let n = 1 lsl bits in
  let lsb = Quantize.step ~bits ~range in
  Array.init (n - 1) (fun i -> range.Quantize.vmin +. (float_of_int (i + 1) *. lsb))

let make_bank rng ~sigma_volts ~bits ~range =
  code_edges_ideal ~bits ~range
  |> Array.map (fun edge -> edge +. (sigma_volts *. Msoc_util.Rng.gaussian rng))

let create ?(threshold_sigma_lsb = 0.0) ?(seed = 2) ?(range = Quantize.default_range)
    architecture ~bits =
  if bits < 2 || bits > 16 then invalid_arg "Adc.create: bits out of 2..16";
  (match architecture with
  | Modular_pipeline when bits mod 2 <> 0 ->
    invalid_arg "Adc.create: pipeline ADC needs even bits"
  | Modular_pipeline when bits < 4 ->
    invalid_arg "Adc.create: pipeline ADC needs at least 4 bits"
  | Modular_pipeline | Flash -> ());
  let rng = Msoc_util.Rng.create ~seed in
  let full_lsb = Quantize.step ~bits ~range in
  let sigma_volts = threshold_sigma_lsb *. full_lsb in
  let stages =
    match architecture with
    | Flash -> Single (make_bank rng ~sigma_volts ~bits ~range)
    | Modular_pipeline ->
      let half = bits / 2 in
      let coarse = make_bank rng ~sigma_volts ~bits:half ~range in
      (* The reconstruction DAC is an ideal sub-DAC; Dac.convert
         returns cell centers, so subtracting half an MSB LSB gives the
         cell bottom and the residue lies in [0, span/2^h). *)
      let reconstruct = Dac.create Dac.Full_string ~bits:half ~range in
      let msb_lsb = (range.Quantize.vmax -. range.Quantize.vmin) /. float_of_int (1 lsl half) in
      let cell_bottom =
        Array.init (1 lsl half) (fun msb -> Dac.convert reconstruct msb -. (msb_lsb /. 2.0))
      in
      let fine = make_bank rng ~sigma_volts ~bits:half ~range in
      Pipeline { coarse; cell_bottom; fine }
  in
  { bits; range; stages }

let bits t = t.bits


(* The conversion is written once, in the two helpers below: [convert]
   applies them to one voltage and [convert_into] to a record, with the
   stage match outside its loop. They are inlined, so no sample is
   boxed. Thresholds are sorted; a binary search counts the
   comparators below the input. *)
let[@inline] bank_convert (bank : flash_bank) v =
  let lo = ref 0 and hi = ref (Array.length bank) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v >= bank.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

let[@inline] pipeline_convert ~coarse ~cell_bottom ~fine ~vmin ~half v =
  let msb = bank_convert coarse v in
  let residue = v -. cell_bottom.(msb) in
  let amplified = vmin +. (residue *. float_of_int (1 lsl half)) in
  let lsb_code =
    Msoc_util.Numeric.clamp_int ~lo:0 ~hi:((1 lsl half) - 1) (bank_convert fine amplified)
  in
  (msb lsl half) lor lsb_code

let convert t v =
  match t.stages with
  | Single bank -> bank_convert bank v
  | Pipeline { coarse; cell_bottom; fine } ->
    pipeline_convert ~coarse ~cell_bottom ~fine ~vmin:t.range.Quantize.vmin ~half:(t.bits / 2) v

let convert_into t samples ~into:codes =
  if Array.length codes <> Array.length samples then
    invalid_arg "Adc.convert_into: output length differs from the record's";
  match t.stages with
  | Single bank ->
    for i = 0 to Array.length samples - 1 do
      codes.(i) <- bank_convert bank samples.(i)
    done
  | Pipeline { coarse; cell_bottom; fine } ->
    let vmin = t.range.Quantize.vmin and half = t.bits / 2 in
    for i = 0 to Array.length samples - 1 do
      codes.(i) <- pipeline_convert ~coarse ~cell_bottom ~fine ~vmin ~half samples.(i)
    done

let convert_all t samples =
  let codes = Array.make (Array.length samples) 0 in
  convert_into t samples ~into:codes;
  codes
