type architecture = Flash | Modular_pipeline

(* A flash bank is its thresholds in comparator order; threshold
   noise can leave a mismatched bank out of order. *)
type flash_bank = float array

(* [cell_bottom.(msb)] is the bottom of coarse cell [msb], tabulated
   from the reconstruction DAC when the converter is created. A
   pipeline whose two banks are non-decreasing is [Pipeline]; one with
   either bank out of order is [Pipeline_unsorted]. The order lives in
   the constructor, not in a field: every Monte-Carlo trial creates its
   converters, and a trial's allocation is held word for word
   (test_cosim's "warm trial minor words"). *)
type stages =
  | Single of flash_bank
  | Pipeline of { coarse : flash_bank; cell_bottom : float array; fine : flash_bank }
  | Pipeline_unsorted of { coarse : flash_bank; cell_bottom : float array; fine : flash_bank }

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

(* A NaN threshold compares false both ways, so it leaves its bank
   unsorted. *)
let non_decreasing (bank : flash_bank) =
  let sorted = ref true in
  for i = 1 to Array.length bank - 1 do
    if not (bank.(i - 1) <= bank.(i)) then sorted := false
  done;
  !sorted

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
      if non_decreasing coarse && non_decreasing fine then Pipeline { coarse; cell_bottom; fine }
      else Pipeline_unsorted { coarse; cell_bottom; fine }
  in
  { bits; range; stages }

let bits t = t.bits


(* The conversion is written once, in the helpers below: [convert]
   applies them to one voltage and [convert_into] to a record, with the
   stage match outside its loop. They are inlined, so no sample is
   boxed.

   A bisection over the comparators in their order, as if they were
   sorted. On a non-decreasing bank its code is the number of
   thresholds at or below [v]; on a bank out of order it is where the
   bisection stops, that count only where the comparators it visits
   agree with it. A NaN input counts no threshold. *)
let[@inline] bisect (bank : flash_bank) v =
  let lo = ref 0 and hi = ref (Array.length bank) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v >= bank.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

(* The bisection's code on a non-decreasing pipeline stage bank,
   counted from a guess, the count of ideal edges at or below [v]
   ([vmin] and [inv_lsb], the reciprocal of the bank's ideal spacing,
   place them): it steps up past every threshold at or below [v], then
   down past every one above it. The steps make the count exact
   whatever the guess, and a stage bank holds at most 255 thresholds,
   so no count walks further; mismatch moves a threshold by a fraction
   of the spacing, so the steps are short. A flash converter's one
   bank, up to 65,535 thresholds, keeps the bisection. *)
let[@inline] count_from_guess (bank : flash_bank) ~vmin ~inv_lsb v =
  let m = Array.length bank in
  let x = (v -. vmin) *. inv_lsb in
  let k = ref (if x >= 0.0 then if x < float_of_int m then int_of_float x else m else 0) in
  while !k < m && bank.(!k) <= v do
    incr k
  done;
  while !k > 0 && bank.(!k - 1) > v do
    decr k
  done;
  !k

(* The fine bank has 2^half - 1 thresholds, so its code fits [half]
   bits as it stands. A pipeline with a bank out of order bisects
   both. *)
let[@inline] pipeline_convert ~sorted ~coarse ~cell_bottom ~fine ~vmin ~inv_lsb ~half v =
  let msb = if sorted then count_from_guess coarse ~vmin ~inv_lsb v else bisect coarse v in
  let residue = v -. cell_bottom.(msb) in
  let amplified = vmin +. (residue *. float_of_int (1 lsl half)) in
  let lsb_code =
    if sorted then count_from_guess fine ~vmin ~inv_lsb amplified else bisect fine amplified
  in
  (msb lsl half) lor lsb_code

(* The reciprocal of the ideal spacing of a bank of [bits] bits. *)
let[@inline] inverse_lsb ~bits range =
  float_of_int (1 lsl bits) /. (range.Quantize.vmax -. range.Quantize.vmin)

let convert t v =
  let vmin = t.range.Quantize.vmin and half = t.bits / 2 in
  match t.stages with
  | Single bank -> bisect bank v
  | Pipeline { coarse; cell_bottom; fine } ->
    pipeline_convert ~sorted:true ~coarse ~cell_bottom ~fine ~vmin
      ~inv_lsb:(inverse_lsb ~bits:half t.range) ~half v
  | Pipeline_unsorted { coarse; cell_bottom; fine } ->
    pipeline_convert ~sorted:false ~coarse ~cell_bottom ~fine ~vmin ~inv_lsb:0.0 ~half v

let convert_into t samples ~into:codes =
  if Array.length codes <> Array.length samples then
    invalid_arg "Adc.convert_into: output length differs from the record's";
  let vmin = t.range.Quantize.vmin and half = t.bits / 2 and n = Array.length samples in
  match t.stages with
  | Single bank ->
    for i = 0 to n - 1 do
      codes.(i) <- bisect bank samples.(i)
    done
  | Pipeline { coarse; cell_bottom; fine } ->
    let inv_lsb = inverse_lsb ~bits:half t.range in
    for i = 0 to n - 1 do
      codes.(i) <-
        pipeline_convert ~sorted:true ~coarse ~cell_bottom ~fine ~vmin ~inv_lsb ~half samples.(i)
    done
  | Pipeline_unsorted { coarse; cell_bottom; fine } ->
    for i = 0 to n - 1 do
      codes.(i) <-
        pipeline_convert ~sorted:false ~coarse ~cell_bottom ~fine ~vmin ~inv_lsb:0.0 ~half
          samples.(i)
    done

let convert_all t samples =
  let codes = Array.make (Array.length samples) 0 in
  convert_into t samples ~into:codes;
  codes
