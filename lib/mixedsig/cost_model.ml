let check_bits bits =
  if bits < 2 || bits > 16 then invalid_arg "Cost_model: bits out of 2..16"

let flash_comparators ~bits =
  check_bits bits;
  (1 lsl bits) - 1

let modular_comparators ~bits =
  check_bits bits;
  if bits mod 2 <> 0 then invalid_arg "Cost_model.modular_comparators: even bits";
  2 * ((1 lsl (bits / 2)) - 1)

let string_dac_resistors ~bits =
  check_bits bits;
  1 lsl bits

let modular_dac_resistors ~bits =
  check_bits bits;
  if bits mod 2 <> 0 then invalid_arg "Cost_model.modular_dac_resistors: even bits";
  2 * (1 lsl (bits / 2))

let comparator_reduction ~bits =
  float_of_int (flash_comparators ~bits) /. float_of_int (modular_comparators ~bits)

let reference_wrapper_area_mm2 = 0.02

let reference_tech_um = 0.5

let reference_bits = 8

let wrapper_area_mm2 ?(bits = reference_bits) ~tech_um () =
  if tech_um <= 0.0 then invalid_arg "Cost_model.wrapper_area_mm2: tech_um <= 0";
  let tech_factor = tech_um /. reference_tech_um in
  let hardware_factor =
    float_of_int (modular_comparators ~bits)
    /. float_of_int (modular_comparators ~bits:reference_bits)
  in
  reference_wrapper_area_mm2 *. tech_factor *. hardware_factor
