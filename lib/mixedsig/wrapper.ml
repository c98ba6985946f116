type mode = Normal | Self_test | Core_test

type config = {
  mode : mode;
  divide_ratio : int;
  serial_to_parallel : int;
  tam_width : int;
}

type t = {
  adc : Adc.t;
  dac : Dac.t;
  bits : int;
  config : config;
}

let create ?adc ?dac ~bits () =
  let adc =
    match adc with
    | Some a -> a
    | None -> Adc.create Adc.Modular_pipeline ~bits
  in
  let dac =
    match dac with
    | Some d -> d
    | None -> Dac.create Dac.Modular ~bits
  in
  if Adc.bits adc <> bits || Dac.bits dac <> bits then
    invalid_arg "Wrapper.create: converter resolution mismatch";
  {
    adc;
    dac;
    bits;
    config = { mode = Normal; divide_ratio = 1; serial_to_parallel = 1; tam_width = 1 };
  }

let bits t = t.bits

let adc t = t.adc

let dac t = t.dac

let config t = t.config

let set_mode t mode = { t with config = { t.config with mode } }

let configure_for_test t ~system_clock_hz (test : Msoc_analog.Spec.test) =
  if test.Msoc_analog.Spec.f_sample_hz > system_clock_hz then
    invalid_arg "Wrapper.configure_for_test: sampling faster than system clock";
  let divide_ratio =
    max 1 (int_of_float (system_clock_hz /. test.Msoc_analog.Spec.f_sample_hz))
  in
  let serial_to_parallel =
    Msoc_util.Numeric.ceil_div t.bits test.Msoc_analog.Spec.tam_width
  in
  {
    t with
    config =
      {
        mode = Core_test;
        divide_ratio;
        serial_to_parallel;
        tam_width = test.Msoc_analog.Spec.tam_width;
      };
  }

let sample_rate_hz t ~system_clock_hz =
  system_clock_hz /. float_of_int t.config.divide_ratio

let test_cycles t ~samples =
  if samples < 0 then invalid_arg "Wrapper.test_cycles: negative samples";
  samples * t.config.serial_to_parallel * t.config.divide_ratio

let check_codes t codes =
  let n = 1 lsl t.bits in
  Array.iter
    (fun c ->
      if c < 0 || c >= n then invalid_arg "Wrapper: stimulus code out of range")
    codes

let check_core_test t stimulus =
  (match t.config.mode with
  | Core_test -> ()
  | Normal | Self_test -> invalid_arg "Wrapper.apply_core_test: not in core-test mode");
  check_codes t stimulus

let apply_core_test t ~core ~stimulus =
  check_core_test t stimulus;
  let analog_in = Dac.convert_all t.dac stimulus in
  let analog_out = core analog_in in
  Adc.convert_all t.adc analog_out

(* The same three stages over two buffers: the DAC reads the codes
   into the samples, the core overwrites the samples, and only then
   does the ADC overwrite the codes. *)
let apply_core_test_into t ~core ~codes ~samples =
  check_core_test t codes;
  Dac.convert_into t.dac codes ~into:samples;
  core samples;
  Adc.convert_into t.adc samples ~into:codes

let self_test_max_error_lsb t ~samples =
  (match t.config.mode with
  | Self_test -> ()
  | Normal | Core_test -> invalid_arg "Wrapper.self_test_max_error_lsb: not in self-test mode");
  if samples <= 0 then invalid_arg "Wrapper.self_test_max_error_lsb: samples must be positive";
  let n = 1 lsl t.bits in
  let worst = ref 0.0 in
  for i = 0 to samples - 1 do
    let code = i * (n - 1) / max 1 (samples - 1) in
    let back = Adc.convert t.adc (Dac.convert t.dac code) in
    let err = Float.abs (float_of_int (back - code)) in
    if err > !worst then worst := err
  done;
  !worst
