module Rng = Msoc_util.Rng

type t = {
  bits : int;
  dac_mismatch_sigma : float;
  adc_threshold_sigma_lsb : float;
  noise_sigma_v : float;
  fc_shift_pct : float;
  gain_shift_pct : float;
  converter_seed : int;
  noise_seed : int;
}

let nominal ?(bits = 8) () =
  {
    bits;
    dac_mismatch_sigma = 0.0;
    adc_threshold_sigma_lsb = 0.0;
    noise_sigma_v = 0.0;
    fc_shift_pct = 0.0;
    gain_shift_pct = 0.0;
    converter_seed = 1;
    noise_seed = 1;
  }

type ranges = {
  bits_choices : int list;
  dac_mismatch_sigma_max : float;
  adc_threshold_sigma_lsb_max : float;
  noise_sigma_v_max : float;
  fc_shift_pct_max : float;
  gain_shift_pct_max : float;
}

let default_ranges =
  {
    bits_choices = [ 6; 8; 10 ];
    dac_mismatch_sigma_max = 0.02;
    adc_threshold_sigma_lsb_max = 0.5;
    noise_sigma_v_max = 0.003;
    fc_shift_pct_max = 10.0;
    gain_shift_pct_max = 5.0;
  }

(* SplitMix64 finalizer over the (master, trial) pair. Folding the
   trial index in through the golden-gamma multiply is exactly how
   SplitMix64 itself spaces its substreams, so neighbouring trials
   land in statistically independent states. *)
let trial_seed ~master ~trial =
  let open Int64 in
  let z = add (of_int master) (mul (of_int (trial + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 1)

let sample ?(ranges = default_ranges) ~master ~trial () =
  let rng = Rng.create ~seed:(trial_seed ~master ~trial) in
  (* Fixed draw order: changing it is a format break for every stored
     Monte-Carlo result keyed by seed. *)
  let bits = Rng.pick rng (Array.of_list ranges.bits_choices) in
  let dac_mismatch_sigma = Rng.float rng ~bound:ranges.dac_mismatch_sigma_max in
  let adc_threshold_sigma_lsb =
    Rng.float rng ~bound:ranges.adc_threshold_sigma_lsb_max
  in
  let noise_sigma_v = Rng.float rng ~bound:ranges.noise_sigma_v_max in
  let sym bound =
    if bound = 0.0 then 0.0 else Rng.float_in rng ~lo:(-.bound) ~hi:bound
  in
  let fc_shift_pct = sym ranges.fc_shift_pct_max in
  let gain_shift_pct = sym ranges.gain_shift_pct_max in
  let converter_seed = Rng.int rng ~bound:1_000_000_000 in
  let noise_seed = Rng.int rng ~bound:1_000_000_000 in
  {
    bits;
    dac_mismatch_sigma;
    adc_threshold_sigma_lsb;
    noise_sigma_v;
    fc_shift_pct;
    gain_shift_pct;
    converter_seed;
    noise_seed;
  }

(* The ADC offset keeps the two converters' mismatch streams disjoint;
   the constant predates this module (Yield used it from the start)
   and is kept so per-seed results stay bit-identical across the
   port. *)
let adc_seed_offset = 1_000_003

let wrapper v =
  let dac =
    Dac.create ~mismatch_sigma:v.dac_mismatch_sigma ~seed:v.converter_seed
      Dac.Modular ~bits:v.bits
  in
  let adc =
    Adc.create ~threshold_sigma_lsb:v.adc_threshold_sigma_lsb
      ~seed:(v.converter_seed + adc_seed_offset)
      Adc.Modular_pipeline ~bits:v.bits
  in
  Wrapper.create ~adc ~dac ~bits:v.bits ()

let fields v =
  [
    ("bits", float_of_int v.bits);
    ("dac_mismatch_sigma", v.dac_mismatch_sigma);
    ("adc_threshold_sigma_lsb", v.adc_threshold_sigma_lsb);
    ("noise_sigma_v", v.noise_sigma_v);
    ("fc_shift_pct", v.fc_shift_pct);
    ("gain_shift_pct", v.gain_shift_pct);
    ("converter_seed", float_of_int v.converter_seed);
    ("noise_seed", float_of_int v.noise_seed);
  ]
