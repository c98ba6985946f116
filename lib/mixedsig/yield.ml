(* One deterministic RNG path for every Monte-Carlo consumer: die
   construction is delegated to the shared Variation sampler.
   [Variation.wrapper] keeps the historical ADC seed offset, so
   per-seed results are bit-identical across the port. *)
let wrapper_for_die ?(bits = 8) ?(dac_mismatch_sigma = 0.01) ~seed () =
  Variation.wrapper
    {
      (Variation.nominal ~bits ()) with
      Variation.dac_mismatch_sigma;
      adc_threshold_sigma_lsb = 0.3;
      converter_seed = seed;
    }

type result = {
  trials : int;
  passes : int;
  yield : float;
  ci_low : float;
  ci_high : float;
}

let wilson_interval ~trials ~passes =
  if trials < 1 then invalid_arg "Yield.wilson_interval: trials >= 1";
  if passes < 0 || passes > trials then
    invalid_arg "Yield.wilson_interval: passes out of 0..trials";
  let z = 1.959963984540054 (* 97.5th percentile of N(0,1) *) in
  let n = float_of_int trials in
  let p = float_of_int passes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let half =
    z /. denom *. Float.sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
  in
  (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))

let estimate ~trials ~die =
  if trials < 1 then invalid_arg "Yield.estimate: trials >= 1";
  let passes = ref 0 in
  for seed = 1 to trials do
    if die seed then incr passes
  done;
  let ci_low, ci_high = wilson_interval ~trials ~passes:!passes in
  {
    trials;
    passes = !passes;
    yield = float_of_int !passes /. float_of_int trials;
    ci_low;
    ci_high;
  }
