(** Monte-Carlo yield of wrapped analog measurements.

    Converter mismatch varies die to die, so a wrapped measurement
    that passes with one wrapper instance may fail with another. This
    module re-runs a virtual specification check across many simulated
    dies (independent mismatch draws) and reports the pass fraction
    with a confidence interval — the question a production test
    engineer asks before committing to an on-chip wrapper resolution. *)

val wrapper_for_die :
  ?bits:int ->
  ?dac_mismatch_sigma:float ->
  seed:int ->
  unit ->
  Wrapper.t
(** One die's wrapper: modular converters with mismatch drawn using
    [seed] from the given resistor sigma and 0.3 LSB comparator noise
    (defaults: 8 bits, 1% resistor mismatch). *)

type result = {
  trials : int;
  passes : int;
  yield : float;  (** passes / trials *)
  ci_low : float;  (** 95% Wilson interval *)
  ci_high : float;
}

val estimate : trials:int -> die:(int -> bool) -> result
(** [estimate ~trials ~die] runs [die seed] for seeds 1..[trials]
    (each returning the pass/fail verdict of one simulated die).
    @raise Invalid_argument if [trials < 1]. *)

val wilson_interval : trials:int -> passes:int -> float * float
(** 95% Wilson score interval for a binomial proportion — well-behaved
    near 0 and 1 where the normal approximation is not. *)
