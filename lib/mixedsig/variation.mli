(** Seeded Monte-Carlo variation sampling for wrapped measurements.

    One deterministic RNG path shared by every Monte-Carlo consumer
    ({!Yield} and the co-simulation sweeps in [Msoc_cosim]): a trial's
    entire variation draw is a pure function of [(master seed, trial
    index)], derived through one SplitMix64 scramble. Trials can
    therefore be evaluated in any order, on any number of domains, and
    the sweep stays bit-identical to a serial run — the PR 1
    discipline applied to device variation. *)

type t = {
  bits : int;  (** converter resolution of this die's wrapper *)
  dac_mismatch_sigma : float;  (** relative resistor mismatch sigma *)
  adc_threshold_sigma_lsb : float;  (** comparator noise, full-converter LSBs *)
  noise_sigma_v : float;  (** core output noise floor, volts RMS *)
  fc_shift_pct : float;  (** process shift of the core's pole, percent *)
  gain_shift_pct : float;  (** process shift of the pass-band gain, percent *)
  converter_seed : int;  (** mismatch draw for this die's converters *)
  noise_seed : int;  (** core noise stream for this die *)
}

val nominal : ?bits:int -> unit -> t
(** Ideal converters (zero mismatch), no core variation. Default
    8 bits, seeds 1. *)

(** Bounds the sampler draws from. Shift bounds are symmetric:
    [fc_shift_pct_max = 10.] means a uniform draw in [-10, +10] %. *)
type ranges = {
  bits_choices : int list;  (** even, 4..16 (modular converter rule) *)
  dac_mismatch_sigma_max : float;
  adc_threshold_sigma_lsb_max : float;
  noise_sigma_v_max : float;
  fc_shift_pct_max : float;
  gain_shift_pct_max : float;
}

val sample : ?ranges:ranges -> master:int -> trial:int -> unit -> t
(** The variation of trial [trial] under [master]: a fresh SplitMix
    stream drawn in a fixed field order, seeded by one SplitMix64
    finalizer over the [(master, trial)] pair, so evaluation order and
    domain count cannot change it. Equal [(master, trial)] pairs always
    yield equal records. The default [ranges] are the process corners
    the Fig. 5 Monte-Carlo sweeps: bits ∈ {6, 8, 10}, mismatch up to
    2 %, comparator noise up to 0.5 LSB, core noise up to 3 mV, fc
    ±10 %, gain ±5 %. *)

val wrapper : t -> Wrapper.t
(** This die's wrapper: modular converters with mismatch drawn from
    the record's sigmas and [converter_seed] (the ADC stream is offset
    so the two converters never share a draw). *)

val fields : t -> (string * float) list
(** The record as labelled numbers (bits and seeds included, as
    floats), in a fixed order — the raw material for JSON renderings
    and report tables at layers that own a serializer. *)
