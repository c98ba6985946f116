(** Cut-off frequency extraction from multi-tone measurements.

    The paper's f_c test: apply a multi-tone stimulus, measure the
    per-tone gain from the response spectrum, and extrapolate the
    filter's -3 dB frequency. We fit the measured gains to the
    Butterworth magnitude model |H(f)| = g0 / sqrt(1 + (f/fc)^(2n))
    by least squares in log-gain, searching fc with golden-section. *)

val fit : ?order:int -> (float * float) list -> float
(** [fit gains] where [gains] are (frequency, linear gain) pairs —
    gains normalized to the pass-band (or not: an overall gain factor
    is fitted out). Returns the estimated cut-off. Default order 2.
    @raise Invalid_argument with fewer than 2 tones or a frequency or
    gain that is not positive (NaN included). *)

val from_spectra :
  ?order:int -> input:Spectrum.t -> output:Spectrum.t -> float list -> float
(** [from_spectra ~input ~output tones]: per-tone gain = output
    amplitude / input amplitude at each tone frequency, then {!fit}.
    @raise Invalid_argument if a tone sits at or above the input
    spectrum's Nyquist frequency — such a tone has aliased and its
    measured gain would fit to a wrong cut-off. *)
