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
  ?order:int -> input:Spectrum.t -> float list -> output:Spectrum.t -> float
(** [from_spectra ~input tones ~output]: per-tone gain = output
    amplitude / input amplitude at each tone frequency, then {!fit}.
    The input's amplitudes are read when [tones] is applied, so
    [let fit = from_spectra ~input tones] fits any number of outputs
    ([fit ~output]) against one input without keeping the input
    spectrum, each bit-identical to the full application.
    @raise Invalid_argument if a tone sits at or above the input
    spectrum's Nyquist frequency — such a tone has aliased and its
    measured gain would fit to a wrong cut-off — or is absent from the
    input, when [tones] is applied. *)
