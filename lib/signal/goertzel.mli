(** Goertzel algorithm: single-bin DFT evaluation.

    Production ATE software measures tone levels with Goertzel rather
    than a full FFT — O(n) per tone, no power-of-two constraint, and
    it evaluates the spectrum at *exactly* the stimulus frequency
    instead of the nearest FFT bin. Used by the measurement suite as
    the fast path and cross-checked against {!Spectrum} in the test
    suite. *)

val power : fs:float -> f:float -> float array -> float
(** [power ~fs ~f x] is |X(f)|², the squared magnitude of the DFT of
    [x] evaluated at frequency [f].
    @raise Invalid_argument on an empty record or [f] outside
    [\[0, fs/2\]] (a NaN [f] or [fs] included). *)

val amplitude : fs:float -> f:float -> float array -> float
(** Amplitude of the sine component at [f]: [2·magnitude/n]. A unit
    sine at a coherent frequency reports ≈ 1.0 (no window is applied;
    use coherent tones or accept leakage). *)

val amplitudes : fs:float -> fl:float list -> float array -> (float * float) list
(** One pass per tone: [(f, amplitude)] for each requested frequency. *)
