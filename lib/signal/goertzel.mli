(** Goertzel algorithm: single-bin DFT evaluation.

    Production ATE software measures tone levels with Goertzel rather
    than a full FFT — O(n) per tone, no power-of-two constraint, and
    it evaluates the spectrum at *exactly* the stimulus frequency
    instead of the nearest FFT bin. Used by the measurement suite as
    the fast path and cross-checked against {!Spectrum} in the test
    suite. *)

val amplitude : fs:float -> f:float -> float array -> float
(** Amplitude of the sine component at [f]: [2·magnitude/n]. A unit
    sine at a coherent frequency reports ≈ 1.0 (no window is applied;
    use coherent tones or accept leakage). *)
