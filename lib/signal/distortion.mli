(** Distortion and linearity metrics from spectra.

    Implements the analysis side of Table 2's specification tests that
    go beyond simple gain: total harmonic distortion (the CODEC's THD
    test), two-tone third-order intermodulation (the IIP3 tests of the
    transmit and down-conversion paths), and SINAD/ENOB for converter
    self-characterization. *)

val thd : ?harmonics:int -> Spectrum.t -> fundamental:float -> float
(** [thd spectrum ~fundamental] is sqrt(Σ harmonic amplitudes²) /
    fundamental amplitude, using harmonics 2..[harmonics]+1 (default
    5), alias-folded. Returns a linear ratio; multiply by 100 for %
    or use {!Msoc_util.Numeric.db}.
    @raise Invalid_argument as {!Spectrum.bin_of_freq} (a NaN
    [fundamental] included), unless [0 < fundamental < fs/2] and
    [harmonics >= 1], or when the fundamental is absent. *)

val sinad_db : Spectrum.t -> fundamental:float -> float
(** Signal over everything-else (noise + distortion) in dB, computed
    from raw spectrum bins with the fundamental's ±2 bins and DC
    excluded from the noise sum. *)

val enob : Spectrum.t -> fundamental:float -> float
(** Effective number of bits: (SINAD − 1.76) / 6.02. *)

(** Third-order intermodulation measurement from a two-tone test. *)
type imd3 = {
  f1 : float;
  f2 : float;
  tone_level : float;  (** mean amplitude of the two tones *)
  imd_level : float;  (** strongest amplitude at 2f1−f2 / 2f2−f1 *)
  imd_dbc : float;  (** imd relative to tones, dB (negative) *)
  iip3_rel : float;
      (** input-referred third-order intercept relative to the applied
          tone amplitude: tone_level · 10^(−imd_dbc/40), the standard
          IIP3 = P_in + ΔdBc/2 rule in linear amplitude form *)
}

val imd3 : Spectrum.t -> f1:float -> f2:float -> imd3
(** @raise Invalid_argument if the tones coincide or an IMD product
    falls outside (0, fs/2) (a NaN tone's products do). *)
