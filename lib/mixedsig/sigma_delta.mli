(** Behavioral sigma-delta modulation and decimation.

    The paper's wrapper uses Nyquist-rate converters, good for its
    low-to-mid-frequency targets; audio-grade cores (the CODEC, the
    sigma-delta front-end of the extended catalog) would use
    oversampling converters instead. This module provides first- and
    second-order single-bit modulators plus a CIC decimator, so that
    trade-off — resolution from oversampling rather than from
    comparator count — can be measured rather than asserted. *)

type order = First | Second

val measured_enob :
  ?order:order -> osr:int -> fs:float -> signal_hz:float -> unit -> float
(** Single-tone ENOB of the full oversampled ADC (modulate at the
    input rate, then CIC-decimate by [osr] with modulator order + 1
    stages) at oversampling ratio [osr]:
    generates a coherent test tone at [signal_hz], converts, and
    computes SINAD/ENOB at the decimated rate. The noise-shaping
    yardstick: each doubling of [osr] buys ≈1.5 bits at first order
    and ≈2.5 bits at second order. *)
