(** Uniform quantization — the ideal-converter arithmetic shared by
    the ADC and DAC models.

    Codes are unsigned, [0 .. 2^bits - 1], mapped over the input range
    [\[vmin, vmax\]] mid-tread style; out-of-range inputs clip. *)

type range = { vmin : float; vmax : float }

val default_range : range
(** [0 V .. 4 V] — the paper's wrapper runs from a 4 V supply. *)

val step : bits:int -> range:range -> float
(** LSB size. *)

val decode : bits:int -> range:range -> int -> float
(** Code to the center voltage of its quantization cell. Staged:
    [decode ~bits ~range] checks and computes the step once, so
    mapping it over a record divides once per record, not once per
    sample.
    @raise Invalid_argument on out-of-range codes. *)

val encode_into : bits:int -> range:range -> float array -> into:int array -> unit
(** Voltages to codes, clipping to the range, written into [into]:
    one step computation and one [for] loop over the float array,
    nothing allocated or boxed per sample.
    @raise Invalid_argument if [into]'s length differs from the
    record's. *)

val decode_into : bits:int -> range:range -> int array -> into:float array -> unit
(** {!decode} over a record, written into [into], with one step
    computation like {!encode_into}.
    @raise Invalid_argument if [into]'s length differs from the
    record's, or on the first out-of-range code (the samples before
    it are written). *)
