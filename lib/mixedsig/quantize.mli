(** Uniform quantization — the ideal-converter arithmetic shared by
    the ADC and DAC models.

    Codes are unsigned, [0 .. 2^bits - 1], mapped over the input range
    [\[vmin, vmax\]] mid-tread style; out-of-range inputs clip. *)

type range = { vmin : float; vmax : float }

val default_range : range
(** [0 V .. 4 V] — the paper's wrapper runs from a 4 V supply. *)

val code_count : bits:int -> int
(** [2^bits]. @raise Invalid_argument outside 1..30 bits. *)

val step : bits:int -> range:range -> float
(** LSB size. *)

val encode : bits:int -> range:range -> float -> int
(** Voltage to code, clipping to the range. [encode ~bits ~range]
    computes the step once, so mapping it over a record checks and
    divides once per record, not once per sample. *)

val decode : bits:int -> range:range -> int -> float
(** Code to the center voltage of its quantization cell; staged like
    {!encode}.
    @raise Invalid_argument on out-of-range codes. *)

val encode_all : bits:int -> range:range -> float array -> int array
(** {!encode} over a record: one step computation and one [for] loop
    over the float array, nothing boxed per sample. *)

val decode_all : bits:int -> range:range -> int array -> float array
(** {!decode} over a record, staged like {!encode_all}.
    @raise Invalid_argument on the first out-of-range code. *)

val roundtrip : bits:int -> range:range -> float -> float
(** [decode (encode v)] — ideal ADC→DAC path; error <= step/2 for
    in-range [v]. *)

val snr_db_ideal : bits:int -> float
(** Theoretical full-scale sine SNR: [6.02·bits + 1.76] dB. *)
