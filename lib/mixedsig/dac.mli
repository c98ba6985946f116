(** Behavioral voltage-steering DAC models (paper Fig. 4b).

    Two architectures:
    - [Full_string]: a classic resistor-string DAC, 2^n resistors;
    - [Modular]: the paper's area-saving construction from two n/2-bit
      sub-DACs whose outputs combine as MSB + LSB/2^(n/2) — 2·2^(n/2)
      resistors, an 8× reduction at 8 bits.

    Optional resistor mismatch (a deterministic draw per instance)
    lets tests and benches measure INL/DNL of both architectures.

    The modular DAC scales its LSB sub-DAC's fraction by 2^-(n/2), the
    exact reciprocal of 2^(n/2): the product rounds as the quotient
    does, so each voltage is bit-identical to dividing by 2^(n/2),
    without a division per sample. *)

type architecture = Full_string | Modular

type t

val create :
  ?mismatch_sigma:float ->
  ?seed:int ->
  ?range:Quantize.range ->
  architecture ->
  bits:int ->
  t
(** [mismatch_sigma] is the relative standard deviation of each
    resistor (default 0: ideal). Even [bits] required for [Modular].
    @raise Invalid_argument on odd modular bits or bits outside
    2..16. *)

val bits : t -> int

val convert : t -> int -> float
(** Code to voltage. @raise Invalid_argument on out-of-range codes. *)

val convert_into : t -> int array -> into:float array -> unit
(** {!convert} over a record, written into [into]; nothing is
    allocated.
    @raise Invalid_argument if [into]'s length differs from the
    record's, or on the first out-of-range code (the samples before
    it are written). *)

val convert_all : t -> int array -> float array
(** {!convert_into} a fresh array. *)

val inl_lsb : t -> float
(** Integral nonlinearity: max |actual − ideal| over all codes, in
    LSBs. 0 for an ideal instance. *)
