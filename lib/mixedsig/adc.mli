(** Behavioral ADC models (paper Fig. 4a).

    - [Flash]: one bank of 2^n − 1 comparators — fast but the
      comparator count explodes with resolution;
    - [Modular_pipeline]: the paper's two-stage construction: an
      n/2-bit flash resolves the MSBs, an n/2-bit DAC reconstructs
      them, and the amplified residue goes through a second n/2-bit
      flash — 2·(2^(n/2) − 1) comparators (32-ish vs 256 at 8 bits).

    Optional comparator threshold noise exercises the pipeline's
    sensitivity to stage errors.

    Conversion builds no closure and evaluates no DAC per sample:
    {!create} evaluates the pipeline's reconstruction DAC once per
    coarse code into a table of coarse-cell bottoms and records whether
    both stage banks' thresholds are non-decreasing. A flash bank is
    binary-searched over its comparators in their order. On a
    non-decreasing stage bank (at most 255 thresholds) the code, the
    number of thresholds at or below the input, starts from the count
    of ideal edges there and steps a threshold or two; a pipeline that
    noise left with a bank out of order bisects both. Codes are
    bit-identical to the binary search and to evaluating the DAC on
    every sample; on a bank out of order the bisection's code is where
    it stops, not the count. *)

type architecture = Flash | Modular_pipeline

type t

val create :
  ?threshold_sigma_lsb:float ->
  ?seed:int ->
  ?range:Quantize.range ->
  architecture ->
  bits:int ->
  t
(** [threshold_sigma_lsb] is comparator threshold noise in LSBs of
    the full converter (default 0). Even [bits >= 4] for the pipeline.
    @raise Invalid_argument on odd or too-small pipeline bits or bits
    outside 2..16. *)

val bits : t -> int

val convert : t -> float -> int
(** Voltage to code; clips outside the range. *)

val convert_into : t -> float array -> into:int array -> unit
(** {!convert} over a record, written into [into]; nothing is
    allocated.
    @raise Invalid_argument if [into]'s length differs from the
    record's. *)

val convert_all : t -> float array -> int array
(** {!convert_into} a fresh array. *)
