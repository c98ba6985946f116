(** IIR filters: biquad sections and Butterworth low-pass design.

    Models the analog cores' transfer behaviour (the LPF core of the
    paper's Fig. 5) in the sampled domain. The design uses the bilinear
    transform with frequency pre-warping, so the magnitude response at
    the cut-off frequency is exactly -3 dB per order pair. *)

type biquad = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }
(** Normalized (a0 = 1) second-order section. *)

type t = private biquad list
(** Cascade of sections, in processing order. *)

val butterworth_lowpass : order:int -> fc:float -> fs:float -> t
(** Standard Butterworth low-pass.
    @raise Invalid_argument unless [1 <= order <= 8] and
    [0 < fc < fs/2] (a NaN [fc] or [fs] fails it). *)

val process_in_place : t -> float array -> unit
(** Filter a record in place: each section in cascade order runs over
    the whole record (direct form II transposed, zero initial state),
    overwriting every sample with its output. Allocates nothing per
    sample. *)
