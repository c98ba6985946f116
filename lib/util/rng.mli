(** Deterministic pseudo-random number generation.

    A small, self-contained SplitMix64 generator. Every synthetic
    benchmark in this repository is produced from a fixed seed so that
    the experiments are bit-for-bit reproducible across runs and
    machines, independently of [Stdlib.Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)]. @raise Invalid_argument
    if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in the inclusive range [\[lo, hi\]].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> bound:float -> float
(** [float t ~bound] is uniform in [\[0, bound)]. *)

val gaussian : t -> float
(** One standard-normal value by Box–Muller from two [float t
    ~bound:1.0] draws (the first clamped to at least 1e-12 before its
    logarithm). *)

val fill_gaussian : t -> float array -> unit
(** [fill_gaussian t dst] writes the values [Array.length dst] calls of
    {!gaussian} would return, bit for bit, and leaves [t] where those
    calls would. Each value's two uniforms are drawn inline, with the
    generator state in a local, so nothing is
    allocated. *)

val float_in : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element. @raise Invalid_argument on empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val log_uniform_int : t -> lo:int -> hi:int -> int
(** [log_uniform_int t ~lo ~hi] draws an integer whose logarithm is
    uniform over [\[log lo, log hi\]] — handy for benchmark parameters
    (pattern counts, chain lengths) that span orders of magnitude.
    Requires [1 <= lo <= hi]. *)
