(** Radix-2 fast Fourier transform.

    Self-contained (no external FFT dependency); used to compute the
    frequency spectra of Fig. 5. Arbitrary-length real signals are
    handled by zero-padding to the next power of two.

    One kernel does every transform: an in-place decimation-in-time
    FFT over split real and imaginary float arrays, run over a
    {!plan}. Each butterfly performs the float operations of
    [Complex.mul], [Complex.add] and [Complex.sub] in their order, and
    each stage's twiddles follow the recurrence w{_0} = 1,
    w{_k+1} = w{_k}·(cos θ, sin θ). Results are therefore bit-identical
    to a transform over boxed [Complex.t] values. *)

val next_pow2 : int -> int
(** Smallest power of two >= max 1 n.
    @raise Invalid_argument if [n] exceeds the largest power of two an
    [int] holds (2{^61} on 64 bits). *)

type plan
(** What a forward transform's length fixes, built once: the
    bit-reversal swaps and every stage's twiddles. Read-only once
    built, so domains may share one. A plan lives where its caller
    keeps it ({!Spectrum.analyzer} keeps one per analyzer); there is
    no process-wide table. *)

val plan : int -> plan
(** [plan n]: the forward plan for [n]-point transforms, built by one
    bit-reversal walk and one run of each stage's twiddle recurrence.
    It holds the swap pairs and n − 1 twiddles of each part.
    @raise Invalid_argument unless [n] is a positive power of two. *)

val execute : plan -> re:float array -> im:float array -> unit
(** In-order forward DIT FFT of the complex vector [(re, im)] over the
    plan, overwriting both arrays with the spectrum. Allocates nothing.
    @raise Invalid_argument unless both arrays have the plan's
    length. *)

val forward_in_place : re:float array -> im:float array -> unit
(** {!execute} over a plan built for this one call.
    @raise Invalid_argument unless both arrays have the same length
    and it is a positive power of two. *)

val forward : Complex.t array -> Complex.t array
(** {!forward_in_place} on a copy of a boxed vector.
    @raise Invalid_argument unless the length is a positive power of
    two. *)

val inverse : Complex.t array -> Complex.t array
(** Inverse transform, scaled by 1/n; [inverse (forward x) ~= x].
    Same kernel, over a plan of the opposite sign built for the call,
    and the same length requirement. *)

val bin_frequency : n:int -> fs:float -> int -> float
(** Center frequency of bin [i] of an [n]-point transform at sampling
    rate [fs]. *)
