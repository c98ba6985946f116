(** Radix-2 fast Fourier transform.

    Self-contained (no external FFT dependency); used to compute the
    frequency spectra of Fig. 5. Arbitrary-length real signals are
    handled by zero-padding to the next power of two.

    One kernel does every transform: an in-place decimation-in-time
    FFT over split real and imaginary float arrays. Each butterfly
    performs the float operations of [Complex.mul], [Complex.add] and
    [Complex.sub] in their order, and each stage's twiddles follow the
    recurrence w{_0} = 1, w{_k+1} = w{_k}·(cos θ, sin θ), computed once
    per stage in each call (no table shared between calls or domains).
    Results are therefore bit-identical to a transform over boxed
    [Complex.t] values. *)

val next_pow2 : int -> int
(** Smallest power of two >= max 1 n. *)

val forward_in_place : re:float array -> im:float array -> unit
(** In-order forward DIT FFT of the complex vector [(re, im)],
    overwriting both arrays with the spectrum. Allocates only the
    call's twiddle buffers.
    @raise Invalid_argument unless both arrays have the same length
    and it is a positive power of two. *)

val forward : Complex.t array -> Complex.t array
(** {!forward_in_place} on a copy of a boxed vector.
    @raise Invalid_argument unless the length is a positive power of
    two. *)

val inverse : Complex.t array -> Complex.t array
(** Inverse transform, scaled by 1/n; [inverse (forward x) ~= x].
    Same kernel and length requirement. *)

val bin_frequency : n:int -> fs:float -> int -> float
(** Center frequency of bin [i] of an [n]-point transform at sampling
    rate [fs]. *)
