(** Radix-2 fast Fourier transform.

    Self-contained (no external FFT dependency); used to compute the
    frequency spectra of Fig. 5. Arbitrary-length real signals are
    handled by zero-padding to the next power of two.

    One kernel does the transform: the decimation-in-time stages over
    split real and imaginary float arrays, in place, run over a
    {!plan} on a vector in bit-reversed order. The stages run as
    radix-2{^2} passes: each pass loads a group of four values, runs
    two radix-2 stages over it in registers and stores it, so a
    2{^13}-point transform makes seven passes over its buffers, not
    thirteen; when log2 n is odd one plain stage ends it. Each
    butterfly performs the float operations of [Complex.mul],
    [Complex.add] and [Complex.sub] in their order, and each stage's
    twiddles follow the recurrence w{_0} = 1,
    w{_k+1} = w{_k}·(cos θ, sin θ). Results are therefore bit-identical
    to a radix-2 transform over boxed [Complex.t] values.

    Its entry, {!execute_windowed}, writes each windowed sample
    straight into its bit-reversed slot. The passes read and write
    without bounds checks; the entry checks, before any loop, that its
    buffers have the plan's length and its coefficients fit the plan
    and the record, and a plan holds exactly the indices and twiddles
    its length needs. *)

val next_pow2 : int -> int
(** Smallest power of two >= max 1 n.
    @raise Invalid_argument if [n] exceeds the largest power of two an
    [int] holds (2{^61} on 64 bits). *)

type plan
(** What a forward transform's length fixes, built once: each
    index's bit reversal and every stage's twiddles. Read-only once
    built, so domains may share one. A plan lives where its caller
    keeps it ({!Spectrum.analyzer} keeps one per analyzer); there is
    no process-wide table. *)

val plan : int -> plan
(** [plan n]: the forward plan for [n]-point transforms, built by one
    bit-reversal walk and one run of each stage's twiddle recurrence.
    It holds [n] slot indices and n − 1 twiddles of each part.
    @raise Invalid_argument unless [n] is a positive power of two. *)

val execute_windowed :
  plan -> coefs:float array -> float array -> re:float array -> im:float array -> unit
(** [execute_windowed p ~coefs x ~re ~im] overwrites [re] and [im]
    with the forward spectrum of the real record [x.(i) *. coefs.(i)],
    [i < Array.length coefs], zero-padded to the plan's length: each
    windowed sample is written straight into its bit-reversed slot of
    [re], every other slot of [re] and all of [im] are zeroed, and the
    stages run. Whatever the buffers held before is ignored. Allocates
    nothing.
    @raise Invalid_argument unless both buffers have the plan's
    length and [coefs] is no longer than it or than [x]. *)
