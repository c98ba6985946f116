(** One-sided magnitude spectra and tone measurements.

    Produces the |LPF i/p|, |LPF o/p| and |Wrapper o/p| series of the
    paper's Fig. 5 and the tone-level measurements behind the cut-off
    extraction. *)

type scratch
(** The buffers one spectrum lives in: an [n_fft]-point split FFT
    buffer (real and imaginary parts) holding the transform, and the
    [n_fft/2 + 1] one-sided magnitudes {!magnitudes} writes, an array
    taken on its first call (a readout of a few bins never takes it). A
    caller that analyzes one record after another keeps one scratch and
    lends it to {!analyzer_into} for each. A spectrum reads its
    scratch's transform whenever one of its bins is read, so it is
    valid until the scratch's next analysis, and the array
    {!magnitudes} returns until the scratch's next use. The next
    analysis and {!magnitudes} write the scratch: one domain uses it at
    a time. *)

type t = private {
  fs : float;
  n_signal : int;  (** samples before zero-padding *)
  n_fft : int;
  window : Window.t;
  bins : scratch;  (** the transform the spectrum's bins are read from *)
}
(** A one-sided spectrum, bins 0 .. n_fft/2. A bin's modulus |X[k]| is
    taken when a readout reads it, so a readout of a few bins
    ({!tone_amplitude}) takes a few moduli. *)

val scratch : int -> scratch
(** [scratch n_fft]: uninitialized split FFT buffers for [n_fft]-point
    spectra (every analysis overwrites all of them before reading).
    @raise Invalid_argument if [n_fft < 1]. *)

val analyzer_into :
  ?window:Window.t -> ?pad_to:int -> fs:float -> int -> scratch -> float array -> t
(** [analyzer_into ~fs n] builds what {!analyzer} builds (the window's
    [n] coefficients and the {!Fft.plan} for the padded length, once)
    and computes each spectrum in the scratch it is given, allocating
    no array: the spectrum reads the scratch's own buffers.
    Bit-identical to {!analyzer}'s spectra.
    @raise Invalid_argument as {!analyzer}, and, when applied, on a
    scratch built for another FFT length. *)

val analyzer :
  ?window:Window.t -> ?pad_to:int -> fs:float -> int -> float array -> t
(** [analyzer ~fs n] is {!analyze} for records of [n] samples, with
    the window's [n] coefficients and the {!Fft.plan} for the padded
    length built once, here, and reused by every record it is applied
    to (as [Quantize.encode ~bits ~range] computes its step once).
    Each spectrum is computed in a fresh {!scratch}, so it owns its
    arrays. The closure only reads the plan and the coefficients, so
    domains may share it. Each spectrum is bit-identical to
    {!analyze}'s.
    @raise Invalid_argument if [fs] is not finite and positive (NaN
    included), [n <= 0], [pad_to < n] or [pad_to] is not a power of
    two (all when the analyzer is built), and, when
    applied, on a record whose length is not [n]. Without [pad_to],
    [n] is padded to {!Fft.next_pow2}[ n]; with it, that is not
    computed. *)

val analyze :
  ?window:Window.t ->
  ?pad_to:int -> fs:float -> float array -> t
(** Windowed (default Hann), zero-padded FFT magnitude spectrum:
    [analyzer ?window ?pad_to ~fs (Array.length x) x], so one plan is
    built per call. {!Fft.execute_windowed} writes each windowed
    sample straight into its bit-reversed slot of a [pad_to]-point
    split buffer (default: the next power of two of its length) and
    transforms it in place; a one-sided bin takes [Float.hypot] when
    it is read. The magnitudes are
    bit-identical to windowing, padding, transforming and taking the
    modulus of boxed [Complex.t] values.
    @raise Invalid_argument on an [fs] that is not finite and positive
    (NaN included), an empty record, or a [pad_to] smaller than the
    record or not a power of two. *)

val magnitudes : t -> float array
(** Every one-sided bin's |X[k]|, 0 .. n_fft/2, written into the
    scratch's magnitude array and returned: each bin takes its modulus
    once per call, and the array is the scratch's, valid until its next
    use. For a readout over the whole spectrum
    ({!Distortion.sinad_db}). *)

val bin_of_freq : t -> float -> int
(** Nearest bin. @raise Invalid_argument outside [0, fs/2] (a NaN
    frequency included). *)

val tone_amplitude : t -> float -> float
(** Peak amplitude of the tone nearest [f]: searches ±2 bins around
    the nominal bin and compensates FFT length and window coherent
    gain, so a unit sine reports ≈ 1.0. Takes the modulus of those five
    bins alone; bit-identical to reading them from {!magnitudes}. *)

val tone_level_db : t -> float -> float
(** [20 log10 (tone_amplitude t f)]. *)
