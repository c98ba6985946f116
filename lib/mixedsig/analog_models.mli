(** Behavioral (sampled-domain) models of the analog cores under test.

    A core model maps an analog input record to an analog output
    record at the wrapper's sampling rate. These models give the
    co-simulation testbench ([Msoc_cosim.Testbench], through
    [Msoc_cosim.Dut]) ground truth to extract: each
    knob below corresponds to a specification tested in Table 2
    (pass-band gain, cut-off, THD via third-order nonlinearity, IIP3,
    DC offset, slew rate, dynamic range via the noise floor).

    Each stage's arithmetic is written once, as an in-place {!kernel}
    (a [for] loop over the float array, nothing allocated per sample).
    A DUT pipeline ([Msoc_cosim.Dut.batch]) runs the kernels over one
    buffer per record. *)

type t = float array -> float array
(** A record-to-record model: reads its input, returns a fresh
    output. *)

type kernel = float array -> unit
(** A stage that overwrites its record with its output, sample [i]
    depending only on samples [0 .. i] (filter and slew state advance
    in sample order). *)

val remove_bias_into : bias:float -> float array -> into:float array -> unit
(** [remove_bias_into ~bias x ~into] writes [x.(i) -. bias] into
    [into.(i)]: the AC component a core sees around its operating
    point. [into] may be [x] itself.
    @raise Invalid_argument if [into]'s length differs from [x]'s. *)

val gain_in_place : float -> kernel
(** Memoryless linear gain. *)

val dc_offset_in_place : float -> kernel
(** Adds a constant. *)

val polynomial_in_place : a1:float -> a2:float -> a3:float -> kernel
(** Memoryless nonlinearity [a1·x + a2·x² + a3·x³] — produces the
    harmonic and intermodulation distortion the THD and IIP3 tests
    measure. The third-order intercept of this model is at input
    amplitude [sqrt(4/3 · |a1/a3|)]. *)

val lowpass_in_place : order:int -> fc:float -> fs:float -> kernel
(** Butterworth low-pass core (the Fig. 5 core). The filter is
    designed when the three labels are applied
    ({!Msoc_signal.Filter.process_in_place} runs it).
    @raise Invalid_argument as
    {!Msoc_signal.Filter.butterworth_lowpass}. *)

val slew_limited_in_place : max_slew_v_per_s:float -> fs:float -> kernel
(** Rate limiter: output follows input but moves at most
    [max_slew/fs] volts per sample — the imperfection a slew-rate
    test quantifies. @raise Invalid_argument, when applied to a
    record, on a slew that is not positive (NaN included) or a NaN
    [fs]. *)

val additive_noise_in_place : ?seed:int -> sigma:float -> kernel
(** Deterministic Gaussian noise source (fresh stream per call using
    [seed]); sets the noise floor that a dynamic-range test measures.
    It adds [sigma] times the first [n] standard-normal values of the
    stream {!gaussian_draws_into} writes for [seed], [n] the record's
    length. *)

val gaussian_draws_into : seed:int -> float array -> unit
(** [gaussian_draws_into ~seed draws] overwrites [draws] with the first
    [Array.length draws] standard-normal values of the stream seeded
    with [seed] ({!Msoc_util.Rng.fill_gaussian}: Box–Muller, two
    uniforms per value), allocating no array: a buffer one Monte-Carlo
    trial after another refills. The [i]-th value depends on [seed]
    and [i] only, so a longer draw extends a shorter one. *)

val add_draws_in_place : sigma:float -> float array -> kernel
(** [add_draws_in_place ~sigma draws x] adds [sigma *. draws.(i)] to
    sample [i]: the noise stage with its draws made in advance, so one
    draw can serve several records of the same length.
    @raise Invalid_argument if the record is longer than [draws]. *)
