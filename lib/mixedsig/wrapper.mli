(** Behavioral analog test wrapper (paper Fig. 1).

    The wrapper turns an analog core into a virtual digital core: test
    stimuli arrive as digital words over [tam_width] TAM wires, are
    deserialized into converter samples, played into the core through
    the DAC, and the core's analog response is digitized by the ADC
    and serialized back onto the TAM. A digital control block selects,
    per test, the TAM clock divide ratio (setting the sampling
    frequency), the serial↔parallel conversion rate, and the mode. *)

type mode =
  | Normal  (** mission mode: the core's analog I/O bypass the wrapper *)
  | Self_test  (** DAC looped directly into ADC, converters test themselves *)
  | Core_test  (** stimulus → DAC → core → ADC → response *)

type config = {
  mode : mode;
  divide_ratio : int;  (** f_sample = system clock / divide_ratio *)
  serial_to_parallel : int;  (** TAM words per converter sample = ⌈bits/width⌉ *)
  tam_width : int;
}

type t

val create :
  ?adc:Adc.t ->
  ?dac:Dac.t ->
  bits:int ->
  unit ->
  t
(** A wrapper around the given converters (defaults: ideal modular
    pipeline ADC and modular DAC of [bits] resolution) in [Normal]
    mode with unit ratios. @raise Invalid_argument if supplied
    converter resolutions disagree with [bits]. *)

val bits : t -> int

val adc : t -> Adc.t

val dac : t -> Dac.t

val config : t -> config

val set_mode : t -> mode -> t

val configure_for_test :
  t -> system_clock_hz:float -> Msoc_analog.Spec.test -> t
(** Reconfigure for one of Table 2's tests: divide ratio =
    ⌊system clock / f_sample⌋ (>= 1), serial↔parallel ratio =
    ⌈bits/tam_width⌉, mode = [Core_test].
    @raise Invalid_argument if the test's sampling rate exceeds the
    system clock. *)

val sample_rate_hz : t -> system_clock_hz:float -> float
(** Actual sampling frequency implied by the divide ratio. *)

val test_cycles : t -> samples:int -> int
(** TAM clock cycles to stream [samples] stimulus words in and the
    response words out: [samples · serial_to_parallel · divide_ratio]
    — scan-in and scan-out overlap, the converters pipeline. *)

val apply_core_test :
  t -> core:(float array -> float array) -> stimulus:int array -> int array
(** Run a core test: stimulus codes → DAC → [core] (a sampled-domain
    model of the analog core) → ADC → response codes.
    @raise Invalid_argument if the mode is not [Core_test] or a code
    is out of range. *)

val apply_core_test_into :
  t -> core:(float array -> unit) -> codes:int array -> samples:float array -> unit
(** {!apply_core_test} in two buffers, allocating no array: the DAC
    converts the stimulus codes in [codes] into [samples], [core]
    overwrites [samples] with the core's response (an in-place
    kernel), and the ADC converts it back into [codes], which then
    hold the response codes. Bit-identical to {!apply_core_test} with
    the record-to-record version of [core].
    @raise Invalid_argument as {!apply_core_test}, or if the two
    buffers differ in length. *)

val self_test_max_error_lsb : t -> samples:int -> float
(** [Self_test] mode: play a full-scale code ramp through DAC→ADC and
    report the worst |response − stimulus| in LSBs. An ideal wrapper
    reports <= 1. @raise Invalid_argument if the mode is not
    [Self_test]. *)
