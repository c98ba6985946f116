(** Built-in self-test of the wrapper's own data converters.

    The paper defers the cost of testing the ADC/DAC pair to future
    work ("we are investigating the cost of testing the data
    converters in the analog test wrappers"; §5 points at histogram /
    code-density BIST techniques [16-18]). This module supplies that
    cost model and the loopback measurement itself, so the planner can
    charge each wrapper a self-test job that must precede its core
    tests (Fig. 1's self-test mode). *)

val self_test_cycles : bits:int -> tam_width:int -> ?hits_per_code:int -> unit -> int
(** TAM cycles the self-test occupies: the control words stream over
    the wrapper's own TAM wires, so
    [ramp_samples · ⌈bits/tam_width⌉]. Default [hits_per_code = 4].
    The self-test runs the converters at full rate (divide ratio 1) —
    it is digital-logic bound, not signal-band bound. *)

(** Result of a DAC→ADC loopback linearity sweep. *)
type linearity = {
  max_code_error : int;  (** worst |ADC(DAC(c)) − c| over all codes *)
  mean_abs_error : float;
  monotonic : bool;  (** ADC(DAC(c)) non-decreasing in c *)
}

val loopback_linearity : Wrapper.t -> linearity
(** Sweep every code through the wrapper's converter pair (self-test
    mode semantics). An ideal wrapper reports
    [{ max_code_error = 0; mean_abs_error = 0.; monotonic = true }]. *)

val passes : linearity -> bool
(** The acceptance: [max_code_error <= 1] and monotonic. *)

(** Sine-histogram linearity test (IEEE 1241 style) — the method the
    converter-BIST literature the paper cites builds on: digitize a
    slightly over-ranged sine, histogram the codes, and recover each
    code transition level from the cumulative histogram through the
    arcsine law. Needs no linear ramp source, only a pure tone. *)
type histogram_result = {
  samples : int;
  inl_lsb : float;  (** max |INL| after best-fit gain/offset removal *)
  dnl_lsb : float;  (** max |DNL| *)
  missing_codes : int;  (** codes that never occurred *)
}

val sine_histogram :
  ?samples:int ->
  ?overdrive:float -> Adc.t -> histogram_result
(** [sine_histogram adc] drives an analytically generated sine
    covering [overdrive] (default 1.05) times the full range through
    the ADC ([samples] defaults to 2^17). An ideal converter reports
    INL/DNL well under 0.5 LSB; mismatched comparator banks show their
    true linearity. *)
