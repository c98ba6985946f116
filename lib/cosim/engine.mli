(** The wrapped co-simulation path (the paper's Fig. 5 loop).

    Runs one core test through a wrapper as one batch pass: the
    stimulus codes go through the wrapper's DAC, the DUT
    ({!Dut.batch}) and the wrapper's ADC —
    {!Msoc_mixedsig.Wrapper.apply_core_test}. On the TAM clock, one
    sample period is [serial_to_parallel · divide_ratio] cycles: a
    stimulus word crosses the TAM, the DAC converts it, the DUT
    advances one sample, and one period later the ADC captures the
    response and the word leaves over the TAM. Scan-in and scan-out
    overlap, so the record ends at
    {!Msoc_mixedsig.Wrapper.test_cycles}.

    The pass is exact: the converters are memoryless per sample (their
    mismatch is drawn when they are built), and the DUT's state
    (filter sections, slew, noise stream) advances in sample order, as
    it would one sample at a time. The test suite checks the result
    against an event-driven reference that runs the chain one
    boundary crossing at a time. *)

type trace = {
  samples : int;
  tam_cycles : int;
      (** time of the last capture = wrapper test time,
          {!Msoc_mixedsig.Wrapper.test_cycles} for the record *)
  scheduler : Scheduler.stats;
      (** the boundary-crossing counts of the record, in closed form *)
  response : int array;  (** digitized response codes, in order *)
}

val run :
  wrapper:Msoc_mixedsig.Wrapper.t -> dut:Dut.t -> stimulus_codes:int array ->
  trace
(** [run_core ~wrapper ~core:(Dut.batch dut) ~stimulus_codes].
    @raise Invalid_argument if the wrapper is not in [Core_test] mode,
    a stimulus code is out of range, or the record is empty. *)

val run_core :
  wrapper:Msoc_mixedsig.Wrapper.t -> core:Msoc_mixedsig.Analog_models.t ->
  stimulus_codes:int array -> trace
(** The wrapped path through an already built DUT model: a testbench
    trial builds its DUT's {!Dut.batch} once and passes the same model
    to its direct path and here. Same errors as {!run}. *)
