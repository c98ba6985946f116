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
(** The record through {!Msoc_mixedsig.Wrapper.apply_core_test} with
    the DUT's record-at-once model ({!Dut.batch}), every stage into a
    fresh array.
    @raise Invalid_argument if the wrapper is not in [Core_test] mode,
    a stimulus code is out of range, or the record is empty. *)

val run_core :
  wrapper:Msoc_mixedsig.Wrapper.t -> core:Msoc_mixedsig.Analog_models.kernel ->
  codes:int array -> samples:float array -> trace
(** The same chain in two buffers of the caller's, through an in-place
    core ({!Msoc_mixedsig.Wrapper.apply_core_test_into}): the DAC
    converts the stimulus codes in [codes] into [samples], [core]
    overwrites [samples], and the ADC writes the response back into
    [codes], which is the trace's [response] (not a copy). The counts
    are {!run}'s. A testbench trial runs it in its workspace's buffers
    ({!Testbench.workspace}), with the DUT model its direct path runs
    ({!Dut.batch_into}).
    @raise Invalid_argument as {!run}, or if the two buffers differ in
    length. *)
