(** Close the loop: co-sim-measured test times back into the planner.

    The catalog's Table-2 test lengths are the paper's nominal
    figures. This module re-derives them from the co-simulation: each
    analog test is matched to a {!Testbench} program, its wrapper is
    configured for the test's sampling rate and TAM width
    ({!Msoc_mixedsig.Wrapper.configure_for_test}), the program runs
    through the wrapped path, and the measured record time in TAM
    cycles ([samples · serial_to_parallel · divide_ratio], the
    wrapper's {!Msoc_mixedsig.Wrapper.test_cycles}) replaces the
    nominal [cycles]. The calibrated cores drop straight into
    {!Msoc_testplan.Problem} — a plan over co-sim-measured times
    instead of datasheet estimates — and every such plan re-verifies
    through [Msoc_check]. *)

type measured = {
  test : Msoc_analog.Spec.test;  (** the nominal catalog entry *)
  spec : Testbench.spec;  (** the co-sim program that measured it *)
  measured_cycles : int;  (** TAM cycles of the record under the test's wrapper *)
  value : float;  (** the wrapped-path specification readout *)
  error_pct : float;  (** wrapped vs direct *)
  pass : bool;  (** the program's verdict: [error_pct] within the spec's tolerance *)
}

val measure_core :
  ?config:Testbench.config ->
  system_clock_hz:float ->
  Msoc_analog.Spec.core ->
  measured list
(** One co-sim run per test of the core, at the test's own sampling
    rate and resolution. [config] seeds everything but [fs] and
    [bits], which each test dictates.
    @raise Invalid_argument if a test samples faster than
    [system_clock_hz] (the wrapper cannot divide up). *)

val calibrated_problem :
  ?config:Testbench.config ->
  system_clock_hz:float ->
  soc:Msoc_itc02.Types.soc ->
  analog_cores:Msoc_analog.Spec.core list ->
  tam_width:int ->
  weight_time:float ->
  unit ->
  Msoc_testplan.Problem.t * measured list list
(** A planning problem whose analog time points are the co-sim
    measurements — per-core measurement reports alongside. *)

val calibration_json : measured list list -> Msoc_testplan.Export.json
(** Per-test nominal vs measured cycles, values, errors and
    verdicts. *)
