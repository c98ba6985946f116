(** Shared analog test wrapper (paper Fig. 2).

    One converter pair serves several analog cores through analog
    multiplexers; the wrapper is sized for the pointwise-max
    requirement of its member cores (§3) and runs their tests strictly
    one at a time. The mux adds a small parasitic crosstalk tone to
    the signal path — an accepted, bounded noise source in analog test
    buses (the paper cites design methods that alleviate it; the
    [crosstalk] knob lets benches quantify it). *)

type t

val create :
  ?crosstalk:float ->
  ?system_clock_hz:float ->
  Msoc_analog.Spec.core list ->
  t
(** Wrapper sized for the given member cores. [crosstalk] is the
    parasitic tone amplitude in volts (default 1 mV);
    [system_clock_hz] defaults to 50 MHz (the paper's demo clock).
    @raise Invalid_argument on an empty member list or a member whose
    sampling requirement exceeds the system clock. *)

val run_test :
  t ->
  core_label:string ->
  core:(float array -> float array) ->
  test:Msoc_analog.Spec.test ->
  stimulus:int array ->
  int array
(** Reconfigure (mux to [core_label], divide ratio, serial↔parallel
    rate) and run one test: the stimulus codes through the DAC, the
    core with the mux's crosstalk tone added, and the ADC.
    @raise Invalid_argument if [core_label] is not a member. *)
