(** Shared analog test wrapper (paper Fig. 2).

    One converter pair serves several analog cores through analog
    multiplexers; the wrapper is sized for the pointwise-max
    requirement of its member cores (§3) and runs their tests strictly
    one at a time. The mux adds a small parasitic crosstalk tone to
    the signal path — an accepted, bounded noise source in analog test
    buses (the paper cites design methods that alleviate it; the
    [crosstalk] knob lets benches quantify it). *)

type t

type run = {
  core_label : string;
  test_name : string;
  start_cycle : int;
  finish_cycle : int;
}

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

val requirement : t -> Msoc_analog.Spec.requirement
(** Merged sizing requirement (resolution, speed, width). *)

val bits : t -> int

val run_test :
  t ->
  core_label:string ->
  core:(float array -> float array) ->
  test:Msoc_analog.Spec.test ->
  stimulus:int array ->
  int array
(** Reconfigure (mux to [core_label], divide ratio, serial↔parallel
    rate), run, and log the occupancy. Tests are serialized by
    construction: each run starts when the previous one finished.
    @raise Invalid_argument if [core_label] is not a member. *)

val schedule : t -> run list
(** Completed runs in execution order. *)

val usage_cycles : t -> int
(** Total TAM cycles consumed so far = Σ test cycles of the runs —
    the quantity whose maximum over wrappers is the paper's analog
    test-time lower bound. *)

val reconfigurations : t -> int
(** Number of control-register loads performed. *)
