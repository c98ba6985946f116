(** Schedulable test jobs for the flexible-width TAM architecture.

    A job is one core test seen by the TAM optimizer: a label, the
    Pareto staircase of (width, time) operating points, and an optional
    mutual-exclusion group. Jobs in the same exclusion group share one
    analog test wrapper and therefore may never overlap in time
    (paper §3: "tests for cores sharing the same wrapper are scheduled
    serially in time").

    Three optional attributes extend the paper's model:
    - [power]: the test's power consumption in arbitrary consistent
      units; {!Packer.pack} can cap the instantaneous sum (scan-heavy
      SOC tests are routinely power-limited);
    - [predecessors]: labels of jobs that must complete first (e.g. a
      wrapper's converter self-test gating its core tests);
    - [conflicts]: labels of jobs this one may never overlap with,
      beyond wire sharing (e.g. an EXTEST interconnect test occupies
      both end-cores' wrappers, so it conflicts with their internal
      tests). The relation is treated symmetrically. *)

type t = {
  label : string;
  staircase : Msoc_wrapper.Pareto.t;
  exclusion : int option;
  power : int;  (** >= 0; 0 = ignore under any power budget *)
  predecessors : string list;
  conflicts : string list;
}

val analog : label:string -> width:int -> time:int -> group:int -> t
(** Fixed-shape rectangle (analog test time does not scale with TAM
    wires) bound to exclusion group [group].
    @raise Invalid_argument unless [width] and [time] are positive. *)

val of_core : Msoc_itc02.Types.core -> max_width:int -> t
(** Digital job from a core description: designs wrappers at widths
    1..[max_width] and keeps the staircase. *)

val with_power : t -> int -> t
(** @raise Invalid_argument on negative power. *)

val with_predecessors : t -> string list -> t

val with_conflicts : t -> string list -> t

val min_time : t -> int
(** Time at the widest operating point. *)

val min_width : t -> int

val area : t -> int
(** Smallest width x time product over the staircase — the wire-cycles
    the job must occupy no matter how it is scheduled. *)
