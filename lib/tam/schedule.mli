(** Test schedules on a flexible-width TAM and their validity.

    A schedule assigns each job a start time, an operating width and a
    concrete set of TAM wires (fork-and-merge TAMs may tap any subset
    of the [w] SOC-level wires, so wire sets need not be contiguous).
    {!check} is the one structural check of a schedule: the packer
    registry certifies every pack with it and [Msoc_check] maps its
    violations to MSOC codes. *)

type placement = {
  job : Job.t;
  start : int;
  width : int;
  time : int;
  wires : int list;  (** wire indices in [0, total_width), length = width *)
}

type t = {
  total_width : int;
  power_budget : int option;
      (** cap on Σ power of concurrently running jobs, if any *)
  placements : placement list;  (** in non-decreasing start order *)
}

val finish : placement -> int
(** [start + time]. *)

val makespan : t -> int
(** 0 for an empty schedule. *)

val efficiency : t -> float
(** [wire_busy_cycles / (total_width * makespan)], in (0, 1]. *)

val peak_power : t -> int
(** Maximum over time of Σ power of running jobs, from {!check}'s
    running power sum. *)

(** One broken fact; the MSOC code [Msoc_check] reports for it is
    given with each constructor. Intervals are half-open:
    [[start, start + time)]. *)
type violation =
  | Wire_conflict of { wire : int; first : string; second : string }
      (** E101: a wire carries two overlapping placements *)
  | Capacity_exceeded of { at : int; busy : int; total_width : int }
      (** E102: the summed width of running placements, independent of
          the wire lists, exceeds the TAM at cycle [at] *)
  | Degenerate_rectangle of { label : string; start : int; width : int; time : int }
      (** E103: non-positive width or time, or a negative start *)
  | Wider_than_tam of { label : string; width : int; total_width : int }
      (** E104 *)
  | Wire_out_of_range of { label : string; wire : int }  (** E105 *)
  | Wrong_wire_count of { label : string; expected : int; got : int }
      (** E105: the wire list's length is not the width *)
  | Duplicate_wire of { label : string; wire : int }
      (** E105: one wire listed twice by one placement *)
  | Exclusion_overlap of { group : int; first : string; second : string }
      (** E106: two placements of one exclusion group (a shared analog
          wrapper) overlap *)
  | Duplicate_job of { label : string; count : int }
      (** E107: an expected job placed more than once *)
  | Missing_job of { label : string }  (** E108: an expected job never placed *)
  | Unexpected_job of { label : string }
      (** E109: a placement whose label is not expected *)
  | Bad_operating_point of { label : string }
      (** E110: (width, time) is not on the job's staircase *)
  | Precedence_violation of { label : string; predecessor : string }
      (** E111: predecessor placed but not finished before [label] starts *)
  | Missing_predecessor of { label : string; predecessor : string }  (** E111 *)
  | Conflict_overlap of { first : string; second : string }
      (** E113: jobs declared mutually conflicting run concurrently *)
  | Power_exceeded of { at : int; total : int; budget : int }
      (** E114: the running power sum exceeds the budget at cycle [at] *)

val check : ?expected:Job.t list -> t -> violation list
(** [check ?expected schedule] is empty iff the schedule is feasible.
    One sweep over the placements sorted by start keeps each wire's
    and each exclusion group's latest finish in int arrays, looks
    predecessors and conflicts up by label, and keeps running sums of
    busy width and power; each capacity and power excess is reported
    at its first cycle only. Wires outside [0, total_width) are
    reported and take no part in the double-booking check.

    With [expected], every expected job must be placed exactly once
    and no other label placed (E107–E109), and each placement is
    checked against the expected job with its label — staircase,
    exclusion group, power, predecessors and conflicts — rather than
    against the job record it carries. *)

val pp_violation : Format.formatter -> violation -> unit
(** The one message renderer, for the registry's certificate and for
    [Msoc_check]'s diagnostics. *)
