(** Verification of a packed TAM schedule, as MSOC diagnostics.

    The structural facts are {!Msoc_tam.Schedule.check}'s, the one
    schedule check: each violation becomes an error with its code and
    {!Msoc_tam.Schedule.pp_violation}'s message —

    - no wire carries two overlapping tests (E101) and, independently
      of the recorded wire lists, the summed busy width never exceeds
      the TAM width (E102);
    - every rectangle is positive and starts at or after 0 (E103),
      fits the TAM (E104) and has a well-formed wire list (E105);
    - every test runs at a point on its job's Pareto staircase (E110);
    - tests bound to one shared analog wrapper (exclusion group) never
      overlap (E106), precedences hold (E111), declared conflicts never
      overlap (E113) and the power budget holds at every instant
      (E114);
    - against an expected job set: every job placed exactly once
      (E107/E108/E109), each placement checked against the expected
      job with its label, not the job record it carries.

    On top of those, this module adds the reported-makespan cross-check
    (E112) and the empty-schedule warning (W101). *)

val run :
  ?expected:Msoc_tam.Job.t list ->
  ?reported_makespan:int ->
  Msoc_tam.Schedule.t ->
  Diagnostic.t list
(** [run ?expected ?reported_makespan schedule] returns the findings
    in deterministic order; [[]] means the schedule verifies clean.
    [expected] enables the exactly-once checks and makes each
    placement be checked against the expected job with its label
    rather than the record it carries; [reported_makespan] enables
    the makespan cross-check. *)
