(** Top-level verification entry points: schedule + cost passes over a
    produced plan or evaluation, independent of the optimizer that
    produced it. The expected job set is re-derived from the problem
    ({!Msoc_testplan.Evaluate.jobs_for_problem}), so a schedule that
    dropped, duplicated or invented a test is caught even when the
    packer's own bookkeeping is consistent. *)

val evaluation :
  problem:Msoc_testplan.Problem.t ->
  reference_makespan:int ->
  Msoc_testplan.Evaluate.evaluation ->
  Diagnostic.t list
(** Schedule checks (against the re-derived job set and the reported
    makespan) followed by cost cross-checks. *)

val plan : Msoc_testplan.Plan.t -> Diagnostic.t list
(** {!evaluation} applied to the plan's best evaluation under the
    plan's problem and reference makespan. [[]] means clean. *)
