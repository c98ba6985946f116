(** Cost cross-checks: recompute an evaluation's figures from scratch.

    [C_A] is recomputed through Equation 1 ({!Msoc_analog.Area.cost_ca}
    under the problem's area model), [C_T] from the schedule's
    recomputed makespan normalized to the reference, and the total
    cost as the weighted sum; each is compared against the
    [Evaluate]-reported figure within a relative tolerance of 1e-6:
    loose enough for float re-association, far tighter than any real
    divergence. Also
    verifies that the sharing combination exactly partitions the
    problem's analog cores (E205) and flags the zero-reference
    convention (W201). *)

val evaluation :
  problem:Msoc_testplan.Problem.t ->
  reference_makespan:int ->
  Msoc_testplan.Evaluate.evaluation ->
  Diagnostic.t list
