(** Branch-and-bound over the sharing-partition tree.

    Cores are assigned one at a time (longest serial test time first):
    each tree node either adds the next core to one of the formed
    groups (when pairwise compatible under the problem's policy) or
    opens a new group, so every set partition appears exactly once.
    Children are explored cheapest bound first; a child whose bound
    already reaches the incumbent's cost is pruned, and since the
    bound is admissible the returned cost is optimal over the same
    candidate space {!Msoc_testplan.Problem.all_combinations}
    enumerates — without ever materializing it.

    The tree is walked in place on {!Bound}'s per-core tables: each
    formed group keeps its member indices, serial time and Eq. 1 term,
    and each child is applied, priced with {!Bound.floor} and undone,
    so no group list is rebuilt per child. Complete partitions
    equivalent up to exchange of identical cores are evaluated once
    ({!Msoc_analog.Sharing.equivalence_key}).

    The incumbent is seeded with no-sharing (and full sharing when
    feasible) so pruning bites from the first descent, and under a
    {!Budget} the search stops early and reports the incumbent with
    [optimal = false]. At least one evaluation always happens, even on
    an expired deadline. *)

type result = {
  best : Msoc_testplan.Evaluate.evaluation;
  stats : Stats.t;
  optimal : bool;
      (** the tree was exhausted — [best] is the optimum over the full
          filtered partition space; [false] means the budget cut the
          search and [best] is the anytime incumbent *)
}

val run : ?budget:Budget.t -> Msoc_testplan.Evaluate.prepared -> result
(** @raise Msoc_tam.Packer.Infeasible as {!Msoc_testplan.Evaluate.evaluate}. *)
