(** Parallel strategy portfolio: branch-and-bound raced against a
    family of annealing walks with distinct seeds, cheapest result
    wins.

    Each member builds its own {!Msoc_testplan.Evaluate.prepare} — the
    schedule memo is per-prepared, single-domain state, so members
    never share mutable caches and can run on
    {!Msoc_util.Pool} worker domains. An eval cap of [n] over [k]
    members gives each [n / k] evaluations and the first [n mod k] one
    more; a member whose share is 0 does not run (branch-and-bound,
    first, always runs), so the portfolio never evaluates more than
    [n] times. The deadline (an absolute instant) is shared, so all
    members stop together. The winner is picked by cost with ties
    to the earlier member in the fixed order (branch-and-bound first,
    then the seeds in the given order) — parallel runs return exactly
    what the serial run returns. *)

type member_result = {
  member : string;  (** ["bnb"] or ["anneal:<seed>"] *)
  cost : float;
  optimal : bool;
  stats : Stats.t;
}

type result = {
  best : Msoc_testplan.Evaluate.evaluation;
  stats : Stats.t;  (** {!Stats.merge} of the members *)
  optimal : bool;
      (** some member proved optimality (its branch-and-bound tree was
          exhausted) *)
  members : member_result list;
      (** the members that ran, in the fixed member order *)
}

val run :
  ?pool:Msoc_util.Pool.t ->
  ?budget:Budget.t ->
  ?seeds:int list ->
  Msoc_testplan.Problem.t ->
  result
(** [seeds] defaults to [[1; 2; 3]] (three annealers).
    @raise Invalid_argument on an empty [seeds] list. *)
