(** Seeded simulated annealing over sharing partitions — the anytime
    strategy for core counts where even branch-and-bound stalls.

    The walk lives on partition space with three neighborhood moves —
    move one core to another (compatible) group, merge two compatible
    groups, split a group in two — starting from no sharing. Proposals
    are scored by a cheap proxy energy: the exact Eq. 1 area cost plus
    the group-serial time floor normalized like [C_T] (only the one or
    two touched groups are recomputed per move), so no TAM schedule is
    packed during the walk. Acceptance is Metropolis under geometric
    cooling; the generator is {!Msoc_util.Rng} (SplitMix64), so equal
    seeds give equal walks, bit for bit.

    The walk runs on {!Bound}'s per-core tables: a group refresh sums
    table entries over its member indices. A visited partition is
    keyed by the restricted-growth string of its canonical form (each
    core's group number, cores in label order), its acceptability is
    priced from the tables in canonical order, and only a state that
    can enter the top-k pool is built as a {!Msoc_analog.Sharing.t}
    and named.

    The [top_k] best distinct acceptable states seen — plus the
    no-sharing baseline — are then fully evaluated under the
    {!Budget}, and the cheapest evaluation wins. The result is a
    heuristic incumbent, never proven optimal, but it is always
    re-verifiable: the full evaluation packs a real schedule. *)

type result = { best : Msoc_testplan.Evaluate.evaluation; stats : Stats.t }

val run :
  ?budget:Budget.t ->
  ?seed:int ->
  ?iterations:int ->
  ?top_k:int ->
  Msoc_testplan.Evaluate.prepared ->
  result
(** [seed] defaults to 1, [iterations] to [max 2000 (250·m)], [top_k]
    to 8. The walk checks the deadline every 32 proposals; the
    evaluation phase honors [max_evals] but always evaluates at least
    the no-sharing baseline. *)
