(** Design-space exploration helpers on top of {!Plan}.

    The planner answers "given W, what is the best architecture?";
    a test engineer also asks how the decision moves with the TAM
    width or the cost weights. These helpers run the planner across
    the relevant axis.

    Infeasible axis points never crash a sweep: both
    [Invalid_argument] (from problem construction) and
    {!Msoc_tam.Packer.Infeasible} (from packing a job set the width
    cannot carry) are treated as "this point misses the constraints"
    and skipped.

    All helpers accept an optional {!Msoc_util.Pool.t}; combinations
    are then packed on the worker domains with bit-identical results
    (see {!Evaluate.evaluate_many}). They also accept an optional
    [?packer] (a {!Msoc_tam.Packer_registry} variant, default
    [best_fit]) forwarded to every planner run of the sweep. *)

val weight_sweep :
  ?search:Plan.search ->
  ?pool:Msoc_util.Pool.t ->
  ?packer:Msoc_tam.Packer_registry.packer ->
  weights:float list ->
  (float -> Problem.t) ->
  (float * Plan.t) list
(** Plan once per time-weight; the caller inspects how the chosen
    sharing moves along the time/area trade-off. Weight points whose
    problems share a structure ({!Problem.same_structure}) share one
    preparation and schedule cache, so the sweep performs at most one
    pack per distinct sharing combination — not per (combination,
    weight) pair. *)

val width_sweep :
  ?search:Plan.search ->
  ?pool:Msoc_util.Pool.t ->
  ?packer:Msoc_tam.Packer_registry.packer ->
  widths:int list ->
  (int -> Problem.t) ->
  (int * Plan.t) list
(** Plan once per TAM width. Widths that are infeasible for the
    instance are skipped. (No cross-width caching: schedules depend
    on the TAM width.) *)
