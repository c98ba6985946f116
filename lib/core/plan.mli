(** End-to-end test planning: the public entry point of the library.

    [run] takes a problem (digital SOC + analog cores + TAM width +
    cost weights), searches the wrapper-sharing space with either the
    exhaustive baseline or the Cost_Optimizer heuristic, and returns
    the chosen wrapper architecture together with the full SOC test
    schedule. *)

type search =
  | Exhaustive_search
  | Heuristic of { delta : float }
      (** Fig. 3's Cost_Optimizer with pruning threshold [delta] *)

type t = {
  problem : Problem.t;
  best : Evaluate.evaluation;  (** winning combination + schedule *)
  evaluations : int;  (** TAM-optimizer runs the search performed *)
  considered : int;  (** candidate combinations *)
  reference_makespan : int;  (** full-sharing makespan (C_T base) *)
}

val run :
  ?search:search ->
  ?pool:Msoc_util.Pool.t ->
  ?packer:Msoc_tam.Packer_registry.packer ->
  Problem.t ->
  t
(** Default search: [Heuristic { delta = 0. }]. With [pool],
    independent combinations are packed on the worker domains; the
    plan is bit-identical to the serial one (same best cost, same
    tie-breaking — see {!Evaluate.evaluate_many}). [packer] selects
    the packing heuristic (default [best_fit] — see
    {!Msoc_tam.Packer_registry}); every schedule the plan commits to
    is certified by the registry regardless of variant. *)

val run_prepared : ?search:search -> ?pool:Msoc_util.Pool.t -> Evaluate.prepared -> t
(** Same, reusing an existing {!Evaluate.prepare} result and its
    schedule cache (the bench harness sweeps many weight settings
    over one preparation). *)

val makespan : t -> int

val sharing : t -> Msoc_analog.Sharing.t
