(** Search instrumentation: what a strategy did to find its answer.

    Every strategy returns one of these alongside its best evaluation,
    and they flow unchanged into the CLI's [--json] output, the serve
    envelope and the scaling bench, so a run can always answer "how
    many schedules were packed, how much was pruned, and when did the
    incumbent last improve". Counters irrelevant to a strategy stay 0
    (e.g. [nodes_pruned] for annealing, [moves] for branch-and-bound). *)

type trace_point = {
  at_eval : int;  (** evaluation count when this incumbent was found *)
  cost : float;
  sharing : string;  (** {!Msoc_analog.Sharing.full_name} *)
}

type t = {
  evaluations : int;  (** full TAM-optimizer evaluations issued *)
  considered : int;
      (** distinct complete combinations reached (evaluated + skipped
          as equivalent); for list-based strategies, the candidate
          count *)
  nodes_expanded : int;  (** branch-and-bound internal nodes visited *)
  nodes_pruned : int;  (** subtrees cut by the admissible bound *)
  dedup_skips : int;  (** equivalent partitions not re-evaluated *)
  moves : int;  (** annealing proposals *)
  accepted_moves : int;  (** annealing proposals accepted *)
  cache_hits : int;  (** schedule-cache hits during this search *)
  cache_misses : int;  (** schedules actually packed *)
  wall_ms : float;
  incumbent_trace : trace_point list;  (** chronological *)
}

val zero : t

val merge : t list -> t
(** Field-wise sums (portfolio roll-up); [wall_ms] is the max and the
    traces are dropped — per-member traces stay with the members. *)

val to_json : t -> Msoc_testplan.Export.json
