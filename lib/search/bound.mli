(** Admissible lower bound on the cost of completing a partial sharing
    partition — the pruning rule of {!Bnb} — and the per-core tables
    both search strategies price their partitions from.

    A partial state is a set of formed groups plus the cores not yet
    assigned; any completion can only add cores to formed groups or
    open new ones. The bound combines

    - a time floor: the TAM packer's lower bound over the digital jobs
      plus every analog test as a singleton (no self-test jobs — their
      count shrinks under merging, so they are not provably monotone),
      maxed with each formed group's serial test time (groups only
      grow) and each unassigned core's own serial time (it lands in
      some group);
    - an area floor: under the paper's model shape ([Uniform k]
      routing, [Max_individual] sizing) a group's Eq. 1 contribution
      is monotone in its membership and each unassigned core adds at
      least [min(solo_area, k·A_min)] wherever it goes. Under any
      other model shape (placed routing, merged-requirement sizing)
      monotonicity is not guaranteed and the area floor degrades to 0 —
      the bound stays admissible, just looser.

    Both floors price exactly like {!Msoc_testplan.Evaluate.evaluate}
    (same normalizations, same weights), so the bound never exceeds
    the true cost of any completion and pruning with it preserves
    optimality.

    {!create} tabulates each analog core once per search; the search
    kernels then name cores by their index in the problem's core list
    and run on these tables instead of core lists. Every float sum has
    a fixed order (DESIGN.md §10, "The search kernel"), which
    test/test_search_ref.ml pins against list-based reference
    strategies. *)

type t = private {
  problem : Msoc_testplan.Problem.t;
  cores : Msoc_analog.Spec.core array;  (** the problem's cores, in order *)
  time : int array;  (** serial test time, {!Msoc_analog.Spec.core_time} *)
  area : float array;  (** solo wrapper area *)
  by_rank : int array;  (** core indices in label order *)
  compatible : bool array array;
      (** {!Msoc_analog.Spec.compatible} under the problem's policy *)
  order : int array;
      (** {!Bnb}'s assignment order: longest core first, label
          tie-break *)
  floating : float array;
      (** [floating.(i)]: Σ [min(solo_area, k·A_min)] over
          [order.(i) .. order.(m-1)], folded front to back; 0 without
          an area floor *)
  reference_makespan : int;
  t_floor : int;  (** the partition-independent makespan floor *)
  solo_total : float;  (** Σ solo wrapper areas — Eq. 1's denominator *)
  uniform_k : float option;  (** [Some k] under the paper's model shape *)
  join_floor : float option;  (** [Some (k·A_min)] under the same shape *)
}

val create : Msoc_testplan.Evaluate.prepared -> t
(** Packs nothing: reuses the prepared digital jobs and reference
    makespan. *)

val contrib : t -> int list -> float
(** [(1 + ρ/100)·a_max] of the group with these member indices — its
    exact Eq. 1 numerator term. Under the paper's shape it reads the
    size and the largest solo area; under any other shape the members,
    in the given order, go to the model's own
    {!Msoc_analog.Area.routing_overhead_pct} and
    {!Msoc_analog.Area.group_area}. *)

val cost : t -> t_lb:int -> area:float -> float
(** [w_T·C_T + w_A·C_A] of a time floor and an Eq. 1 numerator. *)

val floor : t -> t_lb:int -> area:float -> float
(** The bound from a partial state's time floor and, under the paper's
    shape, its formed groups' terms plus its unassigned cores' floor;
    [area] is ignored under any other shape. *)

val acceptable : t -> int list list -> bool
(** {!Msoc_analog.Area.acceptable} of a partition given in canonical
    order ({!Msoc_analog.Sharing.make}'s: groups by their first core in
    label order, members in label order), priced from the tables. *)

val lower_bound :
  t ->
  groups:Msoc_analog.Spec.core list list ->
  unassigned:Msoc_analog.Spec.core list ->
  float
(** Admissible lower bound on [w_T·C_T + w_A·C_A] over every
    completion of the partial state, through {!floor}. With
    [unassigned = []] this is a lower bound on the state's own
    evaluation. *)
