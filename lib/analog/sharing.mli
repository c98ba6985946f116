(** Wrapper-sharing combinations: partitions of the analog cores into
    groups, one shared analog test wrapper per group.

    For the paper's five cores there are Bell(5) = 52 partitions; cores
    A and B are identical, leaving 36 distinct combinations, of which
    the paper enumerates the 26 whose non-singleton group sizes form
    one of {2}, {3}, {4}, {5}, {3,2} (its Tables 1 and 3 — the
    2+2+1 partitions and the no-sharing case are not tabulated).
    {!paper_combinations} reproduces exactly that set;
    {!all_combinations} gives every distinct partition for the
    generalized optimizer and the scaling benchmarks. *)

type t = private { groups : Spec.core list list }
(** Non-empty groups; every input core in exactly one group. *)

val make : Spec.core list list -> t
(** @raise Invalid_argument on empty groups or duplicate labels. *)

val no_sharing : Spec.core list -> t
(** Every core on its own wrapper. *)

val full_sharing : Spec.core list -> t
(** All cores on one wrapper — the paper's worst-case test time,
    normalization base for [C_T]. *)

val all_combinations : Spec.core list -> t list
(** All set partitions, deduplicated so that partitions differing only
    by an exchange of cores with identical test sets
    ({!Spec.same_tests}) appear once. Deterministic order: fewer
    groups... see implementation; stable across runs. *)

val paper_combinations : Spec.core list -> t list
(** The subset of {!all_combinations} with at least one shared group
    and whose non-singleton group-size signature is one of
    [2], [3], [4], [5] or [3;2] — the paper's 26 combinations
    when applied to cores A..E. *)

val wrappers : t -> int
(** Number of groups = number of analog wrappers. *)

val equivalence_key : Spec.core list -> t -> string list list
(** Canonical key identifying a partition up to exchange of cores with
    identical test sets ({!Spec.same_tests}) within [cores]: each core
    is replaced by the label of its class representative, groups
    become sorted label lists, sorted. Equal keys mean the partitions
    produce job sets that differ only by a relabelling of identical
    cores. Used by {!all_combinations} to deduplicate, and by the
    search strategies to avoid re-evaluating equivalent partitions. *)

val degree_signature : t -> int list
(** Sorted (descending) group sizes, e.g. [[3;2]] — the paper's
    "degree of sharing" used to group combinations in Cost_Optimizer. *)

val is_feasible : ?policy:Spec.policy -> t -> bool
(** All cores within each group pairwise {!Spec.compatible}. *)

val short_name : t -> string
(** Paper style: shared groups only, e.g. ["{A,B,E}{C,D}"]; ["none"]
    when nothing is shared. *)

val full_name : t -> string
(** Every group, e.g. ["{A,B,E}{C,D}"] vs ["{A}{B}{C}{D}{E}"]. *)

val equal : t -> t -> bool
(** Equality as partitions (group order and in-group order ignored). *)
