(** Combinatorial enumeration used by the wrapper-sharing optimizer.

    The paper enumerates all ways of grouping the analog cores into
    shared wrappers — i.e. all set partitions of the core set (26
    non-trivial-or-trivial partitions for 5 cores, 52 counting both;
    the paper's 26 figure counts unique partitions with cores B ≡ A
    merged; we enumerate true set partitions and let callers dedup). *)

val set_partitions_seq : 'a list -> 'a list list Seq.t
(** Every set partition of the list, each once, produced on demand,
    so callers can dedup, filter or stop early without materializing
    the Bell(n)-sized list first. *)

val bell_number : int -> int
(** [bell_number n] is the number of set partitions of an n-element
    set. Exact for [n <= 24] (fits in 63-bit int). *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct elements, order-preserving. *)

val partitions_with_block_sizes : 'a list list -> int list
(** [partitions_with_block_sizes p] is the multiset of block sizes of
    one partition, sorted descending — the paper's "degree of sharing"
    signature used to group combinations in [Cost_Optimizer] line 1. *)

val group_by : ('a -> 'b) -> 'a list -> ('b * 'a list) list
(** [group_by key xs] groups elements with equal keys (polymorphic
    equality), preserving first-occurrence order of keys and the
    relative order of elements within a group. *)
