(** Fixed-size [Domain]-based worker pool for embarrassingly parallel
    evaluation (stdlib only, no domainslib).

    The planner's hot loop — packing one TAM schedule per sharing
    combination — is a pure function of the combination, so the
    combinations can be packed on independent domains and merged back
    in input order. {!map} guarantees exactly that: output order (and
    therefore every downstream tie-break) is the input order, making
    parallel runs bit-identical to serial ones. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([jobs >= 1]).
    With [jobs = 1] no domain is spawned and {!map} runs serially on
    the calling domain.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The [jobs] the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element, possibly
    concurrently, and returns the results in the order of [xs].
    [f] must not touch shared mutable state unless that state is
    domain-safe. If any application raises, [map] waits for the
    remaining tasks and re-raises the exception of the earliest
    failing element.
    @raise Invalid_argument if the pool was shut down. *)

val shutdown : t -> unit
(** Drain the queue, stop and join the workers. Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, also on exceptions. *)
