(** Consistent-hash ring over worker ids.

    Routing keys hash onto a 64-bit ring where every worker owns
    [replicas] virtual points; a key belongs to the worker owning the
    first point clockwise from the key's hash. The properties the
    fleet router builds on:
    {ul
    {- {e stability}: the same key always lands on the same worker
       while the worker set is unchanged, so repeated requests reuse
       that worker's warm prepared-structure and memo caches;}
    {- {e minimal disruption}: adding or removing one worker remaps
       only the keys that worker's arcs owned;}
    {- {e failover order}: {!successors} lists every worker in ring
       order from the key, giving each key a deterministic fallback
       sequence when its primary is down.}}

    Pure and immutable — rebuilding on membership change is cheap
    (worker counts are single digits). *)

type t

val create : ?replicas:int -> string list -> t
(** [replicas] (default 64) virtual points per worker: enough that
    4 workers split keys within a few percent of evenly.
    @raise Invalid_argument on an empty worker list or
    [replicas < 1]. *)

val lookup : t -> string -> string
(** The worker owning this key. *)

val successors : t -> string -> string list
(** Every worker in ring order starting at the key's owner — head is
    {!lookup}, the rest is the failover order. *)
