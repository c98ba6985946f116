(** Capped exponential backoff with full jitter.

    Attempt [k] draws a delay uniformly from [0, min (2000, base_ms
    * 2^k)] ms — the "FullJitter" policy. Uniform draws decorrelate many
    clients retrying against one failed resource (reconnecting router
    links, worker restarts), while the growing ceiling keeps pressure
    off a resource that stays down. Deterministic for a fixed seed.

    Not thread-safe: each retrying thread owns its backoff. *)

type t

val create : ?base_ms:float -> seed:int -> unit -> t
(** [base_ms] defaults to 25 ms.
    @raise Invalid_argument unless [0 < base_ms <= 2000]. *)

val next_delay_ms : t -> float
(** Draw the next delay and advance the attempt counter. *)

val reset : t -> unit
(** Back to attempt 0 — call after a successful recovery so the next
    failure starts fast again. *)

val sleep : t -> stop:(unit -> bool) -> unit
(** Draw the next delay and sleep it in 50 ms slices (a draw under
    one slice still sleeps one), checking [stop ()] before each slice
    and returning as soon as it holds, so a retrying thread stays
    stoppable through a long delay. *)
