(** Worker lifecycle: spawn, health-check, restart, drain.

    The supervisor owns the fleet's worker {e processes} (the router
    owns only the links to them). One loop thread ticks every 100 ms:
    {ul
    {- a worker that exited — crashed or was killed — is respawned
       after a jittered backoff delay ({!Msoc_util.Backoff}, reset
       once a worker stays up 10 s), so a crash-looping worker cannot
       busy-spin the host while a one-off crash restarts fast;}
    {- every [ping_interval_s], each live worker gets a health probe
       on its TCP port (fresh connection, [stats] envelope, bounded by
       [ping_timeout_s]); [max_ping_failures] consecutive failures —
       a wedged process that is alive but not answering — get it
       SIGKILLed and rescheduled like a crash.}}

    {!stop} is the graceful drain: supervision ceases (no restarts),
    workers receive SIGTERM (their own serve loops drain in-flight
    requests), and stragglers are SIGKILLed after a 5 s grace. *)

type spec = {
  id : string;
  argv : string array;  (** full command line; [argv.(0)] is the exe *)
  port : int;  (** the worker's TCP port, for health probes *)
}

type t

val create :
  ?ping_interval_s:float -> ?ping_timeout_s:float ->
  ?on_restart:(string -> unit) -> seed:int -> spec list -> t
(** Spawns every worker synchronously, then starts the loop thread.
    Defaults: ping every 2 s with a 1 s budget, kill after 3
    consecutive failures. [on_restart id] fires on every respawn (not
    the initial spawn) — the fleet metrics hook.
    @raise Invalid_argument on an empty spec list. *)

val pids : t -> (string * int) list
(** Live [(worker id, pid)] pairs — for tests and diagnostics. *)

val stop : t -> unit
(** Stop supervising, SIGTERM every worker, reap with a 5 s grace
    (then SIGKILL). Blocks until all workers are gone. *)
