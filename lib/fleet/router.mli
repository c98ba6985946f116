(** The fleet router: one front door, N planning workers.

    Clients speak the ordinary serve NDJSON protocol to the router
    (Unix socket or TCP), through the same listener, connections and
    accept loop as a serve daemon ({!Msoc_serve.Server.accept_loop}):
    line cap, idle reaping and drain behave alike at both front doors.
    The router consistent-hashes each request's
    {!routing_key} onto a worker and proxies the envelope over that
    worker's persistent link ({!Worker_client}), rewriting ids both
    ways. Stability of the hash is the point: repeats of the same
    problem land on the same worker, whose prepared-structure LRU,
    schedule memo and result cache are already warm.

    Failure model (every admitted request leaves through exactly one
    envelope — a connection is never silently dropped):
    {ul
    {- worker window full → [overloaded], never spilled to the next
       worker (flooding cache-cold replicas under saturation would
       collapse exactly when protection matters);}
    {- worker down at admission → failover along the key's ring-order
       successors ({!Hash_ring.successors});}
    {- worker dies with requests in flight → each orphan is resent to
       the next live worker (the ops are pure, so resends are safe) or
       answered [unavailable] when no one is up;}
    {- every worker down → bounded jittered-backoff retry rounds, then
       an honest [unavailable];}
    {- [stats] and [shutdown] are answered by the router itself
       (stamped [worker = "router"]): fleet metrics, link states and
       the pending count; shutdown starts a drain.}} *)

val routing_key : Msoc_serve.Protocol.request -> string
(** Op name + canonicalized params (object keys sorted recursively) —
    identical requests map to identical keys regardless of field
    order, without the router touching any SOC file. *)

type worker_spec = { id : string; host : string; port : int }

type config = {
  workers : worker_spec list;
  window : int;
  replicas : int;
  retry_rounds : int;
  max_line : int option;
  idle_timeout_s : float option;
  seed : int;
}

val config :
  ?window:int -> ?replicas:int -> ?retry_rounds:int ->
  ?max_line:int ->
  ?idle_timeout_s:float ->
  ?seed:int -> worker_spec list -> config
(** Defaults: [window] 8 in-flight per worker, [replicas] 64,
    [retry_rounds] 5, no [max_line] (the front door's 1 MiB), no idle
    timeout, [seed] 1.
    @raise Invalid_argument on an empty worker list or [window < 1]. *)

val run :
  ?ready:(int -> unit) ->
  ?metrics:Fleet_metrics.t ->
  listen:Msoc_serve.Server.endpoint ->
  stop:bool Atomic.t ->
  config -> unit
(** Start the worker links, bind [listen], accept clients; blocks
    until [stop] is set (externally, e.g. by a signal handler, or by a
    [shutdown] envelope), then waits up to 10 s for the pending table
    to empty, closes the client connections and the listener, and
    severs the links. [ready] receives the bound TCP port (0 for a
    Unix socket) before the first accept. [metrics] (default: a fresh
    table) lets the caller share the table with the supervisor so its
    restart events appear in the fleet's [stats]. Does not install
    SIGINT/SIGTERM handlers — the caller owns signal policy.
    @raise Unix.Unix_error when the listen endpoint cannot be bound. *)
