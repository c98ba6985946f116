(** The router's persistent link to one worker process.

    A maintenance thread owns the link's lifecycle: it connects to the
    worker's TCP endpoint, retrying with seeded jittered backoff
    ({!Msoc_util.Backoff}) while the worker is down or restarting,
    then reads response lines through {!Msoc_serve.Client} and hands
    each envelope to [on_response] until the link dies, then
    reconnects. A line that is no envelope ends the link too: the
    request it answered could get no envelope from this worker, so the
    link drops and the down edge hands its in-flight requests back.
    [on_state] fires on every up/down edge (outside any internal
    lock), which is how the router learns to fail requests over and
    to redispatch in-flight work from a dead worker.

    {!send_line} is thread-safe and never blocks on a dead link: it
    returns [false] when the link is down (callers treat that as "this
    worker is unavailable right now" and pick another). Response
    demultiplexing is the caller's job — envelopes come back in worker
    order, carrying the internal ids the caller sent. *)

type t

val create :
  host:string -> port:int -> seed:int ->
  on_response:(Msoc_serve.Protocol.response -> unit) ->
  on_state:(up:bool -> unit) -> unit -> t
(** Starts the maintenance thread immediately. [host] accepts
    ["localhost"] or a dotted quad; each connect goes through
    {!Msoc_serve.Client.connect}. Callbacks run on the maintenance
    thread and must not call back into this module (except
    {!send_line}).
    @raise Failure on a bad host. *)

val is_up : t -> bool

val send_line : t -> string -> bool
(** Write one pre-rendered envelope line. [false] — nothing was sent —
    when the link is down or the write fails (the link then drops and
    reconnects on its own). *)

val stop : t -> unit
(** Stop reconnecting, sever the link, join the maintenance thread.
    Idempotent in effect; the client is unusable afterwards. *)
