(** Transports: NDJSON over stdio (batch), a Unix-domain socket, or a
    TCP socket (daemons).

    {b Batch mode} ({!serve_channels}) reads envelopes sequentially
    until EOF or a [shutdown] envelope, answering each inline — the
    deterministic mode for pipelines and tests.

    {b Daemon mode} ({!serve_unix}, {!serve_tcp}) binds a socket and
    runs an accept loop. Each connection gets a reader thread that
    parses lines and admits requests to a {!Msoc_util.Bounded_queue};
    a single dispatch thread drains the queue through
    {!Service.handle} and writes each response back on its own
    connection (per-connection write lock, so concurrent responses
    never interleave). When the queue is full the reader answers
    [overloaded] immediately — admission is the only place load is
    shed, and it never blocks.

    Both daemons read lines through a bounded reader: a line longer
    than [max_line] gets one [bad_request] envelope and the connection
    closes (no resync point exists mid-line), and a connection silent
    for [idle_timeout_s] is reaped — a stuck or hostile peer can pin
    neither memory nor a reader thread forever.

    Shutdown — on SIGINT, SIGTERM, a [shutdown] envelope or
    {!Service.request_shutdown} from another thread — is graceful: the accept loop closes the listener, the queue stops
    admitting (late arrivals get [shutting_down]), the dispatch thread
    drains every admitted request and its responses are flushed, then
    connections close and the daemon returns. *)

val serve_channels : Service.t -> in_channel -> out_channel -> unit
(** Stdio batch mode. Blank lines are skipped; malformed lines get a
    [bad_request] envelope under the line's string [id] (empty when it
    has none, see {!Protocol.request_of_line}). Returns at EOF or after
    answering a [shutdown] envelope. *)

(** Bounded NDJSON line reading over a raw descriptor — the input
    discipline both daemons (and the fleet router) apply to every
    peer: per-line length cap, optional idle budget, EINTR-safe. *)
module Line_reader : sig
  type event =
    | Line of string  (** one line, terminator stripped *)
    | Eof
    | Too_long  (** the line crossed [max_line]; no resync point *)
    | Idle_timeout  (** silent past [idle_timeout_s] *)

  type t

  val create : ?idle_timeout_s:float -> ?max_line:int -> Unix.file_descr -> t
  (** [max_line] defaults to 1 MiB; without [idle_timeout_s] reads
      block indefinitely. *)

  val next : t -> event

  val max_line : t -> int
end

val serve_unix :
  ?queue_capacity:int -> ?max_line:int -> ?idle_timeout_s:float ->
  socket_path:string -> Service.t -> unit
(** Unix-domain daemon; blocks until shutdown. [queue_capacity]
    (default 64) bounds admitted-but-undispatched requests; [max_line]
    (default 1 MiB) bounds one envelope line; [idle_timeout_s]
    (default none) reaps silent connections. An existing socket file
    at [socket_path] is replaced. Installs SIGINT/SIGTERM handlers for
    the duration (restored on return).
    @raise Unix.Unix_error when the socket cannot be bound. *)

val serve_tcp :
  ?queue_capacity:int -> ?max_line:int -> ?idle_timeout_s:float ->
  ?ready:(int -> unit) -> ?host:string -> port:int -> Service.t -> unit
(** TCP daemon; blocks until shutdown. Same envelope protocol and
    limits as {!serve_unix} — this is the transport fleet workers
    listen on. [host] (default ["127.0.0.1"]) accepts ["localhost"] or
    a dotted quad; [port] 0 asks the kernel for a free port, and
    [ready] (called once, before accepting) receives the actually
    bound port either way. The listener sets [SO_REUSEADDR];
    connections set [TCP_NODELAY].
    @raise Unix.Unix_error when the socket cannot be bound. *)
