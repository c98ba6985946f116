(** Transports: NDJSON over stdio (batch), a Unix-domain socket, or a
    TCP socket (daemons) — and the front door every socket peer of the
    planner goes through, the fleet router's included.

    {b Batch mode} ({!serve_channels}) reads envelopes sequentially
    until EOF or a [shutdown] envelope, answering each inline — the
    deterministic mode for pipelines and tests.

    {b The front door} is one listener ({!with_listener}), one
    connection ({!send}, write-locked) and one poll-accept loop
    ({!accept_loop}). {!serve} and [Msoc_fleet.Router.run] both run
    them and differ only in the reader they hand the loop, so a client
    cannot tell a router from a daemon by how its socket behaves: a
    line longer than [max_line] gets one [bad_request] envelope and
    the connection closes (no resync point exists mid-line), a line
    cut short by a close gets no envelope, a connection silent for
    [idle_timeout_s] is reaped, and a peer that closes before its
    reply costs the process nothing.

    {b Daemon mode} ({!serve}) gives each connection a reader thread
    that parses lines and admits requests to a
    {!Msoc_util.Bounded_queue}; a single dispatch thread drains the
    queue through {!Service.handle} and writes each response back on
    its own connection. When the queue is full the reader answers
    [overloaded] immediately — admission is the only place load is
    shed, and it never blocks.

    Shutdown — on SIGINT, SIGTERM, a [shutdown] envelope or
    {!Service.request_shutdown} from another thread — is graceful: the
    accept loop stops, the queue stops admitting (late arrivals get
    [shutting_down]), the dispatch thread drains every admitted
    request and its responses are flushed, then connections close, the
    listener closes and the daemon returns. *)

val serve_channels : Service.t -> in_channel -> out_channel -> unit
(** Stdio batch mode. Blank lines are skipped; malformed lines get a
    [bad_request] envelope under the line's string [id] (empty when it
    has none, see {!Protocol.request_of_line}). Returns at EOF or after
    answering a [shutdown] envelope. *)

(** Bounded NDJSON line reading over a raw descriptor — the input
    discipline {!accept_loop} applies to every peer, and {!Client} to
    every server: per-line length cap, optional idle budget,
    EINTR-safe. *)
module Line_reader : sig
  type event =
    | Line of string  (** one line, terminator stripped *)
    | Eof  (** end of input, or a read error; a partial last line is
                dropped *)
    | Too_long  (** the line crossed [max_line]; no resync point *)
    | Idle_timeout  (** silent past [idle_timeout_s] *)

  type t

  val create : ?idle_timeout_s:float -> ?max_line:int -> Unix.file_descr -> t
  (** [max_line] defaults to 1 MiB; no idle budget by default. The
      reader never closes the descriptor. *)

  val next : t -> event

  val max_line : t -> int
end

type endpoint = [ `Unix of string | `Tcp of string * int ]
(** A Unix-domain socket path, or a TCP host and port. The host is
    ["localhost"] or a dotted quad. *)

val connect : endpoint -> unit -> Unix.file_descr
(** [connect endpoint] resolves the address; each [()] then opens a
    fresh client connection, with [TCP_NODELAY] set over TCP. A socket
    whose connect fails is closed before the error propagates. Clients
    speak through {!Client.connect}, which wraps this; the raw
    descriptor is for a caller that breaks the framing on purpose.
    @raise Failure at [connect endpoint] on a bad host.
    @raise Unix.Unix_error at [()] when the connect fails. *)

type listener

val with_listener : ?ready:(int -> unit) -> endpoint -> (listener -> 'a) -> 'a
(** Bind and listen on [endpoint], pass [ready] the bound port (the
    kernel's pick for TCP port 0; 0 for a Unix socket), then run the
    function on the listener. The listener closes on every exit path,
    and a Unix socket file is removed; an existing file at the path is
    replaced. TCP listeners set [SO_REUSEADDR].
    @raise Unix.Unix_error when the endpoint cannot be bound.
    @raise Failure on a bad host. *)

type connection
(** One accepted peer: its descriptor and a write lock. *)

val send : connection -> Protocol.response -> unit
(** Write one envelope line, whole, under the connection's write lock;
    safe from any thread. Once the connection has closed, or when the
    peer is gone, the envelope is dropped. *)

val accept_loop :
  ?idle_timeout_s:float -> ?max_line:int -> stop:(unit -> bool) ->
  drain:(unit -> unit) -> listener ->
  (connection -> Line_reader.t -> unit) -> unit
(** Poll-accept until [stop ()] holds, checked at least every 100 ms.
    Each accepted connection gets [TCP_NODELAY] (over TCP), is
    registered, and gets a thread running the reader on a
    {!Line_reader} bounded by [max_line] (default 1 MiB) and
    [idle_timeout_s] (default none); when the reader returns or
    raises, the connection closes. Once [stop ()] holds, [drain ()]
    runs — the caller answers what it admitted — and then every
    connection still open closes. SIGPIPE is set to ignored for the
    rest of the process, so a write to a departed peer is an error
    {!send} swallows. The listener stays open; {!with_listener} owns
    it. *)

val serve :
  ?queue_capacity:int ->
  ?max_line:int -> ?idle_timeout_s:float ->
  ?ready:(int -> unit) -> listen:endpoint -> Service.t -> unit
(** The planning daemon on [listen]; blocks until shutdown.
    [queue_capacity] (default 64) bounds admitted-but-undispatched
    requests; [max_line], [idle_timeout_s] and [ready] are
    {!accept_loop}'s and {!with_listener}'s. Installs SIGINT/SIGTERM
    handlers for the duration (restored on return). Fleet workers are
    [serve] on TCP.
    @raise Unix.Unix_error when the endpoint cannot be bound. *)
