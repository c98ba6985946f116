(** The client side of the NDJSON wire, the one module that connects to
    a daemon or a fleet router, writes request lines and reads
    envelopes: replay, the router's worker links, the fleet bench and
    the tests all speak through it. It reads with
    {!Server.Line_reader}, so both ends of the wire share one framing,
    and a client cannot tell a router from a daemon (DESIGN.md §14). *)

type t
(** One connection; one thread may send while another receives. *)

val connect : ?idle_timeout_s:float -> Server.endpoint -> unit -> t
(** [connect endpoint] resolves the address ({!Server.connect}); each
    [()] opens a connection whose reads give up after [idle_timeout_s]
    of silence (default: never). The first [connect endpoint] in the
    process sets SIGPIPE to ignored for good, as {!Server.accept_loop}
    does, so a write to a departed peer is a [false], not a death.
    @raise Failure at [connect endpoint] on a bad host.
    @raise Unix.Unix_error at [()] when the connect fails. *)

val send : t -> Protocol.request -> bool
(** One request line, whole; [false] once the peer is gone. *)

val send_line : t -> string -> bool
(** One pre-rendered line, terminator added; [false] once the peer is
    gone. *)

type reply =
  | Response of Protocol.response
  | Malformed of string  (** not an envelope; the reason *)
  | Closed  (** the peer closed, the read failed, or a line passed the
                cap (no resync point) *)
  | Timed_out  (** silent past the idle budget *)

val recv : t -> reply
(** The next line. The cap is [Msoc_itc02.Scan.max_bytes], not the
    servers' 1 MiB: a plan for a [soc_path] SOC near the read cap can
    answer past 1 MiB. *)

val call : t -> Protocol.request -> reply
(** {!send}, then {!recv}; [Closed] when the send fails. *)

val shutdown : t -> unit
(** Shut both directions, waking a thread blocked on the connection;
    the descriptor stays open. *)

val close : t -> unit
(** Close the descriptor, once every thread is done with it. *)
