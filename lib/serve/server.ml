module Bounded_queue = Msoc_util.Bounded_queue

let write_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* --- stdio batch mode --- *)

let serve_channels service ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
      (match Protocol.request_of_line line with
      | Error (id, e) ->
        Metrics.incr_malformed (Service.metrics service);
        Metrics.incr_status (Service.metrics service) Protocol.Bad_request;
        write_line oc
          (Protocol.response_to_line (Protocol.reject ~id Protocol.Bad_request e))
      | Ok req ->
        write_line oc (Protocol.response_to_line (Service.handle service req)));
      if Service.shutdown_requested service then () else loop ()
  in
  loop ()

(* --- bounded line reading over a raw descriptor --- *)

module Line_reader = struct
  type event = Line of string | Eof | Too_long | Idle_timeout

  type t = {
    fd : Unix.file_descr;
    chunk : Bytes.t;
    mutable chunk_pos : int;
    mutable chunk_len : int;
    acc : Buffer.t;  (* the partial line so far *)
    max_line : int;
    idle_timeout_s : float option;
  }

  let create ?idle_timeout_s ?(max_line = 1 lsl 20) fd =
    {
      fd;
      chunk = Bytes.create 8192;
      chunk_pos = 0;
      chunk_len = 0;
      acc = Buffer.create 256;
      max_line;
      idle_timeout_s;
    }

  let max_line r = r.max_line

  (* One NDJSON line, terminator stripped. The accumulator is bounded:
     a peer streaming a line longer than [max_line] surfaces as
     [Too_long] within one chunk of crossing the limit, so it can
     never make the server buffer unboundedly. [Idle_timeout] fires
     when the descriptor stays silent past the idle budget — between
     lines or mid-line. *)
  let rec next r =
    let rec scan i =
      if i >= r.chunk_len then -1
      else if Bytes.get r.chunk i = '\n' then i
      else scan (i + 1)
    in
    match scan r.chunk_pos with
    | nl when nl >= 0 ->
      Buffer.add_subbytes r.acc r.chunk r.chunk_pos (nl - r.chunk_pos);
      r.chunk_pos <- nl + 1;
      let line = Buffer.contents r.acc in
      Buffer.clear r.acc;
      if String.length line > r.max_line then Too_long else Line line
    | _ ->
      Buffer.add_subbytes r.acc r.chunk r.chunk_pos (r.chunk_len - r.chunk_pos);
      r.chunk_pos <- 0;
      r.chunk_len <- 0;
      if Buffer.length r.acc > r.max_line then Too_long
      else begin
        let ready =
          match r.idle_timeout_s with
          | None -> `Ready
          | Some timeout -> (
            match Unix.select [ r.fd ] [] [] timeout with
            | [], _, _ -> `Idle
            | _ -> `Ready
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Again)
        in
        match ready with
        | `Idle -> Idle_timeout
        | `Again -> next r
        | `Ready -> (
          match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
          | 0 -> Eof
          | n ->
            r.chunk_len <- n;
            next r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> next r
          | exception Unix.Unix_error _ -> Eof)
      end
end

(* --- endpoints --- *)

type endpoint = [ `Unix of string | `Tcp of string * int ]

let sockaddr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
    let addr =
      match host with
      | "localhost" -> Unix.inet_addr_loopback
      | h -> Unix.inet_addr_of_string h
    in
    Unix.ADDR_INET (addr, port)

let socket_for addr = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0

(* The address resolves when [connect] is applied to the endpoint, so a
   bad host fails there; each [()] opens a fresh connection. *)
let connect endpoint =
  let addr = sockaddr endpoint in
  fun () ->
    let fd = socket_for addr in
    match
      Unix.connect fd addr;
      (* latency beats throughput for one-line envelopes *)
      match endpoint with
      | `Tcp _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | `Unix _ -> ()
    with
    | () -> fd
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* --- the listener --- *)

type listener = Unix.file_descr

let with_listener ?ready endpoint f =
  let addr = sockaddr endpoint in
  (* a socket file left at the path is replaced, and ours removed *)
  let unlink () =
    match endpoint with
    | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Tcp _ -> ()
  in
  unlink ();
  let listener = socket_for addr in
  match
    (match endpoint with
    | `Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
    | `Unix _ -> ());
    Unix.bind listener addr;
    Unix.listen listener 64
  with
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e
  | () ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close listener with Unix.Unix_error _ -> ());
        unlink ())
      (fun () ->
        (match (ready, Unix.getsockname listener) with
        | Some ready, Unix.ADDR_INET (_, port) -> ready port
        | Some ready, Unix.ADDR_UNIX _ -> ready 0
        | None, _ -> ());
        f listener)

(* --- connections --- *)

type connection = {
  fd : Unix.file_descr;
  conn_oc : out_channel;
  write_lock : Mutex.t;
  mutable conn_closed : bool;  (* guarded by [write_lock] *)
}

(* Writes happen from the reader thread (rejections) and from whichever
   thread holds the result (serve's dispatcher, the router's worker
   links); the lock keeps envelope lines whole. A dead peer must not
   kill the server: write errors are swallowed (the reader notices the
   close on its side). *)
let send conn response =
  Mutex.lock conn.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_lock)
    (fun () ->
      if not conn.conn_closed then
        try write_line conn.conn_oc (Protocol.response_to_line response)
        with Sys_error _ -> ())

(* Closing must hold the write lock: the descriptor may be reused by
   the very next accept, so a late reply racing the close could
   otherwise land on a different client's connection. Once
   [conn_closed] is set, [send] drops replies for this peer. *)
let close_conn conn =
  Mutex.lock conn.write_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_lock)
    (fun () ->
      if not conn.conn_closed then begin
        conn.conn_closed <- true;
        (try flush conn.conn_oc with Sys_error _ -> ());
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

(* --- the accept loop --- *)

let accept_loop ?idle_timeout_s ?max_line ~stop ~drain listener reader =
  (* A peer that closes before its reply must cost an EPIPE, which
     [send] swallows, not the process: SIGPIPE's default action ends
     it. Left ignored on return, as another loop may still serve. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let connections = ref [] in
  let conn_lock = Mutex.create () in
  let detach conn () =
    Mutex.lock conn_lock;
    connections := List.filter (fun c -> c != conn) !connections;
    Mutex.unlock conn_lock;
    close_conn conn
  in
  (* Poll-accept so the loop observes [stop] promptly even when no
     client ever connects; 100 ms is invisible next to a pack but keeps
     shutdown snappy. *)
  while not (stop ()) do
    match Unix.select [ listener ] [] [] 0.1 with
    | [ _ ], _, _ -> (
      match Unix.accept listener with
      | fd, _ ->
        (* Unix-domain sockets reject the option, harmlessly *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let conn =
          {
            fd;
            conn_oc = Unix.out_channel_of_descr fd;
            write_lock = Mutex.create ();
            conn_closed = false;
          }
        in
        Mutex.lock conn_lock;
        connections := conn :: !connections;
        Mutex.unlock conn_lock;
        (* when the reader exits (eof, idle timeout, oversize line) the
           connection leaves the list and its descriptor closes *)
        let lr = Line_reader.create ?idle_timeout_s ?max_line fd in
        ignore
          (Thread.create
             (fun () -> Fun.protect ~finally:(detach conn) (fun () -> reader conn lr))
             ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Drain: the caller answers what it admitted (replies flush inside
     [send]), then the connections drop. *)
  drain ();
  Mutex.lock conn_lock;
  let conns = !connections in
  connections := [];
  Mutex.unlock conn_lock;
  List.iter close_conn conns

(* --- the serve daemon --- *)

type job = {
  request : Protocol.request;
  admitted_at : float;
  reply : Protocol.response -> unit;
}

let reader service queue conn lr =
  let metrics = Service.metrics service in
  let rec loop () =
    match Line_reader.next lr with
    | Line_reader.Eof -> ()
    | Line_reader.Idle_timeout -> ()  (* reap the silent connection *)
    | Line_reader.Too_long ->
      (* mid-line there is no resync point; answer once and hang up *)
      Metrics.incr_malformed metrics;
      Metrics.incr_status metrics Protocol.Bad_request;
      send conn
        (Protocol.reject ~id:"" Protocol.Bad_request
           (Printf.sprintf "line exceeds %d bytes" (Line_reader.max_line lr)))
    | Line_reader.Line line when String.trim line = "" -> loop ()
    | Line_reader.Line line ->
      (match Protocol.request_of_line line with
      | Error (id, e) ->
        Metrics.incr_malformed metrics;
        Metrics.incr_status metrics Protocol.Bad_request;
        send conn (Protocol.reject ~id Protocol.Bad_request e)
      | Ok request ->
        let job =
          { request; admitted_at = Msoc_util.Clock.now (); reply = send conn }
        in
        if not (Bounded_queue.try_push queue job) then begin
          let status, why =
            if Bounded_queue.is_closed queue then
              (Protocol.Shutting_down, "server is draining")
            else
              ( Protocol.Overloaded,
                Printf.sprintf "queue full (%d requests pending)"
                  (Bounded_queue.capacity queue) )
          in
          Metrics.incr_request metrics request.Protocol.op;
          Metrics.incr_status metrics status;
          send conn (Protocol.reject ~id:request.Protocol.id status why)
        end);
      loop ()
  in
  loop ()

let dispatch service queue stop () =
  let rec loop () =
    match Bounded_queue.pop queue with
    | None -> ()
    | Some job ->
      job.reply
        (Service.handle ~admitted_at:job.admitted_at service job.request);
      if Service.shutdown_requested service then Atomic.set stop true;
      loop ()
  in
  loop ()

let with_signals stop f =
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true)) in
  let previous = List.map (fun s -> (s, install s)) [ Sys.sigint; Sys.sigterm ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) previous)
    f

let serve ?(queue_capacity = 64) ?max_line ?idle_timeout_s ?ready ~listen
    service =
  let stop = Atomic.make false in
  let queue = Bounded_queue.create ~capacity:queue_capacity in
  with_listener ?ready listen (fun listener ->
      with_signals stop (fun () ->
          let dispatcher = Thread.create (dispatch service queue stop) () in
          accept_loop ?idle_timeout_s ?max_line listener
            ~stop:(fun () ->
              Atomic.get stop || Service.shutdown_requested service)
            ~drain:(fun () ->
              (* stop admissions; the dispatcher finishes every
                 admitted request *)
              Bounded_queue.close queue;
              Thread.join dispatcher)
            (reader service queue)))
