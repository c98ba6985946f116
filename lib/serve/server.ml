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

let default_max_line = 1 lsl 20

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

  let create ?idle_timeout_s ?(max_line = default_max_line) fd =
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

(* --- socket daemons (Unix-domain and TCP share everything below) --- *)

type job = {
  request : Protocol.request;
  admitted_at : float;
  reply : Protocol.response -> unit;
}

type connection = {
  fd : Unix.file_descr;
  conn_oc : out_channel;
  write_lock : Mutex.t;
  mutable conn_closed : bool;  (* guarded by [write_lock] *)
}

(* Writes happen from the reader thread (rejections) and the dispatch
   thread (results); the lock keeps envelope lines whole. A dead peer
   must not kill the server: write errors are swallowed (the reader
   notices the close on its side). *)
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

let reader service queue conn lr ~detach () =
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
          { request; admitted_at = Unix.gettimeofday (); reply = send conn }
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
  loop ();
  detach conn

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

(* The accept/dispatch/drain loop both daemons share. The caller owns
   binding and listening; [cleanup] runs on every exit path. *)
let serve_loop ~queue_capacity ~max_line ~idle_timeout_s ~listener ~cleanup
    service =
  let stop = Atomic.make false in
  let queue = Bounded_queue.create ~capacity:queue_capacity in
  let connections = ref [] in
  let conn_lock = Mutex.create () in
  let detach conn =
    Mutex.lock conn_lock;
    connections := List.filter (fun c -> c != conn) !connections;
    Mutex.unlock conn_lock;
    close_conn conn
  in
  with_signals stop (fun () ->
      Fun.protect ~finally:cleanup (fun () ->
          let dispatcher = Thread.create (dispatch service queue stop) () in
          (* Poll-accept so the loop observes [stop], and a shutdown
             requested on the service from outside, promptly even when
             no client ever connects; 100 ms is invisible next to a
             pack but keeps shutdown snappy. *)
          while not (Atomic.get stop || Service.shutdown_requested service) do
            match Unix.select [ listener ] [] [] 0.1 with
            | [ _ ], _, _ -> (
              match Unix.accept listener with
              | fd, _ ->
                (* latency beats throughput for one-line envelopes;
                   Unix-domain sockets reject the option, harmlessly *)
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
                let lr = Line_reader.create ?idle_timeout_s ~max_line fd in
                ignore (Thread.create (reader service queue conn lr ~detach) ())
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
            | _ -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          (* Drain: stop admissions, let the dispatcher finish every
             admitted request (replies flush inside [send]), then drop
             the connections. *)
          Bounded_queue.close queue;
          Thread.join dispatcher;
          Mutex.lock conn_lock;
          let conns = !connections in
          connections := [];
          Mutex.unlock conn_lock;
          List.iter close_conn conns))

let serve_unix ?(queue_capacity = 64) ?(max_line = default_max_line)
    ?idle_timeout_s ~socket_path service =
  (if Sys.file_exists socket_path then
     try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    try Unix.unlink socket_path with Unix.Unix_error _ | Sys_error _ -> ()
  in
  match
    Unix.bind listener (Unix.ADDR_UNIX socket_path);
    Unix.listen listener 64
  with
  | () ->
    serve_loop ~queue_capacity ~max_line ~idle_timeout_s ~listener ~cleanup
      service
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e

let serve_tcp ?(queue_capacity = 64) ?(max_line = default_max_line)
    ?idle_timeout_s ?ready ?(host = "127.0.0.1") ~port service =
  let addr =
    match host with
    | "localhost" -> Unix.inet_addr_loopback
    | h -> Unix.inet_addr_of_string h
  in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    Unix.bind listener (Unix.ADDR_INET (addr, port));
    Unix.listen listener 64
  with
  | () ->
    let bound_port =
      match Unix.getsockname listener with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> port
    in
    (match ready with Some f -> f bound_port | None -> ());
    serve_loop ~queue_capacity ~max_line ~idle_timeout_s ~listener
      ~cleanup:(fun () ->
        try Unix.close listener with Unix.Unix_error _ -> ())
      service
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e
