(* Tests for the fleet subsystem (PR 8): the consistent-hash ring
   (stability, balance, minimal disruption, failover order), jittered
   backoff, routing-key canonicalization, the worker link against a
   live TCP daemon, the router end-to-end (hashed routing, worker
   stamps, router-answered stats, honest unavailable, shutdown drain),
   and the supervisor restarting a SIGKILLed real worker process. *)

module Export = Msoc_testplan.Export
module Protocol = Msoc_serve.Protocol
module Service = Msoc_serve.Service
module Server = Msoc_serve.Server
module Client = Msoc_serve.Client
module Backoff = Msoc_util.Backoff
module Hash_ring = Msoc_fleet.Hash_ring
module Router = Msoc_fleet.Router
module Worker_client = Msoc_fleet.Worker_client
module Supervisor = Msoc_fleet.Supervisor

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

(* --- hash ring --- *)

let test_ring_stable_and_total () =
  let ids = [ "w0"; "w1"; "w2"; "w3" ] in
  let ring = Hash_ring.create ids in
  let ring' = Hash_ring.create ids in
  List.iter
    (fun k ->
      let w = Hash_ring.lookup ring k in
      checkb "owner is a member" true (List.mem w ids);
      checks "same ring, same owner" w (Hash_ring.lookup ring k);
      checks "equal rings agree" w (Hash_ring.lookup ring' k))
    (keys 200)

let test_ring_balance () =
  let ids = [ "w0"; "w1"; "w2"; "w3" ] in
  let ring = Hash_ring.create ids in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let w = Hash_ring.lookup ring k in
      Hashtbl.replace counts w
        (1 + Option.value (Hashtbl.find_opt counts w) ~default:0))
    (keys 1000);
  List.iter
    (fun id ->
      let n = Option.value (Hashtbl.find_opt counts id) ~default:0 in
      (* perfectly even would be 250; 64 virtual points per worker
         keep every share within a loose 2x band *)
      checkb (id ^ " owns a fair share") true (n > 100 && n < 450))
    ids

let test_ring_minimal_disruption () =
  let before = Hash_ring.create [ "w0"; "w1"; "w2"; "w3" ] in
  let after = Hash_ring.create [ "w0"; "w1"; "w2"; "w3"; "w4" ] in
  let ks = keys 1000 in
  let moved =
    List.length
      (List.filter
         (fun k ->
           let was = Hash_ring.lookup before k in
           let is = Hash_ring.lookup after k in
           checkb "a key only moves to the new worker" true
             (was = is || is = "w4");
           was <> is)
         ks)
  in
  (* adding 1 of 5 workers should claim roughly 1/5 of the keys *)
  checkb "adding a worker moves only its own share" true
    (moved > 80 && moved < 350)

let test_ring_successors () =
  let ids = [ "w0"; "w1"; "w2"; "w3" ] in
  let ring = Hash_ring.create ids in
  List.iter
    (fun k ->
      let ss = Hash_ring.successors ring k in
      checki "every worker appears once" (List.length ids)
        (List.length (List.sort_uniq compare ss));
      checks "head is the owner" (Hash_ring.lookup ring k) (List.hd ss))
    (keys 50)

(* --- backoff --- *)

let test_backoff_deterministic_and_bounded () =
  let a = Backoff.create ~base_ms:10.0 ~seed:5 () in
  let b = Backoff.create ~base_ms:10.0 ~seed:5 () in
  for _ = 1 to 20 do
    let da = Backoff.next_delay_ms a in
    let db = Backoff.next_delay_ms b in
    checkb "same seed, same draw" true (da = db);
    checkb "within [0, cap]" true (da >= 0.0 && da <= 2000.0)
  done;
  Backoff.reset a;
  let early = Backoff.next_delay_ms a in
  checkb "first draw after reset is under base" true (early <= 10.0)

(* --- routing keys --- *)

let test_routing_key_canonical () =
  let req fields =
    Protocol.request ~id:"x" ~params:(Export.Object fields) Protocol.Plan
  in
  let a =
    req [ ("width", Export.Int 16); ("weight_time", Export.Float 0.5) ]
  in
  let b =
    req [ ("weight_time", Export.Float 0.5); ("width", Export.Int 16) ]
  in
  let c =
    req [ ("width", Export.Int 24); ("weight_time", Export.Float 0.5) ]
  in
  checks "field order does not change the key" (Router.routing_key a)
    (Router.routing_key b);
  checkb "different params, different key" true
    (Router.routing_key a <> Router.routing_key c);
  checkb "op is part of the key" true
    (Router.routing_key a
    <> Router.routing_key
         { a with Protocol.op = Protocol.Optimize })

(* --- live endpoints: helpers --- *)

let small_soc_text =
  lazy
    (Msoc_itc02.Soc_file.to_string
       (Msoc_itc02.Synthetic.generate ~seed:42 ~name:"fleet_t"
          {
            Msoc_itc02.Synthetic.n_cores = 6;
            target_area = 1_000_000;
            max_chains = 8;
            bottleneck = false;
          }))

let plan_req ?(width = 16) ~id () =
  Protocol.request ~id
    ~params:
      (Export.Object
         [
           ("soc_text", Export.String (Lazy.force small_soc_text));
           ("width", Export.Int width);
         ])
    Protocol.Plan

(* a TCP daemon on an OS-assigned port, in a thread; returns the port *)
let start_worker service =
  let port = Atomic.make 0 in
  let th =
    Thread.create
      (fun () ->
        Server.serve ~queue_capacity:8
          ~ready:(fun p -> Atomic.set port p)
          ~listen:(`Tcp ("127.0.0.1", 0)) service)
      ()
  in
  let rec wait tries =
    if Atomic.get port <> 0 then Atomic.get port
    else if tries = 0 then Alcotest.fail "worker port never bound"
    else begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  (wait 250, th)

(* the port a [~ready] callback stored *)
let wait_port bound =
  let rec wait tries =
    if Atomic.get bound <> 0 then Atomic.get bound
    else if tries = 0 then Alcotest.fail "router port never bound"
    else begin
      Thread.delay 0.02;
      wait (tries - 1)
    end
  in
  wait 250

let connect ?idle_timeout_s port =
  Client.connect ?idle_timeout_s (`Tcp ("127.0.0.1", port)) ()

let send_req c req = ignore (Client.send c req : bool)

(* the next envelope; [what] names the request a missing one fails *)
let recv_resp ?(what = "the request") c =
  match Client.recv c with
  | Client.Response r -> r
  | Client.Malformed e -> Alcotest.failf "malformed response: %s" e
  | Client.Closed | Client.Timed_out -> Alcotest.failf "no envelope for %s" what

(* a [shutdown] envelope is the only thing that makes the daemon's
   accept loop exit (the dispatcher observes the service flag while
   handling it), so joining the server thread needs a live exchange *)
let stop_worker service port th =
  (match connect port with
  | exception Unix.Unix_error _ -> Service.request_shutdown service
  | c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> ignore (Client.call c (Protocol.request ~id:"stop" Protocol.Shutdown))));
  Thread.join th;
  Service.shutdown service

(* --- worker link --- *)

let test_worker_client_link () =
  let service = Service.create ~worker:"w" ~jobs:1 () in
  let port, th = start_worker service in
  let got = Atomic.make None in
  let link =
    Worker_client.create ~host:"127.0.0.1" ~port ~seed:3
      ~on_response:(fun r -> Atomic.set got (Some r))
      ~on_state:(fun ~up:_ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Worker_client.stop link;
      stop_worker service port th)
    (fun () ->
      let rec wait_up tries =
        if Worker_client.is_up link then ()
        else if tries = 0 then Alcotest.fail "link never came up"
        else begin
          Thread.delay 0.02;
          wait_up (tries - 1)
        end
      in
      wait_up 250;
      checkb "send on a live link" true
        (Worker_client.send_line link
           (Protocol.request_to_line
              (Protocol.request ~id:"x1" Protocol.Stats)));
      let rec wait_resp tries =
        match Atomic.get got with
        | Some r -> r
        | None ->
          if tries = 0 then Alcotest.fail "no response on the link"
          else begin
            Thread.delay 0.02;
            wait_resp (tries - 1)
          end
      in
      let r = wait_resp 250 in
      checks "response id" "x1" r.Protocol.id;
      checkb "worker stamp" true (r.Protocol.worker = Some "w"))

(* --- router end-to-end --- *)

let test_router_end_to_end () =
  let sa = Service.create ~worker:"a" ~jobs:1 () in
  let sb = Service.create ~worker:"b" ~jobs:1 () in
  let pa, ta = start_worker sa in
  let pb, tb = start_worker sb in
  let stop = Atomic.make false in
  let router_port = Atomic.make 0 in
  let router =
    Thread.create
      (fun () ->
        Router.run
          ~ready:(fun p -> Atomic.set router_port p)
          ~listen:(`Tcp ("127.0.0.1", 0))
          ~stop
          (Router.config ~window:4 ~retry_rounds:1 ~seed:9
             [
               { Router.id = "a"; host = "127.0.0.1"; port = pa };
               { Router.id = "b"; host = "127.0.0.1"; port = pb };
             ]))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join router;
      stop_worker sa pa ta;
      stop_worker sb pb tb)
    (fun () ->
      let c = connect (wait_port router_port) in
      send_req c (plan_req ~id:"r1" ());
      let r1 = recv_resp c in
      checks "routed response keeps the client id" "r1" r1.Protocol.id;
      checkb "plan ok through the router" true
        (r1.Protocol.status = Protocol.Success);
      let w1 =
        match r1.Protocol.worker with
        | Some w -> w
        | None -> Alcotest.fail "response lost its worker stamp"
      in
      checkb "stamped by a real worker" true (w1 = "a" || w1 = "b");
      (* same fingerprint, field order flipped: same worker, warm *)
      send_req c
        { (plan_req ~id:"r2" ()) with
          Protocol.params =
            Export.Object
              [
                ("width", Export.Int 16);
                ("soc_text", Export.String (Lazy.force small_soc_text));
              ] };
      let r2 = recv_resp c in
      checkb "repeat is a cache hit" true (r2.Protocol.cached <> None);
      checkb "repeat lands on the same worker" true
        (r2.Protocol.worker = Some w1);
      checks "identical payloads"
        (Export.to_string r1.Protocol.result)
        (Export.to_string r2.Protocol.result);
      (* stats are answered by the router itself *)
      send_req c (Protocol.request ~id:"r3" Protocol.Stats);
      let r3 = recv_resp c in
      checkb "stats stamped by the router" true
        (r3.Protocol.worker = Some "router");
      checkb "stats carry the fleet section" true
        (Export.member "fleet" r3.Protocol.result <> None);
      checkb "stats carry the protocol version" true
        (Export.member "protocol_version" r3.Protocol.result
        = Some (Export.Int Protocol.version));
      (* shutdown drains the fleet *)
      send_req c (Protocol.request ~id:"r4" Protocol.Shutdown);
      let r4 = recv_resp c in
      checkb "shutdown acknowledged" true
        (r4.Protocol.status = Protocol.Success);
      Client.close c;
      Thread.join router;
      checkb "router stopped on the shutdown envelope" true (Atomic.get stop))

(* bind-then-close guarantees a loopback port with no listener *)
let dead_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> 0)

let test_router_all_workers_down () =
  (* nothing listens on the target port: the router must answer with
     an honest [unavailable] envelope, never hang or drop *)
  let dead_port = dead_port () in
  let stop = Atomic.make false in
  let router_port = Atomic.make 0 in
  let router =
    Thread.create
      (fun () ->
        Router.run
          ~ready:(fun p -> Atomic.set router_port p)
          ~listen:(`Tcp ("127.0.0.1", 0))
          ~stop
          (Router.config ~retry_rounds:1 ~seed:4
             [ { Router.id = "gone"; host = "127.0.0.1"; port = dead_port } ]))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join router)
    (fun () ->
      let c = connect (wait_port router_port) in
      send_req c (plan_req ~id:"n1" ());
      let r = recv_resp c in
      checks "request id preserved" "n1" r.Protocol.id;
      checkb "honest unavailable" true
        (r.Protocol.status = Protocol.Unavailable);
      checkb "stamped by the router" true (r.Protocol.worker = Some "router");
      Client.close c)

(* The router answers a bad envelope itself, under the line's own
   string id: a pipelining client can tell which request failed. No
   worker is reached, so none listens. *)
let test_router_bad_envelope_keeps_id () =
  let stop = Atomic.make false in
  let router_port = Atomic.make 0 in
  let router =
    Thread.create
      (fun () ->
        Router.run
          ~ready:(fun p -> Atomic.set router_port p)
          ~listen:(`Tcp ("127.0.0.1", 0))
          ~stop
          (Router.config ~retry_rounds:1 ~seed:6
             [ { Router.id = "gone"; host = "127.0.0.1"; port = dead_port () } ]))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join router)
    (fun () ->
      let c = connect ~idle_timeout_s:5.0 (wait_port router_port) in
      List.iter
        (fun (id, line) ->
          ignore (Client.send_line c line : bool);
          let r = recv_resp ~what:line c in
          checks ("id of " ^ line) id r.Protocol.id;
          checkb "bad_request" true (r.Protocol.status = Protocol.Bad_request);
          checkb "stamped by the router" true (r.Protocol.worker = Some "router"))
        [
          ("a", {|{"v":1,"id":"a","op":"plan","params":[]}|});
          ("b", {|{"v":1,"id":"b","op":"nope"}|});
          ("c", {|{"v":1,"id":"c","op":"plan","deadline_ms":-1}|});
          ("", {|{"v":1,"id":7,"op":"plan"}|});
          ("", "not json");
        ];
      Client.close c)

(* A number past the float range once parsed as an infinity: the
   router forwarded it as [inf], the worker rejected that line under an
   empty id the router could not match, and the client got no envelope
   while the worker's window slot stayed taken. Two such lines filled a
   window of 2, so the plan after them was shed. *)
let test_router_out_of_range_number () =
  let service = Service.create ~worker:"a" ~jobs:1 () in
  let port, th = start_worker service in
  let stop = Atomic.make false in
  let router_port = Atomic.make 0 in
  let router =
    Thread.create
      (fun () ->
        Router.run
          ~ready:(fun p -> Atomic.set router_port p)
          ~listen:(`Tcp ("127.0.0.1", 0))
          ~stop
          (Router.config ~window:2 ~retry_rounds:1 ~seed:5
             [ { Router.id = "a"; host = "127.0.0.1"; port } ]))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join router;
      stop_worker service port th)
    (fun () ->
      (* a bounded wait: a missing envelope fails the read *)
      let c = connect ~idle_timeout_s:5.0 (wait_port router_port) in
      for k = 1 to 2 do
        ignore (Client.send_line c {|{"v":1,"id":"a","op":"plan","deadline_ms":1e999}|} : bool);
        let r = recv_resp ~what:(Printf.sprintf "out-of-range line %d" k) c in
        checkb "bad_request" true (r.Protocol.status = Protocol.Bad_request)
      done;
      send_req c (plan_req ~id:"p1" ());
      let r = recv_resp ~what:"the plan after them" c in
      checks "the plan's own envelope" "p1" r.Protocol.id;
      checkb "plan ok" true (r.Protocol.status = Protocol.Success);
      Client.close c)

(* --- one front door, four ways in --- *)

(* The daemon and the router share Server's listener, connections and
   accept loop, so one body checks both, each over a Unix socket and
   over TCP: an oversize line, a line cut short by a close, a client
   that leaves before its reply, a silent connection and a shutdown. *)

type door = {
  endpoint : Server.endpoint;  (* with the port the door bound *)
  stamp : string option;  (* the worker stamp on the door's own rejections *)
  settled : Export.json -> bool;
      (* from the door's stats: a plan was answered and none is owed *)
  stop : unit -> unit;  (* idempotent; returns once the door has *)
  socket_file : string option;
}

let door_max_line = 4096

let door_endpoint transport tag =
  match transport with
  | `Unix ->
    `Unix
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "msoc-door-%d-%s.sock" (Unix.getpid ()) tag))
  | `Tcp -> `Tcp ("127.0.0.1", 0)

let rec poll what cond tries =
  if not (cond ()) then
    if tries = 0 then Alcotest.failf "%s: not within 5 s" what
    else begin
      Thread.delay 0.02;
      poll what cond (tries - 1)
    end

(* run a door in a thread until its [ready] fires: the thread, the
   endpoint it bound and the socket file to be removed on shutdown *)
let open_door listen start =
  let bound = Atomic.make None in
  let th = Thread.create (fun () -> start ~ready:(fun p -> Atomic.set bound (Some p))) () in
  poll "the door bound" (fun () -> Atomic.get bound <> None) 250;
  let port = Option.get (Atomic.get bound) in
  match listen with
  | `Unix path -> (th, listen, Some path)
  | `Tcp (host, _) -> (th, `Tcp (host, port), None)

let once f =
  let done_ = ref false in
  fun () ->
    if not !done_ then begin
      done_ := true;
      f ()
    end

let int_at path json =
  match
    List.fold_left (fun j k -> Option.bind j (Export.member k)) (Some json) path
  with
  | Some (Export.Int n) -> n
  | _ -> 0

(* a connection whose reads give up after 5 s *)
let enter door = Client.connect ~idle_timeout_s:5.0 door.endpoint ()

(* the next envelope, or None once the door has hung up *)
let next_envelope c =
  match Client.recv c with
  | Client.Response r -> Some r
  | Client.Malformed e -> Alcotest.failf "malformed response: %s" e
  | Client.Closed -> None
  | Client.Timed_out -> Alcotest.fail "no envelope and no hang-up within 5 s"

let exchange door req =
  let c = enter door in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      send_req c req;
      match next_envelope c with
      | Some r -> r
      | None -> Alcotest.failf "the door hung up on %s" req.Protocol.id)

let door_stats door =
  let r = exchange door (Protocol.request ~id:"st" Protocol.Stats) in
  checkb "stats answered" true (r.Protocol.status = Protocol.Success);
  r.Protocol.result

let daemon_door transport idle_timeout_s =
  let listen = door_endpoint transport "daemon" in
  let service = Service.create ~jobs:1 () in
  let th, endpoint, socket_file =
    open_door listen (fun ~ready ->
        (* the default queue (64) holds the abandoned burst below *)
        Server.serve ~max_line:door_max_line ?idle_timeout_s ~ready ~listen
          service)
  in
  {
    endpoint;
    stamp = None;
    (* one dispatch thread: a stats that counts the plan follows it *)
    settled = (fun stats -> int_at [ "metrics"; "requests"; "plan" ] stats >= 1);
    stop =
      once (fun () ->
          Service.request_shutdown service;
          Thread.join th;
          Service.shutdown service);
    socket_file;
  }

let router_door transport idle_timeout_s =
  let listen = door_endpoint transport "router" in
  let service = Service.create ~worker:"a" ~jobs:1 () in
  let port, worker = start_worker service in
  let stop = Atomic.make false in
  let th, endpoint, socket_file =
    open_door listen (fun ~ready ->
        Router.run ~ready ~listen ~stop
          (Router.config ~max_line:door_max_line ?idle_timeout_s ~seed:3
             [ { Router.id = "a"; host = "127.0.0.1"; port } ]))
  in
  let door =
    {
      endpoint;
      stamp = Some "router";
      settled =
        (fun stats ->
          int_at [ "pending" ] stats = 0
          && int_at [ "fleet"; "workers"; "a"; "forwarded" ] stats >= 1);
      stop =
        once (fun () ->
            Atomic.set stop true;
            Thread.join th;
            stop_worker service port worker);
      socket_file;
    }
  in
  match
    poll "the worker link up"
      (fun () ->
        Export.member "links" (door_stats door)
        = Some (Export.Object [ ("a", Export.Bool true) ]))
      250
  with
  | () -> door
  | exception e ->
    door.stop ();
    raise e

let front_door_body door =
  (* an oversize line: one bad_request, then the door hangs up *)
  let c = enter door in
  ignore (Client.send_line c (String.make (door_max_line + 1) 'x') : bool);
  (match next_envelope c with
  | Some r ->
    checkb "oversize line rejected" true (r.Protocol.status = Protocol.Bad_request);
    checks "under the empty id" "" r.Protocol.id;
    checkb "stamped by the door" true (r.Protocol.worker = door.stamp)
  | None -> Alcotest.fail "no envelope for an oversize line");
  checkb "one envelope, then the connection closes" true (next_envelope c = None);
  Client.close c;
  (* half a line, then the client closes its side: no envelope (a raw
     descriptor, as the client only sends whole lines) *)
  let fd = Server.connect door.endpoint () in
  let half = {|{"v":1,"id":"half","op":"st|} in
  ignore (Unix.write_substring fd half 0 (String.length half) : int);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  checkb "a partial line gets no envelope" true
    (Server.Line_reader.(next (create ~idle_timeout_s:5.0 fd)) = Server.Line_reader.Eof);
  Unix.close fd;
  ignore (door_stats door : Export.json);
  (* a plan whose client leaves before the reply still runs *)
  let c = enter door in
  send_req c (plan_req ~width:20 ~id:"gone" ());
  Client.close c;
  poll "the abandoned plan answered" (fun () -> door.settled (door_stats door)) 250;
  (* replies owed to departed clients cost the door nothing *)
  for k = 1 to 20 do
    let c = enter door in
    send_req c (Protocol.request ~id:(Printf.sprintf "s%d" k) Protocol.Stats);
    Client.close c
  done;
  let r = exchange door (plan_req ~width:20 ~id:"again" ()) in
  checks "the repeat's own id" "again" r.Protocol.id;
  checkb "the repeat succeeds" true (r.Protocol.status = Protocol.Success);
  checkb "the abandoned plan filled the cache" true
    (r.Protocol.cached = Some "memory");
  checkb "nothing owed" true (door.settled (door_stats door));
  (* a shutdown envelope: the door drains and returns *)
  let r = exchange door (Protocol.request ~id:"bye" Protocol.Shutdown) in
  checkb "shutdown acknowledged" true (r.Protocol.status = Protocol.Success);
  door.stop ();
  match door.socket_file with
  | Some path -> checkb "socket file removed" false (Sys.file_exists path)
  | None -> ()

(* a connection that never sends is reaped after the idle budget *)
let idle_body door =
  let c = enter door in
  let t0 = Unix.gettimeofday () in
  checkb "a silent connection is reaped" true (next_envelope c = None);
  checkb "not before its idle budget" true (Unix.gettimeofday () -. t0 >= 0.15);
  Client.close c;
  ignore (door_stats door : Export.json)

(* Client.connect sets SIGPIPE to ignored once per process; put back to
   its default here, only the door's own accept loop keeps a client
   that leaves before its reply from killing this process *)
let sigpipe_default () =
  ignore (Client.connect (`Unix "unused") : unit -> Client.t);
  Sys.set_signal Sys.sigpipe Sys.Signal_default

let test_front_door start () =
  sigpipe_default ();
  let door = start None in
  Fun.protect ~finally:door.stop (fun () -> front_door_body door);
  let idle = start (Some 0.2) in
  Fun.protect ~finally:idle.stop (fun () -> idle_body idle)

(* --- a worker that answers garbage --- *)

(* Answers every line on [fd] with a line that is no envelope, until
   the peer closes. *)
let answer_garbage fd =
  let lr = Server.Line_reader.create fd in
  let rec loop () =
    match Server.Line_reader.next lr with
    | Server.Line_reader.Line _ ->
      ignore (Unix.write_substring fd "garbage\n" 0 8 : int);
      loop ()
    | Server.Line_reader.Eof | Server.Line_reader.Too_long
    | Server.Line_reader.Idle_timeout ->
      ()
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      try loop () with Unix.Unix_error _ -> ())

(* one connection at a time: the router's link reconnects after each
   drop *)
let accept_garbage listener stop =
  Fun.protect ~finally:(fun () -> Unix.close listener) (fun () ->
      while not (Atomic.get stop) do
        match Unix.select [ listener ] [] [] 0.05 with
        | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> ()
        | _ -> answer_garbage (fst (Unix.accept ~cloexec:true listener))
      done)

(* a worker that answers garbage on a loopback port: the port and its
   stop *)
let garbage_worker () =
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 8;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  let stop = Atomic.make false in
  let th = Thread.create (fun () -> accept_garbage listener stop) () in
  ( port,
    fun () ->
      Atomic.set stop true;
      Thread.join th )

(* The link once skipped a line that was no envelope, so the request
   it answered never got one: the client waited out its idle budget,
   and the request held a window slot for good. The line now drops the
   link, and the down edge answers the orphan (no other worker is up). *)
let test_router_garbage_worker () =
  let port, stop_worker = garbage_worker () in
  let stop = Atomic.make false in
  let router_port = Atomic.make 0 in
  let router =
    Thread.create
      (fun () ->
        Router.run
          ~ready:(fun p -> Atomic.set router_port p)
          ~listen:(`Tcp ("127.0.0.1", 0))
          ~stop
          (Router.config ~retry_rounds:1 ~seed:8
             [ { Router.id = "g"; host = "127.0.0.1"; port } ]))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join router;
      stop_worker ())
    (fun () ->
      let c = connect ~idle_timeout_s:30.0 (wait_port router_port) in
      let stats id =
        send_req c (Protocol.request ~id Protocol.Stats);
        (recv_resp c).Protocol.result
      in
      (* the plan must reach the worker, so wait for the link *)
      poll "the link came up"
        (fun () ->
          match Export.member "links" (stats "up") with
          | Some links -> Export.member "g" links = Some (Export.Bool true)
          | None -> false)
        250;
      let t0 = Msoc_util.Clock.now () in
      send_req c (plan_req ~id:"g1" ());
      let r = recv_resp ~what:"the plan a garbage line answered" c in
      checks "the plan's own envelope" "g1" r.Protocol.id;
      checkb "unavailable" true (r.Protocol.status = Protocol.Unavailable);
      checkb "well inside the client's 30 s bound" true
        (Msoc_util.Clock.now () -. t0 < 10.0);
      (* exactly one: the next envelope answers the next request *)
      send_req c (Protocol.request ~id:"s1" Protocol.Stats);
      let s = recv_resp c in
      checks "no second envelope for the plan" "s1" s.Protocol.id;
      checkb "nothing pending" true
        (Export.member "pending" s.Protocol.result = Some (Export.Int 0));
      Client.close c)

(* --- supervisor over a real worker process --- *)

let test_supervisor_restarts_killed_worker () =
  let port = 7930 + (Unix.getpid () mod 37) in
  let restarts = Atomic.make 0 in
  (* resolve the worker binary relative to this test binary, so the
     path holds under both [dune runtest] and [dune exec] *)
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "msoc_plan.exe"))
  in
  let spec =
    {
      Supervisor.id = "w0";
      argv =
        [| exe; "serve"; "--tcp"; string_of_int port; "--worker-id"; "w0" |];
      port;
    }
  in
  let sup =
    Supervisor.create ~ping_interval_s:0.3 ~ping_timeout_s:0.5 ~seed:13
      ~on_restart:(fun _ -> Atomic.incr restarts)
      [ spec ]
  in
  Fun.protect
    ~finally:(fun () -> Supervisor.stop sup)
    (fun () ->
      let answer () =
        match connect port with
        | exception Unix.Unix_error _ -> None
        | c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.call c (Protocol.request ~id:"hb" Protocol.Stats) with
              | Client.Response r -> Some r
              | Client.Malformed e -> Alcotest.failf "malformed response: %s" e
              | Client.Closed | Client.Timed_out -> None)
      in
      let rec wait_answer tries =
        match answer () with
        | Some r -> r
        | None ->
          if tries = 0 then Alcotest.fail "worker never answered"
          else begin
            Thread.delay 0.1;
            wait_answer (tries - 1)
          end
      in
      let first = wait_answer 150 in
      checkb "worker stamps its envelope" true
        (first.Protocol.worker = Some "w0");
      let pid0 =
        match Supervisor.pids sup with
        | [ (_, p) ] -> p
        | other -> Alcotest.failf "expected one pid, got %d" (List.length other)
      in
      Unix.kill pid0 Sys.sigkill;
      let rec wait_restart tries =
        match Supervisor.pids sup with
        | [ (_, p) ] when p <> pid0 -> p
        | _ ->
          if tries = 0 then Alcotest.fail "supervisor never restarted the worker"
          else begin
            Thread.delay 0.1;
            wait_restart (tries - 1)
          end
      in
      let pid1 = wait_restart 200 in
      checkb "a fresh process" true (pid1 <> pid0);
      checki "restart hook fired once" 1 (Atomic.get restarts);
      ignore (wait_answer 150));
  (* after stop, the worker process must be gone *)
  checki "no pids after stop" 0 (List.length (Supervisor.pids sup))

let suites =
  [
    ( "fleet-ring",
      [
        Alcotest.test_case "stable and total" `Quick test_ring_stable_and_total;
        Alcotest.test_case "balanced shares" `Quick test_ring_balance;
        Alcotest.test_case "minimal disruption" `Quick
          test_ring_minimal_disruption;
        Alcotest.test_case "failover order" `Quick test_ring_successors;
      ] );
    ( "fleet-backoff",
      [
        Alcotest.test_case "deterministic and bounded" `Quick
          test_backoff_deterministic_and_bounded;
      ] );
    ( "fleet-router",
      [
        Alcotest.test_case "routing key canonicalization" `Quick
          test_routing_key_canonical;
        Alcotest.test_case "worker link" `Quick test_worker_client_link;
        Alcotest.test_case "end-to-end over TCP" `Quick test_router_end_to_end;
        Alcotest.test_case "all workers down" `Quick
          test_router_all_workers_down;
        Alcotest.test_case "bad envelope keeps its id" `Quick
          test_router_bad_envelope_keeps_id;
        Alcotest.test_case "out-of-range number rejected" `Quick
          test_router_out_of_range_number;
        Alcotest.test_case "a garbage reply drops the link" `Quick
          test_router_garbage_worker;
      ] );
    ( "front-door",
      [
        Alcotest.test_case "daemon over a Unix socket" `Quick
          (test_front_door (daemon_door `Unix));
        Alcotest.test_case "daemon over TCP" `Quick
          (test_front_door (daemon_door `Tcp));
        Alcotest.test_case "router over a Unix socket" `Quick
          (test_front_door (router_door `Unix));
        Alcotest.test_case "router over TCP" `Quick
          (test_front_door (router_door `Tcp));
      ] );
    ( "fleet-supervisor",
      [
        Alcotest.test_case "restarts a killed worker" `Quick
          test_supervisor_restarts_killed_worker;
      ] );
  ]
