module Export = Msoc_testplan.Export
module Protocol = Msoc_serve.Protocol
module Server = Msoc_serve.Server
module Backoff = Msoc_util.Backoff

(* --- routing keys --- *)

(* The routing key must be computable without loading the SOC (the
   router never parses problem files), must be stable across clients
   (field order in hand-written JSON varies), and must send repeats of
   the same request to the same worker (warm prepared/memo caches).
   Canonicalized params — object keys sorted, recursively — plus the
   op name give exactly that: a superset of the inputs to the worker's
   own cache key. *)
let rec canonical (j : Export.json) =
  match j with
  | Export.Object fields ->
    Export.Object
      (List.sort (fun (a, _) (b, _) -> String.compare a b) fields
      |> List.map (fun (k, v) -> (k, canonical v)))
  | Export.List items -> Export.List (List.map canonical items)
  | other -> other

let routing_key (req : Protocol.request) =
  Protocol.op_name req.Protocol.op
  ^ "#"
  ^ Export.to_string (canonical req.Protocol.params)

(* --- configuration --- *)

type worker_spec = { id : string; host : string; port : int }

type config = {
  workers : worker_spec list;
  window : int;  (* per-worker in-flight cap *)
  replicas : int;  (* ring virtual nodes per worker *)
  retry_rounds : int;  (* all-down backoff rounds before unavailable *)
  max_line : int option;  (* None: the front door's 1 MiB *)
  idle_timeout_s : float option;
  seed : int;
}

let config ?(window = 8) ?(replicas = 64) ?(retry_rounds = 5) ?max_line
    ?idle_timeout_s ?(seed = 1) workers =
  if workers = [] then invalid_arg "Router.config: no workers";
  if window < 1 then invalid_arg "Router.config: window must be >= 1";
  { workers; window; replicas; retry_rounds; max_line; idle_timeout_s; seed }

(* --- router state --- *)

type pending = {
  internal : string;  (* the id on the worker wire *)
  p_client : Server.connection;
  orig_id : string;
  request : Protocol.request;  (* original; resends re-render from it *)
  key : string;
  mutable assigned : string;  (* owning worker; under [pending_lock] *)
}

type state = {
  cfg : config;
  ring : Hash_ring.t;
  metrics : Fleet_metrics.t;
  links : (string * Worker_client.t) list;  (* frozen after start *)
  slots : (string * int Atomic.t) list;  (* frozen after start *)
  pending_lock : Mutex.t;
  pending : (string, pending) Hashtbl.t;  (* internal id -> entry *)
  next_id : int Atomic.t;
  stop : bool Atomic.t;
}

let link st id = List.assoc id st.links

let slot st id = List.assoc id st.slots

(* CAS acquisition keeps the window exact under concurrent admission
   from many reader threads without a lock on the hot path. *)
let rec acquire_slot st id =
  let a = slot st id in
  let cur = Atomic.get a in
  if cur >= st.cfg.window then false
  else Atomic.compare_and_set a cur (cur + 1) || acquire_slot st id

let release_slot st id = Atomic.decr (slot st id)

let take_pending st internal =
  Mutex.lock st.pending_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock st.pending_lock)
    (fun () ->
      match Hashtbl.find_opt st.pending internal with
      | Some p ->
        Hashtbl.remove st.pending internal;
        Some p
      | None -> None)

let pending_count st =
  Mutex.lock st.pending_lock;
  let n = Hashtbl.length st.pending in
  Mutex.unlock st.pending_lock;
  n

(* Register, then send. Registration first: the worker's reply can
   race back on the link thread the instant the line is flushed. On a
   failed send the entry is withdrawn and the slot released — but only
   when the table still carries {e this} registration for {e this}
   worker. Between the register and the failed send, [on_worker_down]
   may have collected the entry as an orphan (releasing this worker's
   slot itself) and re-registered it on a replacement; blindly
   removing would erase the replacement's registration (its reply
   would find no entry, so the client never gets an envelope) and
   double-release this worker's slot. In that case the request is the
   redispatcher's now — report success so the caller doesn't dispatch
   it a second time. *)
let forward st p worker_id =
  Mutex.lock st.pending_lock;
  p.assigned <- worker_id;
  Hashtbl.replace st.pending p.internal p;
  Mutex.unlock st.pending_lock;
  let line =
    Protocol.request_to_line { p.request with Protocol.id = p.internal }
  in
  if Worker_client.send_line (link st worker_id) line then begin
    Fleet_metrics.incr_forwarded st.metrics worker_id;
    Fleet_metrics.in_flight_incr st.metrics worker_id;
    true
  end
  else begin
    Mutex.lock st.pending_lock;
    let still_ours =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock st.pending_lock)
        (fun () ->
          match Hashtbl.find_opt st.pending p.internal with
          | Some q when q == p && p.assigned = worker_id ->
            Hashtbl.remove st.pending p.internal;
            true
          | Some _ | None -> false)
    in
    if still_ours then begin
      release_slot st worker_id;
      false
    end
    else
      (* [on_worker_down] redispatched (or answered) it concurrently;
         it owns the envelope now. *)
      true
  end

type dispatch_outcome = Dispatched | Window_full of string | No_worker

(* One non-blocking pass over the key's failover order: the first live
   worker either takes the request or — when its window is full —
   sheds it as [overloaded]. Overload never spills onto the next
   worker: that would flood every cache-cold replica exactly when the
   fleet is saturated. Down workers are skipped (failover); a link
   that dies between the liveness check and the send counts a retry
   and falls through to the next candidate. *)
let try_dispatch st p =
  let primary = Hash_ring.lookup st.ring p.key in
  let rec go = function
    | [] -> No_worker
    | w :: rest ->
      if not (Worker_client.is_up (link st w)) then go rest
      else if not (acquire_slot st w) then begin
        Fleet_metrics.incr_shed_overloaded st.metrics w;
        Window_full w
      end
      else if forward st p w then begin
        if w <> primary then Fleet_metrics.incr_failover st.metrics primary;
        Dispatched
      end
      else begin
        Fleet_metrics.incr_retry st.metrics w;
        go rest
      end
  in
  go (Hash_ring.successors st.ring p.key)

(* --- the fleet [stats] envelope --- *)

let stats_json st =
  Export.Object
    [
      ("protocol_version", Export.Int Protocol.version);
      ("fleet", Fleet_metrics.snapshot_json st.metrics);
      ( "links",
        Export.Object
          (List.map
             (fun (id, c) -> (id, Export.Bool (Worker_client.is_up c)))
             st.links) );
      ("pending", Export.Int (pending_count st));
    ]

(* --- admission (per-client reader threads) --- *)

let router_reject ~id status why =
  Protocol.reject ~worker:"router" ~id status why

let admit st backoff conn (req : Protocol.request) =
  let id = req.Protocol.id in
  match req.Protocol.op with
  | Protocol.Stats ->
    Server.send conn (Protocol.ok ~worker:"router" ~id (stats_json st))
  | Protocol.Shutdown ->
    Atomic.set st.stop true;
    Server.send conn
      (Protocol.ok ~worker:"router" ~id
         (Export.Object [ ("draining", Export.Bool true) ]))
  | Protocol.Plan | Protocol.Explore | Protocol.Optimize | Protocol.Cosim ->
    let key = routing_key req in
    let primary = Hash_ring.lookup st.ring key in
    let p =
      {
        internal = Printf.sprintf "f%d" (Atomic.fetch_and_add st.next_id 1);
        p_client = conn;
        orig_id = id;
        request = req;
        key;
        assigned = primary;
      }
    in
    Fleet_metrics.queued_incr st.metrics primary;
    Backoff.reset backoff;
    (* Every admitted request leaves through exactly one envelope:
       dispatched (the worker answers), overloaded, shutting_down or
       unavailable — a connection is never simply dropped. *)
    let rec attempt round =
      match try_dispatch st p with
      | Dispatched -> ()
      | Window_full w ->
        Server.send conn
          (router_reject ~id Protocol.Overloaded
             (Printf.sprintf "worker %s window full (%d in flight)" w
                st.cfg.window))
      | No_worker ->
        if Atomic.get st.stop then
          Server.send conn
            (router_reject ~id Protocol.Shutting_down "fleet is draining")
        else if round >= st.cfg.retry_rounds then begin
          Fleet_metrics.incr_shed_unavailable st.metrics;
          Server.send conn
            (router_reject ~id Protocol.Unavailable
               (Printf.sprintf "no worker reachable after %d retries" round))
        end
        else begin
          Backoff.sleep backoff ~stop:(fun () -> Atomic.get st.stop);
          attempt (round + 1)
        end
    in
    attempt 0;
    Fleet_metrics.queued_decr st.metrics primary

let client_reader st conn lr =
  let backoff = Backoff.create ~seed:st.cfg.seed () in
  let rec loop () =
    match Server.Line_reader.next lr with
    | Server.Line_reader.Eof | Server.Line_reader.Idle_timeout -> ()
    | Server.Line_reader.Too_long ->
      Fleet_metrics.incr_malformed st.metrics;
      Server.send conn
        (router_reject ~id:"" Protocol.Bad_request
           (Printf.sprintf "line exceeds %d bytes"
              (Server.Line_reader.max_line lr)))
    | Server.Line_reader.Line line when String.trim line = "" -> loop ()
    | Server.Line_reader.Line line ->
      (match Protocol.request_of_line line with
      | Error (id, e) ->
        Fleet_metrics.incr_malformed st.metrics;
        Server.send conn (router_reject ~id Protocol.Bad_request e)
      | Ok req -> admit st backoff conn req);
      loop ()
  in
  loop ()

(* --- worker-link events --- *)

let on_response st (resp : Protocol.response) =
  match take_pending st resp.Protocol.id with
  | None -> ()  (* raced a redispatch or a drain; already answered *)
  | Some p ->
    release_slot st p.assigned;
    Fleet_metrics.in_flight_decr st.metrics p.assigned;
    (* keep the worker's own stamp so clients see who computed it *)
    Server.send p.p_client { resp with Protocol.id = p.orig_id }

(* A dead worker orphans its in-flight requests. Each orphan is taken
   out of the pending table (skipping any the reply path already
   answered), its slot released, and re-forwarded to the first live
   worker in its key's ring order — the ops are pure computations, so
   a resend is safe even when the worker died mid-compute. Redispatch
   follows [try_dispatch]'s policy exactly: the first live candidate
   either takes the orphan or, when its window is full, sheds it as
   [overloaded] — never spilling onto cache-cold replicas while the
   fleet is saturated. With no live replacement at all the client
   gets an honest [unavailable]. *)
let on_worker_down st worker_id =
  Mutex.lock st.pending_lock;
  let orphans =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock st.pending_lock)
      (fun () ->
        let os =
          Hashtbl.fold
            (fun _ p acc -> if p.assigned = worker_id then p :: acc else acc)
            st.pending []
        in
        List.iter (fun p -> Hashtbl.remove st.pending p.internal) os;
        os)
  in
  List.iter
    (fun p ->
      release_slot st worker_id;
      Fleet_metrics.in_flight_decr st.metrics worker_id;
      Fleet_metrics.incr_retry st.metrics worker_id;
      let rec go = function
        | [] ->
          Fleet_metrics.incr_shed_unavailable st.metrics;
          Server.send p.p_client
            (router_reject ~id:p.orig_id Protocol.Unavailable
               (Printf.sprintf "worker %s died and no replacement is reachable"
                  worker_id))
        | w :: rest ->
          if w = worker_id || not (Worker_client.is_up (link st w)) then
            go rest
          else if not (acquire_slot st w) then begin
            Fleet_metrics.incr_shed_overloaded st.metrics w;
            Server.send p.p_client
              (router_reject ~id:p.orig_id Protocol.Overloaded
                 (Printf.sprintf
                    "worker %s died; replacement %s window full (%d in flight)"
                    worker_id w st.cfg.window))
          end
          else if forward st p w then
            Fleet_metrics.incr_failover st.metrics worker_id
          else go rest
      in
      go (Hash_ring.successors st.ring p.key))
    orphans

(* --- the router process --- *)

let run ?ready ?metrics ~listen ~stop cfg =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Fleet_metrics.create ~ids:(List.map (fun w -> w.id) cfg.workers)
  in
  let ring =
    Hash_ring.create ~replicas:cfg.replicas (List.map (fun w -> w.id) cfg.workers)
  in
  (* state is knotted through a forward ref so the link callbacks
     (created with the links themselves) can reach it *)
  let st_ref = ref None in
  let with_st f = match !st_ref with Some st -> f st | None -> () in
  let links =
    List.mapi
      (fun i w ->
        ( w.id,
          Worker_client.create ~host:w.host ~port:w.port
            ~seed:(cfg.seed + (7919 * (i + 1)))
            ~on_response:(fun resp -> with_st (fun st -> on_response st resp))
            ~on_state:(fun ~up ->
              with_st (fun st ->
                  Fleet_metrics.set_up st.metrics w.id up;
                  if up then Fleet_metrics.incr_reconnect st.metrics w.id
                  else on_worker_down st w.id))
            () ))
      cfg.workers
  in
  let st =
    {
      cfg;
      ring;
      metrics;
      links;
      slots = List.map (fun w -> (w.id, Atomic.make 0)) cfg.workers;
      pending_lock = Mutex.create ();
      pending = Hashtbl.create 64;
      next_id = Atomic.make 0;
      stop;
    }
  in
  st_ref := Some st;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, c) -> Worker_client.stop c) links)
    (fun () ->
      Server.with_listener ?ready listen (fun listener ->
          Server.accept_loop ?idle_timeout_s:cfg.idle_timeout_s
            ?max_line:cfg.max_line listener
            ~stop:(fun () -> Atomic.get st.stop)
            ~drain:(fun () ->
              (* in-flight work finishes and flushes back to clients
                 before the links drop; 10 s bounds a hung worker *)
              let deadline = Msoc_util.Clock.now () +. 10.0 in
              while pending_count st > 0 && Msoc_util.Clock.now () < deadline do
                Thread.delay 0.02
              done)
            (client_reader st)))
