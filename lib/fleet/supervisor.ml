module Protocol = Msoc_serve.Protocol
module Backoff = Msoc_util.Backoff

type spec = {
  id : string;
  argv : string array;  (* argv.(0) is the executable *)
  port : int;  (* health-ping endpoint (the worker's --tcp port) *)
}

type worker = {
  spec : spec;
  backoff : Backoff.t;
  mutable pid : int option;
  mutable up_since : float;
  mutable restart_at : float option;  (* scheduled respawn time *)
  mutable ping_failures : int;
  mutable last_ping : float;
}

type t = {
  lock : Mutex.t;  (* guards every [worker] field and [running] *)
  workers : worker list;
  ping_interval_s : float;
  ping_timeout_s : float;
  on_restart : (string -> unit) option;
  mutable running : bool;
  mutable thread : Thread.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* --- process management (always outside the lock) --- *)

let spawn w =
  match Unix.create_process w.spec.argv.(0) w.spec.argv Unix.stdin Unix.stdout Unix.stderr with
  | pid -> Some pid
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "[fleet] %s: spawn failed: %s\n%!" w.spec.id
      (Unix.error_message e);
    None

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false  (* already reaped *)

(* One health probe: connect (bounded), send a [stats] envelope, and
   accept any bytes back within the budget as a heartbeat. Each probe
   is its own short-lived connection so it can never wedge the
   supervisor on a worker's persistent-link state. *)
let ping ~timeout_s ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.set_nonblock fd;
        (match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> ()
        | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _)
          -> (
          match Unix.select [] [ fd ] [] timeout_s with
          | _, [ _ ], _ -> (
            match Unix.getsockopt_error fd with
            | None -> ()
            | Some _ -> raise Exit)
          | _ -> raise Exit));
        Unix.clear_nonblock fd;
        let line =
          Protocol.request_to_line (Protocol.request ~id:"hc" Protocol.Stats)
          ^ "\n"
        in
        let b = Bytes.of_string line in
        ignore (Unix.write fd b 0 (Bytes.length b));
        match Unix.select [ fd ] [] [] timeout_s with
        | [ _ ], _, _ -> Unix.read fd (Bytes.create 1) 0 1 > 0
        | _ -> false
      with Unix.Unix_error _ | Exit -> false)

(* --- the supervision loop --- *)

(* Consecutive failed health checks after which a worker is killed. *)
let max_ping_failures = 3

(* Each tick reads a consistent snapshot of intent under the lock,
   performs process I/O (waitpid, spawn, ping, kill) outside it, and
   writes results back under the lock — so [stop] never waits behind
   a slow ping. *)
let tick t =
  let now = Msoc_util.Clock.now () in
  let actions =
    locked t (fun () ->
        List.filter_map
          (fun w ->
            match (w.pid, w.restart_at) with
            | Some pid, _ -> Some (w, `Check pid)
            | None, Some at when now >= at -> Some (w, `Spawn)
            | None, _ -> None)
          t.workers)
  in
  List.iter
    (fun (w, action) ->
      match action with
      | `Spawn -> (
        match spawn w with
        | Some pid ->
          Printf.eprintf "[fleet] %s: restarted (pid %d)\n%!" w.spec.id pid;
          locked t (fun () ->
              w.pid <- Some pid;
              w.up_since <- now;
              w.restart_at <- None;
              w.ping_failures <- 0;
              w.last_ping <- now);
          (match t.on_restart with Some f -> f w.spec.id | None -> ())
        | None ->
          locked t (fun () ->
              w.restart_at <- Some (now +. (Backoff.next_delay_ms w.backoff /. 1000.0))))
      | `Check pid ->
        if not (alive pid) then begin
          let delay = Backoff.next_delay_ms w.backoff /. 1000.0 in
          Printf.eprintf "[fleet] %s: worker (pid %d) exited; respawn in %.0f ms\n%!"
            w.spec.id pid (delay *. 1000.0);
          locked t (fun () ->
              w.pid <- None;
              w.restart_at <- Some (now +. delay))
        end
        else begin
          (* a worker that has stayed up long enough earns a fresh
             backoff: the next crash restarts fast again *)
          if now -. w.up_since > 10.0 then Backoff.reset w.backoff;
          if now -. w.last_ping >= t.ping_interval_s then begin
            let ok = ping ~timeout_s:t.ping_timeout_s ~port:w.spec.port in
            locked t (fun () ->
                w.last_ping <- now;
                w.ping_failures <- (if ok then 0 else w.ping_failures + 1))
          end;
          if w.ping_failures >= max_ping_failures then begin
            Printf.eprintf
              "[fleet] %s: %d failed health checks; killing pid %d\n%!"
              w.spec.id w.ping_failures pid;
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            let delay = Backoff.next_delay_ms w.backoff /. 1000.0 in
            locked t (fun () ->
                w.pid <- None;
                w.ping_failures <- 0;
                w.restart_at <- Some (now +. delay))
          end
        end)
    actions

let loop t () =
  let still_running () = locked t (fun () -> t.running) in
  while still_running () do
    tick t;
    Thread.delay 0.1
  done

let create ?(ping_interval_s = 2.0) ?(ping_timeout_s = 1.0) ?on_restart ~seed
    specs =
  if specs = [] then invalid_arg "Supervisor.create: no workers";
  let now = Msoc_util.Clock.now () in
  let workers =
    List.mapi
      (fun i spec ->
        {
          spec;
          backoff = Backoff.create ~base_ms:50.0 ~seed:(seed + (104729 * (i + 1))) ();
          pid = None;
          up_since = now;
          restart_at = None;
          ping_failures = 0;
          last_ping = now;
        })
      specs
  in
  let t =
    {
      lock = Mutex.create ();
      workers;
      ping_interval_s;
      ping_timeout_s;
      on_restart;
      running = true;
      thread = None;
    }
  in
  (* first spawn happens here, synchronously, so the caller can start
     connecting as soon as create returns *)
  List.iter
    (fun w ->
      match spawn w with
      | Some pid ->
        w.pid <- Some pid;
        w.up_since <- Msoc_util.Clock.now ()
      | None -> w.restart_at <- Some (Msoc_util.Clock.now ()))
    workers;
  t.thread <- Some (Thread.create (loop t) ());
  t

let pids t =
  locked t (fun () ->
      List.filter_map (fun w -> Option.map (fun p -> (w.spec.id, p)) w.pid) t.workers)

let stop t =
  locked t (fun () -> t.running <- false);
  (match t.thread with
  | Some th ->
    Thread.join th;
    t.thread <- None
  | None -> ());
  (* graceful first: workers drain on SIGTERM like any serve daemon *)
  let live = pids t in
  List.iter
    (fun (_, pid) -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    live;
  let deadline = Msoc_util.Clock.now () +. 5.0 in
  let rec reap (id, pid) =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Msoc_util.Clock.now () < deadline then begin
        Thread.delay 0.05;
        reap (id, pid)
      end
      else begin
        Printf.eprintf "[fleet] %s: did not drain; killing pid %d\n%!" id pid;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      end
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  List.iter reap live;
  locked t (fun () -> List.iter (fun w -> w.pid <- None) t.workers)
