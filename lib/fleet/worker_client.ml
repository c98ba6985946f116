module Protocol = Msoc_serve.Protocol
module Client = Msoc_serve.Client
module Backoff = Msoc_util.Backoff

(* One persistent TCP link to one worker, owned by a maintenance
   thread that connects (with jittered backoff while the worker is
   down), then reads response lines until the link dies or a line is
   no envelope, then loops.
   Senders share the link through [send_line] under [lock]; the
   maintenance thread is the only closer, and closing takes the same
   lock so a late write can never land on a reused descriptor. *)

type t = {
  connect : unit -> Client.t;
  on_response : Protocol.response -> unit;
  on_state : up:bool -> unit;  (* edge-triggered, outside [lock] *)
  lock : Mutex.t;
  mutable link : Client.t option;  (* under [lock] *)
  mutable running : bool;  (* under [lock] *)
  backoff : Backoff.t;  (* owned by the maintenance thread *)
  mutable thread : Thread.t option;
}

let is_up t =
  Mutex.lock t.lock;
  let up = t.link <> None in
  Mutex.unlock t.lock;
  up

let send_line t line =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> match t.link with None -> false | Some l -> Client.send_line l line)

(* Detach the link under the lock, close it outside: after the swap no
   sender can reach the descriptor, so the close races nothing. *)
let take_link t =
  Mutex.lock t.lock;
  let l = t.link in
  t.link <- None;
  Mutex.unlock t.lock;
  l

let still_running t =
  Mutex.lock t.lock;
  let r = t.running in
  Mutex.unlock t.lock;
  r

(* A line that is no envelope of this schema version (or garbage)
   ends the read like a dead link: its request cannot be told from
   the others in flight, so skipping the line would leave that client
   without an envelope for good. Dropping the link fires the down
   edge, and the router redispatches or answers everything the link
   had in flight. *)
let read_loop t l =
  let rec loop () =
    match Client.recv l with
    | Client.Response response ->
      t.on_response response;
      loop ()
    | Client.Malformed _ | Client.Closed | Client.Timed_out -> ()
  in
  loop ()

let maintain t () =
  while still_running t do
    match t.connect () with
    | exception Unix.Unix_error _ ->
      Backoff.sleep t.backoff ~stop:(fun () -> not (still_running t))
    | l ->
      if not (still_running t) then Client.close l
      else begin
        Backoff.reset t.backoff;
        Mutex.lock t.lock;
        t.link <- Some l;
        Mutex.unlock t.lock;
        t.on_state ~up:true;
        read_loop t l;
        Option.iter Client.close (take_link t);
        t.on_state ~up:false
      end
  done;
  Option.iter Client.close (take_link t)

let create ~host ~port ~seed ~on_response ~on_state () =
  let t =
    {
      (* resolves the host here, so a bad one fails [create] *)
      connect = Client.connect (`Tcp (host, port));
      on_response;
      on_state;
      lock = Mutex.create ();
      link = None;
      running = true;
      backoff = Backoff.create ~seed ();
      thread = None;
    }
  in
  t.thread <- Some (Thread.create (maintain t) ());
  t

let stop t =
  Mutex.lock t.lock;
  t.running <- false;
  let l = t.link in
  Mutex.unlock t.lock;
  (* Wake a blocked read; the maintenance thread owns the close. A
     racing worker-side EOF may have already closed the descriptor —
     EBADF et al. are the benign outcomes. *)
  Option.iter Client.shutdown l;
  match t.thread with
  | Some th ->
    Thread.join th;
    t.thread <- None
  | None -> ()
