module Protocol = Msoc_serve.Protocol
module Server = Msoc_serve.Server
module Backoff = Msoc_util.Backoff

(* One persistent TCP link to one worker, owned by a maintenance
   thread that connects (with jittered backoff while the worker is
   down), then reads response lines until the link dies, then loops.
   Senders share the link through [send_line] under [lock]; the
   maintenance thread is the only closer, and closing takes the same
   lock so a late write can never land on a reused descriptor. *)

type link = { fd : Unix.file_descr; oc : out_channel; ic : in_channel }

type t = {
  id : string;
  connect : unit -> Unix.file_descr;
  on_response : Protocol.response -> unit;
  on_state : up:bool -> unit;  (* edge-triggered, outside [lock] *)
  lock : Mutex.t;
  mutable link : link option;  (* under [lock] *)
  mutable running : bool;  (* under [lock] *)
  backoff : Backoff.t;  (* owned by the maintenance thread *)
  mutable thread : Thread.t option;
}

let id t = t.id

let is_up t =
  Mutex.lock t.lock;
  let up = t.link <> None in
  Mutex.unlock t.lock;
  up

let send_line t line =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.link with
      | None -> false
      | Some l -> (
        try
          output_string l.oc line;
          output_char l.oc '\n';
          flush l.oc;
          true
        with Sys_error _ -> false))

(* Detach the link under the lock, close it outside: after the swap no
   sender can reach the descriptor, so the close races nothing. *)
let take_link t =
  Mutex.lock t.lock;
  let l = t.link in
  t.link <- None;
  Mutex.unlock t.lock;
  l

let close_link l =
  try Unix.close l.fd with Unix.Unix_error _ -> ()

let still_running t =
  Mutex.lock t.lock;
  let r = t.running in
  Mutex.unlock t.lock;
  r

let connect_once t =
  match t.connect () with
  | fd -> Some { fd; oc = Unix.out_channel_of_descr fd; ic = Unix.in_channel_of_descr fd }
  | exception Unix.Unix_error _ -> None

let read_loop t l =
  let rec loop () =
    match input_line l.ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
      (match Protocol.response_of_line line with
      | Ok response -> t.on_response response
      | Error _ ->
        (* a worker speaking another schema version (or garbage) —
           drop the link and let the reconnect path retry *)
        ());
      loop ()
  in
  loop ()

let maintain t () =
  while still_running t do
    match connect_once t with
    | None -> Backoff.sleep t.backoff ~stop:(fun () -> not (still_running t))
    | Some l ->
      if not (still_running t) then close_link l
      else begin
        Backoff.reset t.backoff;
        Mutex.lock t.lock;
        t.link <- Some l;
        Mutex.unlock t.lock;
        t.on_state ~up:true;
        read_loop t l;
        (match take_link t with Some l -> close_link l | None -> ());
        t.on_state ~up:false
      end
  done;
  match take_link t with Some l -> close_link l | None -> ()

let create ~id ~host ~port ~seed ~on_response ~on_state () =
  let t =
    {
      id;
      (* resolves the host here, so a bad one fails [create] *)
      connect = Server.connect (`Tcp (host, port));
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
  (* Wake a blocked read with a half-close; the maintenance thread
     owns the full close. A racing worker-side EOF may have already
     closed the descriptor — EBADF et al. are the benign outcomes. *)
  (match l with
  | Some l -> ( try Unix.shutdown l.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ());
  match t.thread with
  | Some th ->
    Thread.join th;
    t.thread <- None
  | None -> ()
