type 'a t = {
  capacity : int;
  queue : 'a Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity must be >= 1";
  {
    capacity;
    queue = Queue.create ();
    lock = Mutex.create ();
    not_empty = Condition.create ();
    closed = false;
  }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.queue >= t.capacity then false
      else begin
        Queue.add x t.queue;
        Condition.signal t.not_empty;
        true
      end)

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.queue && not t.closed do
        Condition.wait t.not_empty t.lock
      done;
      Queue.take_opt t.queue)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      (* wake every blocked consumer so each can observe the close:
         consumers drain and exit on None *)
      Condition.broadcast t.not_empty)

let is_closed t = with_lock t (fun () -> t.closed)
