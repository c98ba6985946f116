(** Thread-safe bounded FIFO queue — the admission valve between a
    server's connection readers and its single dispatch thread.

    The producer never blocks: {!try_push} either admits the element
    or reports the queue full, so a transport can shed load with a
    structured rejection instead of queueing unboundedly.

    The consumer blocks in {!pop} until an element arrives or the
    queue is closed and drained, which is exactly a graceful shutdown:
    close, keep popping, exit on [None].

    Close semantics (load-bearing, stress-tested): {!close} wakes
    every blocked consumer. A {!try_push} that returned [true] — before or
    during the close — left its element in the queue, where the
    post-close drain will observe it; one that returned [false]
    left nothing. So elements are never lost (accepted implies popped)
    and never fabricated (rejected implies absent). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val try_push : 'a t -> 'a -> bool
(** Admit the element; [false] when the queue holds [capacity]
    elements (backpressure) or has been {!close}d. Never blocks. *)

val pop : 'a t -> 'a option
(** Next element in FIFO order, blocking while the queue is empty and
    open. [None] once the queue is closed and every queued element has
    been popped. *)

val close : 'a t -> unit
(** Reject all further pushes; queued elements remain poppable.
    Wakes every blocked consumer. Idempotent. *)

val is_closed : 'a t -> bool
