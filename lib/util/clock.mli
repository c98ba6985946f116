(** A monotonic clock, for intervals and deadlines.

    [Unix.gettimeofday] follows the wall clock, so a step of the system
    time (NTP, a manual set) moves it, and a latency or deadline taken
    across the step is wrong. This clock never steps: it counts from
    an arbitrary fixed origin (boot), so only differences between two
    readings mean anything. *)

val now : unit -> float
(** Seconds since the clock's origin, nanosecond resolution. *)
