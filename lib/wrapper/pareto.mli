(** Pareto-optimal (width, test time) points — the "staircase".

    Digital test time decreases step-wise with TAM width ([13]'s
    staircase variation): many widths yield the same wrapper design, so
    only the widths at which the time strictly drops matter to the TAM
    optimizer. Analog cores, in contrast, are a single fixed point
    (their time does not scale with wires) — represented here as a
    one-point staircase. *)

type point = { width : int; time : int }

type t
(** Non-empty; widths strictly increasing, times strictly decreasing. *)

val staircase : Msoc_itc02.Types.core -> max_width:int -> t
(** [staircase core ~max_width] runs one {!Design.kernel} at widths
    1, 2, ... and keeps the Pareto frontier of (wires used, test time).
    Guaranteed monotone even if the underlying heuristic is not: each
    width is credited with the best design found at any width <= it.
    The sweep stops at [max_width] or at the first width whose best
    time reaches {!Design.floor_time}, since no design at any width is
    faster, and it does not design a width whose {!Design.lower_bound}
    already reaches the best time so far; the frontier is the one
    designing every width 1..[max_width] would give.
    @raise Invalid_argument as {!Design.kernel}. *)

val fixed : width:int -> time:int -> t
(** One-point staircase for an analog (virtual digital) core.
    @raise Invalid_argument unless both are positive. *)

val points : t -> point list

val time_at : t -> width:int -> int
(** Test time using at most [width] wires.
    @raise Invalid_argument if [width] is below the minimum width. *)

val min_width : t -> int

val min_time : t -> int
(** Time at the widest point. *)
