(** Fixed-width partitioned TAM — the classic bus architecture the
    flexible-width rectangle packing improves on.

    The SOC's [width] wires are split once into a few buses of fixed
    width; every core is assigned to exactly one bus and the cores on
    a bus are tested strictly one after another at that bus's width.
    No fork-and-merge, no idle-wire reuse: the makespan is the longest
    bus. This is the architecture family of the early TAM literature
    and the natural baseline for the paper's §4 claim that flexible
    width "bridges the gap in TAM width requirements of digital and
    analog cores". *)

type t = {
  bus_widths : int array;  (** positive, sums to <= the SOC width *)
  bus_jobs : Job.t list array;  (** same length; serial order per bus *)
}

exception Infeasible of string

val makespan : t -> int
(** Longest bus: max over buses of Σ job time at the bus width. *)

val optimize : ?max_buses:int -> width:int -> Job.t list -> t
(** The best design over 1..[max_buses] buses (default 6, clamped to
    [width]): each design splits [width] evenly into its buses (bus 0
    takes the remainder, and is widened to the largest job minimum
    width when necessary), then assigns longest-first, each unit to the
    currently shortest bus that is wide enough. Jobs sharing an
    exclusion group are kept on one bus (they serialize anyway;
    splitting them across buses would idle both).
    @raise Infeasible when no bus count fits every job. *)
