(** Rectangle-packing TAM optimizer (flexible-width architecture).

    Implements the paper's scheduling substrate [6]: every job is a
    soft rectangle (it may run at any point of its Pareto staircase);
    the packer places rectangles on a strip of [width] TAM wires,
    minimizing the makespan subject to

    - at most [width] wires busy at any instant, with an explicit wire
      assignment (fork-and-merge, non-contiguous allowed);
    - jobs in the same exclusion group strictly serialized;
    - optionally, instantaneous power capped at [power_budget];
    - each job starting only after its {!Job.t.predecessors} finish.

    Heuristic: a portfolio of priority orders (group-aware longest
    first, largest area first, widest first), each reordered so that
    predecessors come first and packed greedily; the smallest makespan
    wins, ties to the earlier order ({!pack_with_orders}). Each job takes
    the staircase point with the earliest finish over its candidate
    starts (ties to fewer wires), on the free wires with the least idle
    slack in front of it. The candidate starts are the job's precedence
    floor and every wire, group, power and conflict-window end after
    it; one ascending sweep visits them in order and resolves all of
    the job's points at once from the wires' idle runs at each start.
    The sweep reads wire classes, not wires: the wires whose busy
    history is one shared array move as one class, with one cursor and
    a wire count, so a start costs one visit per distinct history.
    Gap-aware: idle wire intervals between placed jobs remain usable by
    later jobs.

    This module is one packing {e heuristic} plus the shared
    machinery; alternative priority heuristics plug in through
    {!pack_with_orders} and are registered in {!Packer_registry}. *)

exception Infeasible of string
(** Raised when a job's minimum width exceeds the TAM width, a job's
    power alone exceeds the budget, two jobs carry the same label, or
    precedences form a cycle / reference unknown labels. Over-wide
    jobs are never clipped: a job whose narrowest Pareto point needs
    more wires than the TAM has is always rejected (with the offending
    label in the message), on every entry point including the internal
    packs of {!anneal} and {!pack_optimized}. *)

(** Sorted, disjoint busy intervals [[start, finish)], one entry per
    maximal busy stretch, held as one flat int array
    [[|s0; f0; s1; f1; ...|]]. {!Intervals.add} merges touching
    neighbours on insert and returns a fresh array, leaving its
    argument untouched: the packer keeps the wires that share one busy
    history array as one wire class, and a placement that takes part of
    a class leaves the old array to the wires it does not take.
    Exposed for tests. *)
module Intervals : sig
  type t

  val empty : t

  val add : t -> start:int -> finish:int -> t
  (** Precondition (maintained by the packer, unchecked here): the new
      window overlaps no existing entry — it may touch one on either
      side, in which case the stretches coalesce. *)

  val free_during : t -> start:int -> finish:int -> bool

  val ends_after : t -> time:int -> int list
  (** Finish times [>= time] of the recorded stretches. *)

  val to_list : t -> (int * int) list
  (** The maximal busy stretches, sorted, pairwise disjoint and never
      touching. *)
end

val group_urgency : Job.t list -> Job.t -> int
(** Priority key used by the default heuristic: a job bound to an
    exclusion group inherits the group's total serial minimum time
    (the group packs like one long serial job), a free job its own
    minimum time. *)

val priority_orders : Job.t list -> Job.t list list
(** The default heuristic's priority rules — group-aware longest
    first, largest area first, widest first — as stable sorts of one
    array of the input's jobs, each job's keys computed once.
    Precedences are {e not} yet applied; {!pack_with_orders} does that
    per order. *)

val pack_with_orders :
  ?power_budget:int ->
  width:int ->
  orders:(Job.t list -> Job.t list list) ->
  Job.t list ->
  Schedule.t
(** Generic entry point behind every packer variant: validate the
    strip and the jobs, then pack each priority order [orders jobs]
    (predecessors moved ahead of their dependents, the order kept
    otherwise) on an empty strip and keep the
    first schedule with the strictly smallest makespan. Each order is
    packed against a bound, the makespan of the best complete order so
    far, and stops once its running makespan reaches it. The stop is
    exact: a running makespan never falls, and a tie keeps the earlier
    order, so a stopped order cannot win.
    [pack = pack_with_orders ~orders:priority_orders].
    @raise Infeasible as described above.
    @raise Invalid_argument if [width <= 0], [power_budget <= 0], or
    [orders] returns no order. *)

val pack : ?power_budget:int -> width:int -> Job.t list -> Schedule.t
(** [pack ~width jobs] returns a feasible schedule ({!Schedule.check}
    returns [[]]).
    @raise Infeasible as described above.
    @raise Invalid_argument if [width <= 0] or [power_budget <= 0]. *)

val pack_optimized :
  ?power_budget:int -> width:int -> Job.t list -> Schedule.t
(** {!pack} followed by critical-job reordering: up to 8 times, the
    job that finishes last is promoted to the front of the priority
    order and the strip is repacked; the best schedule wins. Never
    worse than {!pack}; typically buys a few percent on instances with
    one awkward rectangle. *)

val anneal :
  ?power_budget:int ->
  ?seed:int ->
  ?iterations:int ->
  width:int ->
  Job.t list ->
  Schedule.t
(** Simulated annealing over the packing order: starting from
    {!pack_optimized}'s result, randomly transpose job priorities and
    accept worse schedules with Metropolis probability under a
    geometric cooling schedule ([iterations] moves, default 150;
    deterministic for a given [seed], default 1). Returns the best
    schedule seen — never worse than {!pack_optimized}. Use for final
    sign-off schedules where seconds of CPU buy cycles of test time;
    the optimizers use the fast packer. Each proposal is one order
    packed from an empty strip, as {!pack_with_orders} packs it. *)

type totals = {
  full_rebuilds : int;
      (** order packs, each from an empty strip: every order
          {!pack_with_orders} packs, stopped or not, every
          {!pack_optimized} round and every {!anneal} proposal *)
  jobs_reused : int;
      (** always 0: every order is placed from an empty strip, so no
          placement is reused. Kept for readers of the totals that
          report a prefix-reuse ratio. *)
  jobs_placed : int;
      (** placements computed; an order stopped by its bound counts
          only the jobs it placed *)
}

val repack_totals : unit -> totals
(** Process-wide monotone totals across all packs (maintained
    atomically). Benches read the delta around an optimization to
    count the orders packed and the placements they made. *)

val lower_bound : ?power_budget:int -> width:int -> Job.t list -> int
(** Max of the classic bounds: total-area / width, the largest
    single-job minimum time, each exclusion group's serial time (the
    paper's analog [T_LB]) and, when a budget is given, total
    power-time / budget. The packer's makespan never beats this;
    tests assert it stays within a small factor of it.
    @raise Invalid_argument if [width <= 0] or [power_budget <= 0],
    with {!pack}'s messages. *)
