(** Full evaluation of one sharing combination: build the job set,
    pack it on the TAM, and price the result (§4's cost function).

    [C_T] is the SOC makespan normalized (×100) to the makespan under
    full sharing — the most serialized, hence slowest, configuration —
    and [C_A] is Equation 1. Total cost is the weighted sum. *)

type prepared
(** The problem with the digital wrapper staircases designed, the
    full-sharing reference makespan computed, and a schedule memo
    cache — built once, reused across the dozens of combination
    evaluations. The cache maps the canonical sharing-combination key
    (the sorted group signature, {!Msoc_analog.Sharing.full_name}) to
    its packed schedule: schedules depend only on the groups and the
    problem structure, never on the cost weights, so optimizers and
    weight sweeps revisiting a combination only recompute the cheap
    weighted cost. *)

val prepare : ?packer:Msoc_tam.Packer_registry.packer -> Problem.t -> prepared
(** Runs [Design_wrapper] on every digital core and packs the
    full-sharing configuration to obtain the [C_T] normalization
    base (the reference schedule seeds the cache). [packer] (default
    {!Msoc_tam.Packer_registry.default}, i.e. [best_fit]) selects the
    packing heuristic used for every schedule of this [prepared]; the
    serial path and the pool path both pack through the certified
    {!Msoc_tam.Packer_registry.pack}. *)

val reweight : prepared -> Problem.t -> prepared
(** [reweight p problem] is [p] retargeted at [problem], sharing [p]'s
    wrapper designs, reference makespan and schedule cache — valid
    precisely because schedules do not depend on the weights.
    @raise Invalid_argument unless
    [Problem.same_structure (problem p) problem]. *)

type cache_stats = { hits : int; misses : int; entries : int }
(** [misses] counts schedules actually packed for this [prepared]
    (including the full-sharing reference packed by {!prepare});
    [hits] counts evaluations served from the cache. *)

val cache_stats : prepared -> cache_stats

val total_packs : unit -> int
(** Process-wide monotone count of TAM-optimizer runs
    ({!Msoc_tam.Packer_registry.pack} calls) issued by this module,
    across all [prepared] values and pool workers. Read the delta around a
    search to measure how much work the cache avoided. *)

val problem : prepared -> Problem.t

val reference_makespan : prepared -> int
(** Makespan with all analog cores on one wrapper. *)

val digital_jobs : prepared -> Msoc_tam.Job.t list

val jobs_for : prepared -> Msoc_analog.Sharing.t -> Msoc_tam.Job.t list
(** Digital jobs plus one job per analog test, tests of cores in the
    same sharing group bound to one exclusion group. *)

val jobs_for_problem :
  Problem.t -> Msoc_analog.Sharing.t -> Msoc_tam.Job.t list
(** Like {!jobs_for} but derived from the problem alone — no
    [prepared] (and hence no reference pack) needed. This is the job
    set an independent verifier ({!Msoc_check}) compares a schedule
    against. *)

type evaluation = {
  combination : Msoc_analog.Sharing.t;
  schedule : Msoc_tam.Schedule.t;
  makespan : int;
  c_t : float;
  c_a : float;
  cost : float;
}

val evaluate : prepared -> Msoc_analog.Sharing.t -> evaluation
(** Cached: packs at most once per distinct combination per
    [prepared]. A zero reference makespan (empty job set) prices
    [c_t] as 0 by convention rather than raising. *)

val evaluate_many :
  ?pool:Msoc_util.Pool.t ->
  prepared ->
  Msoc_analog.Sharing.t list ->
  evaluation list
(** [evaluate_many ?pool p cs] evaluates every combination, packing
    the cache-missing schedules on [pool]'s worker domains when one
    is given (serially otherwise). Results are in the order of [cs]
    and bit-identical to [List.map (evaluate p) cs]: packing is a
    pure function per combination and results are merged in input
    order, so parallelism cannot change any cost or tie-break. *)

val preliminary_cost : prepared -> Msoc_analog.Sharing.t -> float
(** Cost_Optimizer's line-4 estimate: [w_T·T̂_LB + w_A·C_A], using the
    analog lower bound normalized to the full-sharing analog time —
    available without running the TAM optimizer. *)
