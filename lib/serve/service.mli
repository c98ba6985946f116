(** Request dispatch: one envelope in, one envelope out.

    Each envelope is decoded into a {!Request.t}, looked up in the
    cache, run by {!Request.run} and encoded. A service owns the
    resident planning state the one-shot CLI cannot keep: a
    {!Msoc_util.Pool} of worker domains, a small LRU of prepared
    problem structures (so weight sweeps and repeated requests over one
    SOC share wrapper designs and the schedule memo cache via
    {!Msoc_testplan.Evaluate.reweight}; each packer has its own), and
    the two-level result {!Cache} keyed by canonical problem hashes
    ({!Msoc_testplan.Fingerprint.request_hex}, with the op's extras).

    {!handle} must be called from a single thread (the transport's
    dispatch thread): the evaluation caches are deliberately
    lock-free. The {!Metrics} value may be shared with transport
    threads — it is atomic throughout.

    Deadlines are cooperative: the budget is checked when the request
    reaches the dispatch thread and again after computing, so an
    expired request always gets a [deadline_exceeded] envelope and
    never a crash — but a long pack is not interrupted midway (its
    result still enters the cache for the retry). *)

type t

val create :
  ?cache:Cache.t -> ?metrics:Metrics.t -> ?worker:string -> ?jobs:int ->
  unit -> t
(** [jobs] (default 1) sizes the worker pool used for
    sharing-combination packing inside each request. Default cache:
    memory-only. [worker] (default absent) is stamped on every
    response envelope, so a fleet client can attribute answers to the
    process that produced them. *)

val metrics : t -> Metrics.t

val cache : t -> Cache.t

val jobs : t -> int

val handle : ?admitted_at:float -> t -> Protocol.request -> Protocol.response
(** [admitted_at] (default now) is when the transport admitted the
    request, read on {!Msoc_util.Clock.now} (monotonic, so a step of
    the system time moves no deadline) — deadlines count queueing
    time, as a client would. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] envelope has been handled or
    {!request_shutdown} was called. *)

val request_shutdown : t -> unit
(** What the [shutdown] op does; exposed for signal handlers and
    embedders. A daemon serving [t] ({!Server.serve}) sees it within
    one accept poll and drains. *)

val shutdown : t -> unit
(** Release the worker pool. The service must not be used after. *)
