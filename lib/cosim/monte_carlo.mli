(** Monte-Carlo sweeps of a co-simulated specification test.

    Runs one {!Testbench.program} across many
    simulated dies ({!Testbench.run_program}) — converter resolution,
    mismatch, noise and DUT process variation drawn per trial by the
    shared {!Msoc_mixedsig.Variation} sampler — and summarizes pass
    yield (Wilson interval) plus the measured value's distribution.
    Every domain that runs trials owns one {!Testbench.workspace} and
    runs its trials through it ({!Testbench.run_trial}): the serial
    loop one workspace, a {!Msoc_util.Pool} one per contiguous chunk
    of trials (at most [Pool.jobs] chunks), all sharing the immutable
    program. Because each trial's draw is a pure function of
    [(seed, index)], a trial's outputs do not depend on what ran
    through its workspace before, and {!Msoc_util.Pool.map} joins the
    chunks back in index order, a sweep is bit-identical at any job
    count. *)

type trial = {
  index : int;  (** 1-based trial number *)
  variation : Msoc_mixedsig.Variation.t;
  measured : float;
  direct : float;
  error_pct : float;
  pass : bool;
}

type summary = {
  spec : Testbench.spec;
  seed : int;
  trials : int;
  passes : int;
  yield_frac : float;
  ci_low : float;  (** 95 % Wilson interval, via {!Msoc_mixedsig.Yield} *)
  ci_high : float;
  measured_mean : float;
  measured_stddev : float;
  measured_min : float;
  measured_max : float;
  error_pct_mean : float;
  error_pct_max : float;
  elapsed_s : float;
      (** the trials' time on the monotonic clock ({!Msoc_util.Clock}) —
          excluded from determinism claims *)
  trials_per_s : float;
}

val max_trials : int
(** [100_000]: the largest sweep a request may ask for. {!run} rejects
    a larger one before it builds anything; the serve range table and
    the CLI's [--trials] read it too. *)

val run :
  ?ranges:Msoc_mixedsig.Variation.ranges ->
  ?config:Testbench.config ->
  ?tolerance_pct:float ->
  ?pool:Msoc_util.Pool.t ->
  trials:int ->
  seed:int ->
  Testbench.spec ->
  trial list * summary
(** Trials 1..[trials] in order: {!run_program} over the spec's
    program for [config] (default {!Testbench.default}), which supplies
    everything the per-trial variation does not override. The program
    is built once for the run, after the [trials] check.
    @raise Invalid_argument if [trials] is outside [1 .. max_trials],
    or as {!Testbench.program}. *)

val run_program :
  ?ranges:Msoc_mixedsig.Variation.ranges ->
  ?pool:Msoc_util.Pool.t ->
  trials:int ->
  seed:int ->
  Testbench.program ->
  trial list * summary
(** The sweep over a program already built, so one program serves a
    nominal test ({!Testbench.run_program}) and its sweep. [elapsed_s]
    times the trials and their workspaces, not the program's build.
    After its workspace's first trial, a trial allocates no array: its
    records, FFT buffers and converter codes are the workspace's.
    @raise Invalid_argument if [trials] is outside [1 .. max_trials]. *)

val summary_json : summary -> Msoc_testplan.Export.json
(** Deterministic fields only — the wall-clock rates are reported
    under a separate ["timing"] key so cached and recomputed results
    compare equal elsewhere. *)

val trials_json : trial list -> Msoc_testplan.Export.json
