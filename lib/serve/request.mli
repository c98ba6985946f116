(** The one typed planning request: the paper's Problem P_ms (an SOC,
    analog cores, a TAM width W, the weight w_T) plus one op's knobs.
    The serve ops decode it with {!of_params}; the CLI builds it from
    options checked against the same {!range} table; [replay --verify]
    decodes what it sent and reruns it. One run per op computes the
    typed result, so a CLI run and the equivalent envelope cannot
    diverge: callers only render. *)

module Plan = Msoc_testplan.Plan
module Registry = Msoc_tam.Packer_registry
module Testbench = Msoc_cosim.Testbench

(** {1 The range table} *)

type 'a range = {
  expected : string;  (** what is accepted, e.g. ["a positive integer"] *)
  ok : 'a -> bool;
}
(** A value's valid range. The envelope decoder rejects a value out of
    range as [param "p": invalid value v, expected <expected>], the
    CLI's converters as [option '--p': invalid value 'v', expected
    <expected>] (a usage error, exit 124). Each param and option takes
    the entry named after it; counts and [max_evals] take
    {!positive_int}, [budget_ms] and the other rates {!positive_float}. *)

val positive_int : int range
val positive_float : float range

val width : int range
(** A TAM width, [width] and each [widths] entry: 1 to
    {!Msoc_testplan.Problem.max_tam_width}. *)

val trials : int range
(** 0 (no sweep) to {!Msoc_cosim.Monte_carlo.max_trials}. *)

val delta : float range
val weight : float range
val bits : int range
val analog_scale : int range

val samples : Testbench.spec list -> int range
(** At least {!Testbench.min_samples} of every spec and at most
    {!Testbench.max_samples}. *)

val one_of : string list -> 'a range
(** A name from a closed list; the lookup itself decides. *)

val searches : string list
(** ["heuristic"; "exhaustive"]. *)

(** {1 Requests} *)

type setting = {
  soc : Msoc_itc02.Types.soc;
  analog_cores : Msoc_analog.Spec.core list;
  width : int;
  weight_time : float;
  search : Plan.search;  (** [optimize] and [cosim]: [Heuristic] *)
  packer : Registry.packer;  (** {!Registry.default} unless named *)
}

type strategy = {
  kind : Msoc_search.Strategy.kind;
  max_evals : int option;
  budget_ms : float option;
}

type sweep = Widths of int list | Weights of float list
(** A width sweep keeps the setting's w_T, a weight sweep its W. *)

type cosim = {
  specs : Testbench.spec list;  (** one from an envelope; [--spec all] names all *)
  config : Testbench.config;
  trials : int;  (** 0 = one nominal run, no Monte-Carlo *)
  seed : int;
  tolerance_pct : float option;
  calibrate : bool;  (** re-plan the setting over co-sim-measured times *)
  system_clock_hz : float;
}

type t =
  | Plan of setting
  | Optimize of setting * strategy option
      (** [None] is the paper's Cost_Optimizer over its candidates *)
  | Explore of setting * sweep
  | Cosim of setting * cosim

val of_params : Protocol.op -> Msoc_testplan.Export.json -> t
(** Decode an envelope's params ({!Protocol} lists them), checking
    every value against the range table; absent ones take the CLI's
    defaults. @raise Invalid_argument naming a bad param (and for
    [stats]).
    @raise Msoc_itc02.Soc_file.Parse_error for a bad [soc_text] or
    [soc_path] file, [Sys_error] for an unreadable one. *)

val load_soc : string option -> Msoc_itc02.Types.soc
(** A [.soc] file, or the built-in p93791s. *)

val analog_cores : string -> Msoc_analog.Spec.core list option
(** Comma-separated catalog labels, at least one. *)

val search : delta:float -> string -> Plan.search option
(** A {!searches} name; [heuristic] is the Cost_Optimizer pruning at [delta]. *)

val strategy : delta:float -> seed:int -> string -> Msoc_search.Strategy.kind option
(** A {!Msoc_search.Strategy.names} name; portfolio members get seeds
    [seed], [seed + 1], [seed + 2]. *)

val config : ?ideal:bool -> bits:int -> samples:int -> unit -> Testbench.config
(** The co-sim testbench at [bits] and [samples]; [ideal] converters
    (CLI only) drop mismatch and noise. *)

val problem : setting -> Msoc_testplan.Problem.t
(** @raise Invalid_argument when an analog core needs more wires than
    the width. *)

(** {1 Runs} *)

type prepare = Registry.packer -> Msoc_testplan.Problem.t -> Msoc_testplan.Evaluate.prepared
(** A fresh {!Msoc_testplan.Evaluate.prepare} by default; the service's resident LRU. *)

val plan : ?prepare:prepare -> ?pool:Msoc_util.Pool.t -> setting -> Plan.t

type optimized =
  | Pruned of {
      plan : Plan.t;
      result : Msoc_testplan.Cost_optimizer.result;
      memo_hits : int;  (** schedule-cache hits and misses of the search *)
      memo_misses : int;
    }
  | Searched of { plan : Plan.t; outcome : Msoc_search.Strategy.outcome }

val optimize :
  ?prepare:prepare -> ?pool:Msoc_util.Pool.t -> ?deadline:float -> setting ->
  strategy option -> optimized
(** [deadline] (absolute, {!Msoc_util.Clock.now}) joins a strategy's
    budget. *)

val explore : ?pool:Msoc_util.Pool.t -> setting -> sweep -> (string * Plan.t) list
(** Points labelled ["W=16"] or ["w_T=0.50"]; points that cannot be
    planned are skipped. @raise Invalid_argument when none can. *)

type cosimulated = {
  results : Testbench.result list;  (** one per spec *)
  sweeps : (Msoc_cosim.Monte_carlo.trial list * Msoc_cosim.Monte_carlo.summary) list;
      (** one per spec when [trials > 0] *)
  calibration : (Msoc_cosim.Calibrate.measured list list * Plan.t) option;
}

val cosim : ?prepare:prepare -> ?pool:Msoc_util.Pool.t -> setting -> cosim -> cosimulated

type result =
  | Planned of Plan.t
  | Optimized of optimized
  | Explored of (string * Plan.t) list
  | Cosimulated of cosimulated

val run : ?prepare:prepare -> ?pool:Msoc_util.Pool.t -> ?deadline:float -> t -> result
(** The op's run. A non-default packer's plan is re-verified through
    [Msoc_check]; a finding is a bug:
    @raise Msoc_search.Strategy.Verification_failed *)

val result_json : result -> Msoc_testplan.Export.json
(** The serve op's [result]. *)

val error_message : exn -> string option
(** The message of a request the planner rejects — a bad value or an
    infeasible problem ([Invalid_argument]), a [.soc] parse error, a
    width the packer cannot fit, a sharing space past the enumeration
    limit, [Failure], [Sys_error] — and [None] for anything else. The
    service answers [Some] with [bad_request], the CLI with one error
    line and exit 124. *)
