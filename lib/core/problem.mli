(** The paper's Problem P_ms (§4).

    Given the digital cores' test data, the analog cores' testing time
    and core-level TAM widths, the SOC-level TAM width [W] and the
    cost weights (w_T, w_A), determine (i) the digital wrapper
    designs, (ii) the analog wrapper sharing groups, (iii) per-core
    TAM widths and the SOC test schedule, minimizing
    [C = w_T·C_T + w_A·C_A] without ever using more than [W] wires. *)

(** Charge every analog wrapper a converter self-test (Fig. 1's
    self-test mode) that must finish before the wrapper's core tests
    start. The paper leaves this cost to future work; including it
    makes sharing slightly more attractive (fewer wrappers to
    self-test). *)
type self_test_config = { hits_per_code : int }

type t = private {
  soc : Msoc_itc02.Types.soc;
  analog_cores : Msoc_analog.Spec.core list;
  tam_width : int;
  weight_time : float;  (** w_T *)
  weight_area : float;  (** w_A = 1 − w_T *)
  area_model : Msoc_analog.Area.model;
  policy : Msoc_analog.Spec.policy;
  self_test : self_test_config option;
}

val max_tam_width : int
(** 1024 wires, 16× the paper's widest W = 64. Every digital core's
    staircase sweeps widths up to W over buffers W wide, so a plan's
    time and memory grow with W (a plan of p93791s took 1.5 s at
    W = 4096 and 29 s at 16384 on a 2-core host); the bound keeps one
    request from holding a planner for that long. *)

val make :
  ?area_model:Msoc_analog.Area.model ->
  ?self_test:self_test_config ->
  soc:Msoc_itc02.Types.soc ->
  analog_cores:Msoc_analog.Spec.core list ->
  tam_width:int ->
  weight_time:float ->
  unit ->
  t
(** [weight_area] is [1 − weight_time]; the policy is
    {!Msoc_analog.Spec.default_policy}.
    @raise Invalid_argument unless [0 <= weight_time <= 1],
    [1 <= tam_width <= max_tam_width], the analog list is non-empty,
    and every analog core's width fits in [tam_width]. *)

val same_structure : t -> t -> bool
(** [same_structure a b] holds when [a] and [b] differ at most in
    their cost weights (w_T, w_A): same SOC, analog cores, TAM width,
    area model (physical equality — models carry closures), policy and
    self-test setting. Packed schedules depend only on the structure,
    so structurally equal problems can share one evaluation cache
    (see {!Evaluate.reweight}). *)

exception Combination_overflow of {
  analog_cores : int;
  combinations : int;  (** Bell(m); [max_int] when m > 24 *)
  limit : int;
}
(** Raised by {!combinations} / {!all_combinations} instead of
    materializing a set-partition lattice too large to hold: Bell(m)
    partitions exist before any dedup or filter can shrink the list,
    so past the limit enumeration is an OOM, not a slow run. *)

val overflow_message :
  analog_cores:int -> combinations:int -> limit:int -> string
(** Human-readable rendering of {!Combination_overflow}: names the
    combination count and suggests [--strategy bnb] /
    [--strategy anneal] (the {!Msoc_search} strategies that never
    materialize the lattice). Also installed as a
    [Printexc] printer. *)

val combinations : t -> Msoc_analog.Sharing.t list
(** The candidate sharing combinations the optimizers search: the
    paper's enumeration ({!Msoc_analog.Sharing.paper_combinations}),
    restricted to combinations that are compatibility-feasible under
    [policy] and whose area cost does not exceed no sharing (§3).
    Never empty: when no sharing is feasible (one analog core, or all
    groupings ruled out), the no-sharing combination is the single
    candidate. Partitions are enumerated lazily and deduplicated
    incrementally. The limit is [MSOC_MAX_COMBINATIONS] when set,
    else 200_000 (admits m = 10 analog cores, Bell(10) = 115_975;
    refuses m >= 11).
    @raise Combination_overflow when Bell(m) exceeds the limit.
    @raise Invalid_argument when [MSOC_MAX_COMBINATIONS] is read and is
    not a positive integer. *)

val all_combinations : ?limit:int -> t -> Msoc_analog.Sharing.t list
(** Same filters over every distinct partition (for the generalized /
    scaling experiments and the search strategies' reference optimum).
    [limit] replaces {!combinations}' limit.
    @raise Combination_overflow as {!combinations}. *)
