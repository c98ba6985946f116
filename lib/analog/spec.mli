(** Analog cores and their specification-based tests.

    Mirrors the paper's Table 2: each analog core carries a list of
    tests, each defined by its signal band, sampling frequency, test
    length (in SOC TAM clock cycles — the time the virtual digital
    core occupies the TAM) and required TAM width. In addition each
    test records the data-converter resolution it needs, which drives
    the shared-wrapper sizing rule and the compatibility constraint
    of §3. *)

type test = {
  name : string;
  f_low_hz : float;  (** lower band edge; 0. for DC *)
  f_high_hz : float;
  f_sample_hz : float;  (** converter sampling frequency *)
  cycles : int;  (** test time in TAM clock cycles *)
  tam_width : int;  (** TAM wires the test needs *)
  resolution_bits : int;  (** converter resolution the test needs *)
}

type core = {
  label : string;  (** short id: "A".."E" in the paper *)
  name : string;
  tests : test list;  (** non-empty *)
}

val test :
  name:string ->
  f_low_hz:float ->
  f_high_hz:float ->
  f_sample_hz:float ->
  cycles:int ->
  tam_width:int ->
  resolution_bits:int ->
  test
(** Validates 0 <= f_low <= f_high <= f_sample (single-tone tests may
    undersample, hence no Nyquist check), positive cycles/width and
    4..16-bit resolution. @raise Invalid_argument. *)

val core : label:string -> name:string -> tests:test list -> core
(** @raise Invalid_argument on an empty test list. *)

val core_time : core -> int
(** Serial test time of the core: Σ cycles over its tests (tests of
    one core run one after another through its wrapper). *)

val core_width : core -> int
(** Max TAM width over the core's tests. *)

(** Aggregated wrapper requirement — what the core demands of the
    ADC/DAC pair, encoder and decoder of its (possibly shared)
    wrapper. *)
type requirement = {
  bits : int;  (** max resolution over tests *)
  f_sample_max_hz : float;
  width : int;  (** max TAM width over tests *)
}

val requirement : core -> requirement

val merge_requirements : requirement -> requirement -> requirement
(** Pointwise max — the sizing rule for a shared wrapper (§3). *)

(** Feasibility limits for pairing cores on one wrapper: a core
    demanding [>= fast_hz] sampling may not share with a core
    demanding [>= high_res_bits] resolution (§3: "a module that
    requires high-speed and low-resolution data converters cannot
    share its wrapper with a module that requires high-resolution and
    low-speed data converters"). *)
type policy = { fast_hz : float; high_res_bits : int }

val default_policy : policy
(** 26 MHz / 12 bits — chosen so the paper's five cores are pairwise
    compatible, as Table 1 (which enumerates all combinations)
    implies. *)

val compatible : ?policy:policy -> core -> core -> bool

val same_tests : core -> core -> bool
(** True when the cores have identical test lists (labels aside) —
    cores A and B in the paper. Used to deduplicate equivalent sharing
    combinations. *)
