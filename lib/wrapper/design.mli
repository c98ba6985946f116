(** Digital test wrapper design — the [Design_wrapper] algorithm of
    Iyengar, Chakrabarty & Marinissen (JETTA'02), used by the paper to
    wrap every digital core before TAM optimization.

    Given a core and a TAM width budget [w], the algorithm builds at
    most [w] wrapper chains: internal scan chains are partitioned over
    the wrapper chains with best-fit-decreasing, then functional input
    (resp. output) cells are levelled onto the chains to minimize the
    scan-in (resp. scan-out) depth; bidirectional cells count on both
    sides. The resulting test application time for [p] patterns is

    {v T(w) = (1 + max(si, so)) * p + min(si, so) v}

    One kernel does the work: {!design} runs it once and builds the
    chain records; {!Pareto.staircase} runs it width by width over the
    same buffers. *)

type chain = {
  scan : int list;  (** scan-chain lengths placed on this wrapper chain, longest first *)
  input_cells : int;
  output_cells : int;
  bidir_cells : int;
}

type t = {
  core : Msoc_itc02.Types.core;
  width : int;  (** requested TAM width budget *)
  used_width : int;  (** non-empty wrapper chains actually built, <= width *)
  chains : chain array;
  scan_in : int;  (** si: deepest scan-in path over all chains *)
  scan_out : int;  (** so *)
}

val design : Msoc_itc02.Types.core -> width:int -> t
(** The whole design {!run} computes at [width]: each wrapper chain's
    scan chains, longest first, and its input, output and bidir cells.
    Its test time is [run]'s.
    @raise Invalid_argument if [width <= 0] or a scan-chain length is
    negative. *)

(** {1 The kernel} *)

type kernel
(** One core's scan chains, sorted longest first, and int buffers for
    designs up to [max_width] wide: per wrapper chain its scan load,
    scan-chain count and input, output and bidir cells, and per scan
    chain the wrapper chain holding it. The per-wrapper-chain buffers
    start a quarter past the width where {!lower_bound} stops falling
    (ceil of the larger cell total over max 1 L, capped at
    [max_width]), which a staircase rarely passes, and {!run} doubles
    them when asked for a wider design. A kernel holds one design at a
    time; share it across domains only with external locking. *)

val kernel : Msoc_itc02.Types.core -> max_width:int -> kernel
(** Sorts the scan chains and allocates the buffers, once per core.
    @raise Invalid_argument if [max_width <= 0], or a scan-chain length,
    terminal count or pattern count is negative. *)

val run : kernel -> width:int -> int
(** [run k ~width] designs the core at [width] into [k]'s buffers,
    replacing the previous design, and returns its test time: the
    best-fit-decreasing partition into the first [width] slots, then
    the three levellings. O(c·width + width·d) for [c] scan chains,
    where each levelling's descent takes [d] passes (at most [width] + 1;
    at most four on the ITC'02 SOCs); allocates only when [width] is
    wider than the kernel's buffers, which then double (to at least
    [width], at most [max_width]).
    @raise Invalid_argument unless [1 <= width <= max_width]. *)

val used_width : kernel -> int
(** Non-empty wrapper chains of the last {!run}, at least 1. *)

val floor_time : kernel -> int
(** [(1 + L) * p + L] for the longest scan chain [L] (0 without scan
    chains): no design at any width is faster. The wrapper chain that
    holds the longest scan chain is at least [L] deep, so si >= L and
    so >= L. *)

val lower_bound : kernel -> width:int -> int
(** [lower_bound k ~width] is [T(max(L, ⌈(S+I+B)/width⌉),
    max(L, ⌈(S+O+B)/width⌉))] for [S] scan cells, [I] inputs, [O]
    outputs, [B] bidirs and the longest scan chain [L]: no design at
    [width] is faster than it. The [width] chains hold all S+I+B
    scan-in cells, so the deepest holds at least their average, and
    si >= L as for {!floor_time}; likewise so. T is monotone in both.
    O(1); [width] may exceed the kernel's [max_width].
    @raise Invalid_argument if [width <= 0]. *)
