(** Core and SOC descriptions in the style of the ITC'02 SOC Test
    Benchmarks (Marinissen, Iyengar, Chakrabarty).

    Each embedded digital core is characterized by the data the
    wrapper/TAM co-optimization needs: functional terminal counts, the
    internal scan-chain lengths, and the number of test patterns. This
    is the flat, single-level subset of the ITC'02 format — the level
    actually consumed by the wrapper-design and rectangle-packing
    algorithms of the paper. *)

type core = {
  id : int;  (** unique within the SOC, >= 1 *)
  name : string;
  inputs : int;  (** functional input terminals *)
  outputs : int;  (** functional output terminals *)
  bidirs : int;  (** bidirectional terminals *)
  scan_chains : int list;  (** internal scan-chain lengths, possibly [] *)
  patterns : int;  (** externally applied test patterns *)
}

type soc = { name : string; cores : core list }

val core :
  id:int ->
  name:string ->
  inputs:int ->
  outputs:int ->
  bidirs:int ->
  scan_chains:int list ->
  patterns:int ->
  core
(** Smart constructor; validates that all counts are non-negative,
    [patterns >= 1], scan-chain lengths are positive and [id >= 1].
    @raise Invalid_argument otherwise. *)

val soc : name:string -> cores:core list -> soc
(** Validates that core ids are distinct. @raise Invalid_argument. *)

val scan_cells : core -> int
(** Total internal scan flip-flops. *)

val test_data_volume : core -> int
(** Scan-in plus scan-out data volume in bits:
    [patterns * (scan_cells + inputs + bidirs) +
     patterns * (scan_cells + outputs + bidirs)]. *)

val pp_soc : Format.formatter -> soc -> unit
(** One-line-per-core summary. *)
