(** SOC-level interconnect (EXTEST) tests between wrapped cores.

    With every core 1500-wrapped, the glue logic and wiring *between*
    cores is tested in EXTEST mode: patterns are launched from the
    source core's output boundary cells and captured in the sink
    core's input cells. Such a test occupies both wrappers at once, so
    it may not overlap either core's own internal test — expressed
    with {!Msoc_tam.Job.t}'s conflict labels and scheduled by the same
    rectangle packer as everything else. *)

type link = {
  from_core : string;  (** source core name (its outputs drive the link) *)
  to_core : string;  (** sink core name (its inputs capture) *)
  patterns : int;
}

val link : from_core:string -> to_core:string -> patterns:int -> link
(** @raise Invalid_argument on non-positive patterns or a self-link. *)

val jobs :
  Msoc_itc02.Types.soc -> max_width:int -> link list -> Msoc_tam.Job.t list
(** One job per link. @raise Invalid_argument on duplicate links. *)
