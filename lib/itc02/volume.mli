(** Test data volume and ATE memory analysis.

    The ITC'02 benchmark documentation reports per-core and total test
    data volumes; a test engineer uses them to size ATE vector memory
    and estimate feed bandwidth. These are pure functions of the flat
    SOC description. *)

val ate_depth_bits : Types.soc -> width:int -> int
(** Vector memory depth (bits per TAM wire) if the whole stimulus set
    streams over a [width]-wire TAM: ⌈stimulus bits / width⌉. *)

val report : Types.soc -> string
(** ASCII table of per-core volumes — bits per pattern in (scan cells
    + inputs + bidirs) and out, patterns, and stimuli + responses over
    all patterns — then the total and the largest core. *)
