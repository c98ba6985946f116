(** Human-readable reporting of planning results. *)

val summary : Plan.t -> string
(** Multi-line summary: instance, TAM width, weights, chosen sharing
    combination, cost breakdown, makespan, evaluations performed. *)

val schedule_table : Plan.t -> string
(** ASCII table of the winning schedule: start/finish/width per test,
    digital and analog. *)

val wrapper_table : Plan.t -> string
(** Analog wrapper architecture: one row per wrapper with its member
    cores, requirement (bits, max fs, width) and serial usage. *)

val console : Plan.t -> string
(** [summary] + [wrapper_table] + [schedule_table], newline-separated
    — the full console report. The caller prints it; library code
    never writes to stdout (MSOC-S303). *)
