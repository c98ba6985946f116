(** ASCII Gantt rendering of TAM schedules.

    One row per wire, time flowing right, each placement drawn with a
    letter; makes wire-level packing decisions visible in terminal
    reports and the CLI's [--gantt] output. *)

val render : ?columns:int -> Schedule.t -> string
(** [render schedule] draws the schedule scaled to [columns] text
    columns (default 72). Wires are rows ("w00".."wNN"); each job is
    one repeated letter (a legend below maps letters to labels; jobs
    beyond 52 reuse letters). Empty schedules render as a note. *)
