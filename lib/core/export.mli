(** Machine-readable export of planning results.

    Emits a small, dependency-free JSON rendering of a plan — the
    sharing decision, cost breakdown and the full schedule — so that
    downstream flows (floorplanning, ATE program generation, report
    pipelines) can consume the planner's output without linking
    against it. *)

(** Minimal JSON document model (strings are escaped on printing). *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Object of (string * json) list

val to_string : json -> string
(** Compact single-line rendering. An int prints as its decimal
    digits; an integer-valued float below 1e15 in magnitude as its
    digits and [".0"] ([-0.0] keeps its sign); any other float as
    [%.12g] (NaN and the infinities print as C's printf writes them,
    such as [nan] or [-inf], which is not JSON). In a string or key, ['"'], ['\\'], newline,
    return and tab print as their two-byte escapes, other bytes below
    0x20 as [\u00xx], and every other byte as itself. These bytes are
    fixed: cache keys are their MD5. *)

val pretty : json -> string
(** Two-space-indented rendering with a trailing newline. *)

val max_depth : int
(** 512: the most arrays and objects {!parse} accepts one inside the
    other. What the program prints nests far less (a serve envelope
    around a plan's schedule is about 6 deep). The parser recurses once
    per level, and serve's 1 MiB line holds a million ['['], so the cap
    is what bounds its stack and time on hostile input. *)

val parse : string -> (json, string) result
(** Parse one JSON value (the whole input, surrounding whitespace
    allowed). Numbers without a fraction or exponent that fit in an
    OCaml [int] parse as [Int], everything else as [Float]; a number
    whose value is past the float range is an [Error]; [\uXXXX]
    escapes decode to UTF-8 bytes; an array or object nested past
    {!max_depth} is an [Error] ["offset N: nesting deeper than 512
    levels"] at its opening bracket. [Error] carries a
    ["offset N: message"] description. Inverse of {!to_string} /
    {!pretty} for every value whose floats are finite and print
    exactly in 12 significant digits and that nests at most
    {!max_depth} deep, so protocol envelopes round-trip. *)

val parse_exn : string -> json
(** @raise Failure with the {!parse} error description. *)

val member : string -> json -> json option
(** [member key (Object _)] looks the field up; [None] on any other
    constructor. *)

val schedule_json : Msoc_tam.Schedule.t -> json
(** Placements with start/finish/width/wires/exclusion group. *)

val plan_json : Plan.t -> json
(** Instance parameters, chosen sharing groups, C_T/C_A/cost,
    makespan, evaluation counts and the schedule. *)

val plan_to_string : ?pretty:bool -> Plan.t -> string
(** [plan_json] rendered (compact by default). *)
