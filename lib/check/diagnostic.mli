(** Structured diagnostics: the reporting substrate of {!Msoc_check}.

    Every finding of every analysis pass is a {!t}: a stable error
    code (see {!Codes}), a severity, an optional source location and a
    human-readable message. Diagnostics render as one-line text
    ([file:line: severity [CODE] message], the format editors and CI
    annotators parse) or as JSON for machine consumers.

    The exit-code contract of [msoc_plan check] and [--verify] comes
    from {!exit_code}: 0 when no error-severity finding exists,
    1 otherwise — warnings never fail a run. *)

type severity = Info | Warning | Error

type location = { file : string option; line : int option }

type t = {
  code : string;  (** stable identifier, e.g. ["MSOC-E101"] *)
  severity : severity;
  location : location;
  message : string;
}

val make :
  ?file:string -> ?line:int -> code:string -> severity:severity -> string -> t

val makef :
  ?file:string ->
  ?line:int ->
  code:string ->
  severity:severity ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [makef ~code ~severity fmt ...] formats the message. *)

val severity_label : severity -> string
(** ["info"], ["warning"] or ["error"]. *)

val errors : t list -> t list

val has_errors : t list -> bool

val exit_code : t list -> int
(** 0 when {!has_errors} is false, 1 otherwise. *)

val sort : t list -> t list
(** Errors first, then by location (file, line) and code; stable. *)

val to_string : t -> string
(** One line, no trailing newline:
    ["data/x.soc:12: error [MSOC-E301] duplicate core id 3"]. *)

val render_text : t list -> string
(** {!to_string} per diagnostic, newline-terminated; [""] when empty. *)

val summary : t list -> string
(** E.g. ["2 errors, 1 warning"]; ["no findings"] when clean. *)

val report_json : t list -> Msoc_testplan.Export.json
(** Object with error/warning counts and the full diagnostic list —
    the payload of [msoc_plan check --json]. *)
