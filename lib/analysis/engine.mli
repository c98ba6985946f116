(** The analyzer entry point: discover and parse the tree, run every
    rule (optionally across a {!Msoc_util.Pool}), apply the allowlist,
    sort.

    Parsing is serial ({!Project.load}; the OCaml lexer keeps global
    state); the pure per-definition stages — Flow/Resource summaries
    and the S6xx walks — fan out over the pool. [Pool.map] preserves
    input order, so the report is byte-identical for every job count
    (DESIGN.md §16).

    The exit contract matches [msoc_plan check]: 0 when no
    error-severity finding survives the allowlist, 1 otherwise —
    warnings and infos (including the S401/S402 allowlist audit and
    the S406 parse-skip notices) never fail a run. *)

type report = {
  diagnostics : Msoc_check.Diagnostic.t list;
      (** Sorted; allowlist-suppressed findings removed, allowlist
          audit diagnostics (S401-S404) included. *)
  suppressed : int;  (** findings removed by allowlist entries *)
  files_scanned : int;  (** modules plus dune files *)
  parse_failures : int;
      (** modules that do not parse — every rule skips them and each
          surfaces as an MSOC-S406 info diagnostic *)
  elapsed_s : float;  (** wall time of the whole run *)
  allowlist_path : string option;
  jobs : int;  (** worker count the run used (1 = serial) *)
}

val default_allowlist_file : string
(** ["analysis.allow"], looked up under the root when no explicit
    allowlist is given. *)

val run :
  ?config:Rules.config ->
  ?allowlist_file:string ->
  ?jobs:int ->
  root:string ->
  unit ->
  report
(** [run ~root ()] analyzes the tree under [root].
    [allowlist_file] is root-relative; when absent,
    {!default_allowlist_file} is used if it exists. [jobs] (default 1)
    fans the pure per-definition stages across a domain pool; the
    diagnostics are byte-identical for every value. *)

val exit_code : report -> int
