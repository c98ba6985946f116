(** The analyzer entry point: discover and parse the tree, run every
    rule, apply the allowlist, sort — one serial pass (DESIGN.md §16).

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
}

val run : ?allowlist_file:string -> root:string -> unit -> report
(** [run ~root ()] analyzes the tree under [root].
    [allowlist_file] is root-relative unless absolute; when absent,
    [analysis.allow] under [root] is used if it exists. *)

val exit_code : report -> int
