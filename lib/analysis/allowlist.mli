(** Audited exceptions to analyzer rules.

    One entry per line: [MSOC-code path[:line][@hash] # justification].
    Blank lines and [#]-comment lines are skipped. An entry suppresses
    every finding with the same code in the same file (narrowed to one
    line when the [:line] anchor is given), but the audit is kept
    honest by meta-diagnostics: a stale entry (matched nothing) is
    MSOC-S401, a missing justification MSOC-S402, and a malformed line
    MSOC-S403 — so the allowlist itself is linted on every run.

    The [@hash] anchor (8 hex chars, {!Source.hash_line} of the
    flagged line) binds the entry to line {e content} instead of a
    line number: unrelated edits that move the line keep the entry
    live, while a change to the audited line itself turns it into a
    loud MSOC-S404 ("the code under audit changed — re-review"). *)

type entry = {
  code : string;
  file : string;
  line : int option;
  hash : string option;
      (** when present, supersedes [line] for matching *)
  justification : string;
  source_line : int;
}

type t = {
  path : string option;
  entries : entry list;
  parse_diags : Msoc_check.Diagnostic.t list;
}

val empty : t

val load : root:string -> string -> t
(** [load ~root path] parses [root/path], or [path] itself when it is
    absolute, with [path] as given.
    @raise Sys_error when the file cannot be read or is a directory. *)

type applied = {
  kept : Msoc_check.Diagnostic.t list;
  suppressed : int;
  meta : Msoc_check.Diagnostic.t list;
}

val apply :
  ?file_lines:(string -> string array option) ->
  t ->
  Msoc_check.Diagnostic.t list ->
  applied
(** Filter findings through the allowlist; [meta] carries the
    S401-S404 audit diagnostics. [file_lines] resolves a root-relative
    path to its raw lines — required for [@hash] anchors to match
    (the engine passes a memoized disk reader); without it, hash
    entries match nothing and audit as stale. *)
