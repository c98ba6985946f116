(** Resource-lifecycle analysis — the MSOC-S601/S602 family.

    A resource kind pairs acquire calls with their owed releases
    (Unix fds, in/out channels, atomic-write temp files). The path
    walk tracks let-bound acquisitions to the end of their scope and
    reports leaks on normal or exception paths (S601) and double
    releases (S602). Per-function
    summaries feed a callgraph fixpoint of derived releasers
    ([close_link l = Unix.close l.fd]) and derived acquirers
    (a function whose tail is a fresh acquisition), so the rules see
    through one or many project-local wrapper layers. *)

type kind = {
  kind_name : string;
  acquires : string list;
  releases : string list;
  observers : string list;
}

type counter_pair = { inc : string; dec : string; full : bool }

val counter_pairs : counter_pair list
(** Balanced counter pairs (Atomic incr/decr, router window slots,
    fleet in-flight accounting) — consumed by the {!Typestate} S605
    rule. [full] pairs match the whole dotted path. *)

type summary = {
  acquires : (string * string * int) list;
  released_params : int list;
  param_calls : (Longident.t * (int * int) list) list;
  returns_kind : string option;
  tail_calls : Longident.t list;
}
(** Per-function resource summary, embedded in [Flow.summary]:
    let-bound acquisitions [(kind, name, line)], positional parameter
    indices the body releases, calls that forward whole parameters
    [(callee, (arg_idx, param_idx) list)], whether a tail of the body
    is a fresh acquisition, and the calls in tail position. *)

val empty : summary

val summarize : Parsetree.expression -> summary
(** One Parsetree walk over a definition body. Pure. *)

val run :
  Callgraph.t -> (string -> summary) -> Msoc_check.Diagnostic.t list
(** Fixpoint over [lookup]ed summaries, then the per-definition path
    walk. *)
