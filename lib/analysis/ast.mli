(** Parsetree parsing — the substrate of every analyzer rule.

    Every [.ml]/[.mli] the analyzer touches is parsed with the stock
    OCaml parser (compiler-libs.common, never type-checked).
    {!Project.load} parses each module once per run; nothing is
    cached across runs.

    A parse failure is an [Error] carrying a one-line description
    (["path:LINE: syntax error"] or ["path:LINE: lexical error"]):
    every rule skips the file and MSOC-S406 reports the skip. *)

type impl = (Parsetree.structure, string) result

type intf = (Parsetree.signature, string) result

val parse_impl : path:string -> string -> impl
(** [parse_impl ~path text] parses [text] as a structure; [path] only
    labels locations and error messages. *)

val parse_intf : path:string -> string -> intf

(** {2 Parsetree helpers shared by the rule modules} *)

val line_of : Location.t -> int
(** 1-based start line. *)

val ident_path : Longident.t -> string list

val path_string : Longident.t -> string
(** [path_string lid] is the dotted rendering, e.g. ["Mutex.lock"]. *)

(** {2 The paths a structure names} *)

type kind =
  | Value  (** an expression identifier: [Pool.map], [exit] *)
  | Member
      (** a constructor, record field or type path: [Pool.t],
          [r.Cache.lock] *)
  | Module  (** a module or module-type path: [F (Pool)], [module type of X] *)
  | Open  (** an [open] target, structure-level or local *)
  | Include  (** an [include] target *)
  | Alias of string  (** [module A = Path]: the alias [A] of the path *)

type reference = {
  kind : kind;
  path : string list;  (** the dotted path split on dots *)
  line : int;  (** its 1-based start line *)
  labels : string list;
      (** the labelled and optional arguments passed where a [Value] is
          applied ([["seed"]] for [Rng.make ~seed 1]); [[]] elsewhere *)
}

val references : Parsetree.structure -> reference list
(** Every path the structure names, in source order: expressions,
    patterns, types and the module language, at any depth. *)
