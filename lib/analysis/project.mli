(** Repository discovery: the modules, their Parsetrees and the paths
    they name.

    A project is the checked-out tree: every [lib/<dir>] owning a
    [dune] file with a [(name ...)] stanza contributes its [.ml]
    modules, and the executables of [bin/], [test/], [bench/],
    [bench/suite/] and [examples/] join the scan without belonging to a
    library. Every module is parsed once at load ({!Ast.parse_impl});
    its references are the paths its Parsetree names ([Pool.map],
    [Msoc_util.Pool], [open]/[include]/alias targets, types,
    constructors, fields). *)

type lib = {
  dir : string;  (** e.g. ["lib/serve"] *)
  name : string;  (** dune library name, e.g. ["msoc_serve"] *)
  dune_path : string;
}

type module_info = {
  owner : lib option;
      (** [None] outside [lib/]. Library-only rules (S2xx/S3xx hygiene)
          look at modules with an owner; concurrency, exception-flow
          and semantic rules cover every module. *)
  name : string;  (** OCaml module name, e.g. ["Pool"] *)
  ml_path : string;
  mli_path : string option;  (** sibling [.mli] when it exists *)
  source : Source.t;
  ast : Ast.impl;  (** the parsed [.ml], or why it does not parse *)
  refs : Ast.reference list;
      (** {!Ast.references} of [ast]; [[]] when it does not parse *)
}

type t = {
  root : string;
  libs : lib list;
  modules : module_info list;
  dune_files : Source.t list;
      (** every [lib/*/dune] plus the [dune] file of each executable
          directory when present *)
}

val load : root:string -> t
(** Scan [root/lib], [root/bin], [root/test], [root/bench],
    [root/bench/suite] and [root/examples]. Directories without a dune
    [(name ...)] stanza are skipped under [lib/]; listing order is
    sorted, so runs are deterministic. Parses every module once; the
    rules read the Parsetrees it holds. *)

val exposed_name : lib -> string
(** The OCaml-visible wrapper module of a library: ["msoc_serve"] is
    exposed as ["Msoc_serve"]. *)

val opened_libs : t -> module_info -> lib list
(** Libraries the module [open]s by their exposed name, at top level
    or locally. *)
