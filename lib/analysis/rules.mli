(** The rule families of the source-level analyzer.

    Concurrency (S101), exception safety (S2xx) and API hygiene
    (S3xx), plus the {!Semantic} S5xx/S6xx tiers; severities come from
    the shared {!Msoc_check.Codes} registry, findings are plain
    {!Msoc_check.Diagnostic.t} values. Every OCaml rule walks the
    Parsetree, so comments and string literals can never fire one; a
    module that does not parse is skipped and reported as MSOC-S406. *)

type config = {
  roots : string list;
      (** Reachability roots for MSOC-S101: directories
          (["lib/serve"] — every module inside) or single files
          (["lib/util/pool.ml"]). *)
}

val default_config : config
(** Roots: [lib/serve], [lib/search], [lib/util/pool.ml] — the
    concurrent subsystems from PRs 1-4. Every dune stanza must carry
    the warnings-as-errors flags (MSOC-S302); that set is fixed. *)

val run : config -> Project.t -> Msoc_check.Diagnostic.t list
(** Every rule over the whole project, unfiltered (the engine applies
    the allowlist) and unsorted. *)
