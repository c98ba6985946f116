(** The rule families of the source-level analyzer.

    Concurrency (S101), exception safety (S2xx) and API hygiene
    (S3xx), plus the {!Semantic} S5xx/S6xx tiers; severities come from
    the shared {!Msoc_check.Codes} registry, findings are plain
    {!Msoc_check.Diagnostic.t} values. Every OCaml rule walks the
    Parsetree, so comments and string literals can never fire one; a
    module that does not parse is skipped and reported as MSOC-S406. *)

val run : Project.t -> Msoc_check.Diagnostic.t list
(** Every rule over the whole project, unfiltered (the engine applies
    the allowlist) and unsorted. MSOC-S101 checks every library
    module; every dune stanza must carry the warnings-as-errors flags
    (MSOC-S302), a fixed set. *)
