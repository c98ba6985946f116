(** The S5xx/S6xx semantic rule families: interprocedural analysis
    over the parsed project (DESIGN.md §13, §16).

    MSOC-S502 classifies every critical section's exception paths;
    MSOC-S503 catches [Atomic] check-then-act races; MSOC-S504 flags
    blocking calls made while a lock is held (directly or through the
    {!Callgraph}); MSOC-S505 reports [.mli]-exported values no other
    module outside [test/] references, and optional parameters of the
    live ones that no call outside [test/] passes. The S6xx tier runs
    from the same context: {!Resource} (S601/S602 lifecycle) and
    {!Typestate} (S604 reply obligation, S605 counter balance).

    Modules that fail to parse contribute nothing here (nor to any
    other rule); MSOC-S406 records each skip as an info diagnostic, so
    the gap is never silent. *)

val run : Project.t -> Msoc_check.Diagnostic.t list
(** All S5xx/S6xx findings plus S406 skip notices over the project,
    unsorted and unfiltered (the engine applies the allowlist and
    sorting). *)

val parse_failures : Project.t -> int
(** Count of modules whose [.ml] does not parse (reported by the CLI
    so degradation is visible, never silent). *)
