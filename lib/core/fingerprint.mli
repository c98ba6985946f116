(** Canonical content hashing of planning problems.

    The serve subsystem's result cache must key on "the same problem",
    not "the same request text": two clients describing one SOC — one
    by file path, one inline — must hit the same cache entry, across
    process restarts. The canonical form is a compact JSON rendering
    of every input the planner's output depends on: the digital cores
    (id, name, terminals, patterns, scan chains), the analog cores'
    full test specs, the TAM width, the cost weights, the
    compatibility policy and the self-test setting. The hex digest of
    that string is the cache key.

    The area model is deliberately excluded: it carries closures and
    cannot be serialized. Every entry point that builds problems from
    wire requests (the serve protocol, the CLI) uses the default
    model, so the omission is safe there; callers installing a custom
    model must not share a cache directory with default-model runs. *)

val problem_hex : Problem.t -> string
(** Hex digest of the canonical form, weights included, rendered
    compactly. Deterministic: field order is fixed and lists keep the
    problem's own (already canonical) order. *)

val structure_hex : Problem.t -> string
(** Like {!problem_hex} with the cost weights zeroed out — equal for
    problems that {!Problem.same_structure} would accept (modulo the
    area model), so weight sweeps can share one prepared evaluation. *)

val request_hex :
  ?extra:Export.json -> op:string -> search:Plan.search -> Problem.t -> string
(** Cache key for a full request: problem + operation name + search
    strategy (kind + delta). Different search settings can choose
    different plans, so they never share a result entry. [extra] folds any further
    plan-determining request parameters into the key — e.g. the
    {!Msoc_search} strategy kind, its seeds and its declared budget —
    so a cached annealing result can never be served to a
    branch-and-bound request. Omitting [extra] yields the same key the
    parameter-less form always produced, keeping persisted caches
    valid. *)
