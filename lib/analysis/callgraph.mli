(** Module-qualified def/use graph over the project's parsed sources.

    Nodes are top-level value bindings (one nesting level of
    [module X = struct .. end] included, named ["X.f"]); edges are
    identifier references resolved against sibling modules, library
    exposure ([Msoc_serve.Cache.find]) and per-file module aliases.
    Unresolvable references (stdlib, function arguments, local opens)
    never become edges, so every edge is certain.

    The interprocedural rules walk this graph: {!close} carries
    blocking and replies across function boundaries (MSOC-S504,
    MSOC-S604), {!resolve_call} chases one reference. *)

type def = {
  key : string;  (** globally unique: ["lib/serve/cache.ml#Lru.find"] *)
  module_name : string;  (** ["Cache"] *)
  ml_path : string;
  name : string;  (** ["find"] or ["Lru.find"] *)
  line : int;
  body : Parsetree.expression;
}

type t

val build : Project.t -> t
(** One Parsetree walk per parsable module; modules that fail to
    parse contribute no nodes. *)

val defs : t -> def list

val callees : t -> string -> string list
(** Callee def keys of a definition, deduplicated; [[]] for unknown
    keys. *)

val close : t -> (def -> Set.Make(String).t) -> string -> Set.Make(String).t
(** [close t seed key] is the union of [seed] over every definition
    [key] reaches through {!callees}, itself included: the least
    table with [closed k ⊇ seed d] for each definition [d] under [k]
    and [closed k ⊇ closed c] for each callee [c]. Unknown keys close
    to the empty set. MSOC-S504 closes the blocking primitives each
    definition reaches, and MSOC-S604 a one-element seed on a direct
    reply (non-empty = may reply). *)

val resolve_call : t -> def -> Longident.t -> def list
(** Candidate defs a reference inside [d] may name, resolved against
    [d]'s callees: the value name must match; a module qualifier
    narrows multiple candidates. Over-matching is accepted — the
    interprocedural rules (MSOC-S504/S6xx) prefer a false edge
    over a missed one. *)
