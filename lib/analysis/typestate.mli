(** Protocol-state (typestate) analysis — the MSOC-S604/S605 family.

    S604 checks the one-reply obligation of request-dispatch matches
    (every non-exception case of a [match … request_of_line …] must be
    able to answer or hand off exactly once — never zero envelopes,
    never two on a straight path). S605 checks that paired counters
    ({!Resource.counter_pairs}) net the same delta on every branch of
    any region that uses both halves of a pair; sibling branches with
    different nets are reported with both witness lines. *)

val run : Callgraph.t -> Msoc_check.Diagnostic.t list
(** May-reply closure over the call graph ({!Callgraph.close}), then
    both rules over every definition. *)
