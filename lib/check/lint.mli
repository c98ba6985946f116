(** Line-anchored lint for [.soc] benchmark descriptions.

    The linter reads through {!Msoc_itc02.Scan}, the one reader of the
    flat loader {!Msoc_itc02.Soc_file.of_string}: where the loader
    raises at one finding, the linter reports every finding as a
    {!Diagnostic.t} anchored to its source line — duplicate core ids,
    malformed tokens, unknown directives, malformed or missing fields,
    [ScanChains] arity mismatches, non-positive pattern counts or chain
    lengths. Each finding that stops the loader is an error here, so a
    file with no error-severity finding is guaranteed to load cleanly
    (a property in test/test_soc_ref.ml checks it).
    Two error checks are the linter's own policy, and the loader
    accepts what they flag: duplicate core names (E308), and cores that
    carry no test data at all, whose Pareto staircase would be
    zero-length (E309). *)

val load : string -> Diagnostic.t list * Msoc_itc02.Types.soc option
(** [load path] reads [path] once and scans it once: every finding,
    anchored to its line of [path], and the SOC when none of them is
    an error. An unreadable [path] is one E302 error. *)
