(** Reading and writing SOC descriptions.

    The concrete syntax is a flat, line-oriented dialect of the ITC'02
    benchmark format (one [Module] line per core):

    {v
    # comment
    SocName p93791s
    Module 1 Name cpu0 Inputs 109 Outputs 32 Bidirs 72 Patterns 409 ScanChains 3 : 168 150 120
    Module 2 Name glue Inputs 10 Outputs 5 Bidirs 0 Patterns 100 ScanChains 0
    v}

    [ScanChains n] is followed by [: l1 .. ln] when [n > 0]. Blank lines
    and [#] comments are ignored. The original hierarchical ITC'02
    files carry additional per-test fields (ScanUse/TamUse, multiple
    test sets); the algorithms reproduced here consume exactly the
    fields above, so the dialect keeps only those (see DESIGN.md §3).
    The text is read by {!Scan}, the reader [Msoc_check.Lint] shares:
    a text whose lint findings hold no error loads (a property in
    test/test_soc_ref.ml checks it). *)

exception Parse_error of { file : string option; line : int; message : string }
(** {!Scan.Parse_error}, also raised by {!Full}. [file] names the input
    when it came from {!load}; [None] when parsed from a string —
    multi-file flows (the serve daemon, batch verifiers) report which
    file broke. [line] is the line at fault, >= 1. *)

val of_scan : ?file:string -> Scan.t -> Types.soc
(** The SOC a flat {!Scan.scan} read.
    @raise Parse_error at the finding {!Scan.check} picks. *)

val of_string : ?file:string -> string -> Types.soc
(** @raise Parse_error on malformed input, never [Invalid_argument];
    [file] (purely diagnostic) is attached to the error. *)

val to_string : Types.soc -> string
(** Round-trips through {!of_string}.
    @raise Invalid_argument when the SOC's or a core's name would not
    read back as one token (see {!Scan.token_name}). *)

val load : string -> Types.soc
(** [load path] reads and parses a file (a pipe too).
    @raise Parse_error (with [file = Some path]) or [Sys_error]. *)

val save : string -> Types.soc -> unit
(** @raise Invalid_argument as {!to_string} does, before the file is
    opened. *)
