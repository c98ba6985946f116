(** Extended ITC'02 SOC descriptions: hierarchy and multiple tests.

    The original ITC'02 benchmark files are richer than the flat model
    in {!Types}: modules sit at hierarchy levels (cores embedded in
    cores), and each module carries one or more test sets, each
    declaring whether it uses the scan chains ([ScanUse]) and the TAM
    ([TamUse]) and how many patterns it applies. This module models
    that richer shape, parses a line-oriented dialect of it,
    and flattens it into the planner's flat model.

    Concrete syntax (one [Module] header line, then its [Test] lines):

    {v
    SocName p22810x
    Module 1 Level 1 Name mpeg Inputs 10 Outputs 67 Bidirs 0 ScanChains 2 : 130 121
    Test 1 ScanUse 1 TamUse 1 Patterns 785
    Test 2 ScanUse 0 TamUse 1 Patterns 40
    Module 2 Level 2 Name dct Inputs 8 Outputs 8 Bidirs 0 ScanChains 0
    Test 1 ScanUse 0 TamUse 1 Patterns 97
    v}

    [Test] lines attach to the most recent [Module]. Hierarchy follows
    the ITC'02 convention: a module at level [k+1] is embedded in the
    nearest preceding module at level [k]. *)

type test = Scan.test = {
  index : int;  (** 1-based within its module *)
  scan_use : bool;
  tam_use : bool;
  patterns : int;
}

type module_ = {
  id : int;
  level : int;  (** 0 = the SOC itself / top; >= 1 embedded *)
  name : string;
  inputs : int;
  outputs : int;
  bidirs : int;
  scan_chains : int list;
  tests : test list;  (** non-empty *)
}

type t = { name : string; modules : module_ list }

val parent : t -> id:int -> module_ option
(** Embedding module per the level convention; [None] for top-level
    modules. @raise Not_found for unknown ids. *)

val of_string : string -> t
(** Parses and validates through {!Scan}, the reader {!Soc_file} shares.
    A negative terminal count or a scan-chain length below 1 is refused
    at its [Module] line. So is a structural fault, at the [Module] or
    [Test] line at fault: a repeated id, a module without tests, a test
    without patterns, a module more than one level deeper than its
    predecessor, or a first module deeper than level 1. A text it
    accepts flattens without [Invalid_argument] unless no test uses the
    TAM (test/test_soc_ref.ml checks the reader against the one it
    replaced).
    @raise Soc_file.Parse_error, never [Invalid_argument]. *)

val flatten : t -> Types.soc
(** The planner's flat view: one {!Types.core} per TAM-using test —
    named ["<module>/t<index>"] — carrying the module's terminals and
    its scan chains when the test uses scan (none otherwise). Modules
    whose tests all bypass the TAM disappear (they are tested
    functionally, not over the TAM). Hierarchy is deliberately
    dropped: modular SOC test scheduling treats the module set as
    flat, exactly as the paper and its references do.
    @raise Invalid_argument if no test uses the TAM. *)
