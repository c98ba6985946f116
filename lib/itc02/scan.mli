(** The one reader of the ITC'02 text dialects.

    {!Soc_file} (flat: one [Module] line per core) and {!Full}
    (hierarchical: [Module] headers with a [Level], each followed by
    its [Test] lines) load through {!scan}, and so does the [.soc]
    linter ([Msoc_check.Lint]). One tokenizer (a line splits on blanks
    and tabs; a comment runs from [#] to the end of the line), one
    [key value] field reader with the [ScanChains n : l1 .. ln] tail,
    one [SocName]/[Module]/[Test] dispatch and one file read serve all
    three. The scan never stops at the first problem: it returns what
    it read and every finding, each anchored to its line, with a kind
    but no diagnostic code (the linter maps kinds to codes). A loader
    raises at the finding {!check} picks, so a text whose findings
    hold no fatal one loads ({!Full} then checks its hierarchy). *)

exception Parse_error of { file : string option; line : int; message : string }
(** The loaders' one error; [file] names the input when it came from a
    file, [line] is >= 1. *)

type kind =
  | Syntax  (** a token that does not read, or a line no directive takes *)
  | Missing_field
  | Chain_count  (** [ScanChains n] without exactly [: l1 .. ln] *)
  | Range  (** a negative terminal count, or a flat core id below 1 *)
  | Patterns  (** a pattern count below 1 *)
  | Chain_length  (** a scan-chain length below 1 *)
  | Duplicate_id  (** reported on the [Module] line that repeats the id *)
  | Missing_socname  (** reported on line 1 *)
  | Socname_redeclared  (** a later one-token [SocName]; the last one wins *)
  | No_modules  (** reported on line 1 *)

type finding = { line : int; kind : kind; message : string }

val fatal : kind -> bool
(** Every kind but [Socname_redeclared] and [No_modules] stops a load. *)

type test = { index : int; scan_use : bool; tam_use : bool; patterns : int }

type module_ = {
  line : int;
  id : int option;
  level : int option;  (** read in the hierarchical dialect only *)
  name : string option;
  inputs : int option;
  outputs : int option;
  bidirs : int option;
  patterns : int option;  (** read in the flat dialect only *)
  chains : int list;  (** the lengths that read *)
  tests : (int * test) list;  (** each read [Test] line with its line, in order *)
}
(** One [Module] line as far as it reads: a field is [None] when it is
    missing or does not read (a finding says which). *)

type t = { soc_name : string option; modules : module_ list; findings : finding list }
(** [soc_name] is the last one-token [SocName]; [findings] come in line
    order, the whole-file ones last. *)

val scan : hierarchical:bool -> string -> t
(** Read a whole text. With [~hierarchical], [Module] lines take a
    [Level] and no [Patterns], module ids may be any integer and [Test]
    lines attach to the [Module] before them; without, [Module] lines
    take [Patterns], ids start at 1 and a [Test] line is an unknown
    directive. *)

val check : ?file:string -> t -> unit
(** @raise Parse_error at the first finding of a line that does not
    read ([Syntax], [Missing_field], [Chain_count]); when every line
    reads, at the first other fatal finding. *)

val fail : ?file:string -> int -> string -> 'a
(** [fail ?file line message] raises {!Parse_error}. *)

val max_bytes : int
(** 16 MiB, the most {!read} takes from one file: ITC'02 descriptions
    run to tens of kilobytes. *)

val read : string -> string
(** The whole file; a pipe or [/dev/stdin] reads like any file.
    @raise Sys_error, also when the file holds more than {!max_bytes}
    (an endless device such as [/dev/zero] included). *)

val one_token : string -> bool
(** The name reads back as one token: it is non-empty and holds no
    blank, tab, newline or [#]. *)

val token_name : what:string -> string -> string
(** The name itself when it is {!one_token}.
    @raise Invalid_argument naming [what] and the name otherwise. *)

val add_chains : Buffer.t -> int list -> unit
(** Print [" ScanChains n"], then [" : l1 .. ln"] when [n > 0]. *)
