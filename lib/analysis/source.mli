(** Loaded OCaml and dune sources — the file substrate of
    {!Msoc_analysis}.

    A source keeps its text (the input of the {!Ast} parser) and its
    raw lines (the input of the content anchors and of the dune stanza
    checks). Rules over OCaml read the Parsetree, never the text. *)

type t

val load : root:string -> string -> t
(** [load ~root rel] reads [root/rel]; the source's {!path} is [rel].
    @raise Sys_error when the file cannot be read. *)

val read_file : string -> string
(** Whole-file read (binary). @raise Sys_error on failure. *)

val path : t -> string

val text : t -> string

val raw : t -> string array

val hash_line : string -> string
(** Stable 8-hex-char content anchor of one source line (MD5 of the
    trimmed text) — the [@hash] form of allowlist entries and the CI
    ratchet baseline key. *)
