module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes

(* One audited exception per line:

     MSOC-S303 lib/core/report.ml # console rendering facade for the CLI
     MSOC-S204 lib/core/export.ml:300 # parse_exn's contract raises Failure
     MSOC-S504 lib/serve/cache.ml@3f2a9c01 # spill under lock is deliberate

   The justification after [#] is mandatory in spirit: an entry
   without one is reported as MSOC-S402 (warning) so audits never rot
   silently. Entries that match nothing are reported as MSOC-S401 —
   fixed code must shed its allowlist line.

   The [@hash] form anchors the entry to line *content* rather than a
   line number: the 8-hex-char value is [Source.hash_line] of the
   flagged line, so the entry keeps matching when unrelated edits move
   the line, and goes loudly stale (MSOC-S404) when the audited code
   itself changes. *)

type entry = {
  code : string;
  file : string;
  line : int option;
  hash : string option;
      (* content anchor; when present it supersedes [line] for
         matching (the line number is informational) *)
  justification : string;
  source_line : int;  (* 1-based line in the allowlist file itself *)
}

type t = {
  path : string option;
  entries : entry list;
  parse_diags : Diagnostic.t list;
}

let empty = { path = None; entries = []; parse_diags = [] }

let is_hex c =
  ('0' <= c && c <= '9') || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')

let parse_target target =
  let target, hash =
    match String.rindex_opt target '@' with
    | None -> (Some target, None)
    | Some i ->
      let h = String.sub target (i + 1) (String.length target - i - 1) in
      if String.length h = 8 && String.for_all is_hex h then
        (Some (String.sub target 0 i), Some (String.lowercase_ascii h))
      else (None, None)
  in
  match target with
  | None -> None
  | Some target -> (
    match String.rindex_opt target ':' with
    | None -> if target = "" then None else Some (target, None, hash)
    | Some i -> (
      let file = String.sub target 0 i in
      let suffix = String.sub target (i + 1) (String.length target - i - 1) in
      match int_of_string_opt suffix with
      | Some line when line >= 1 && file <> "" -> Some (file, Some line, hash)
      | Some _ | None -> None))

let of_string ?path text =
  let entries = ref [] in
  let diags = ref [] in
  List.iteri
    (fun idx raw_line ->
      let source_line = idx + 1 in
      let before_hash, justification =
        match String.index_opt raw_line '#' with
        | None -> (raw_line, "")
        | Some i ->
          ( String.sub raw_line 0 i,
            String.trim
              (String.sub raw_line (i + 1) (String.length raw_line - i - 1)) )
      in
      let fields =
        String.split_on_char ' ' (String.trim before_hash)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun f -> f <> "")
      in
      match fields with
      | [] -> ()  (* blank or pure comment line *)
      | [ code; target ] when String.length code > 5
                              && String.sub code 0 5 = "MSOC-" -> (
        match parse_target target with
        | Some (file, line, hash) ->
          entries :=
            { code; file; line; hash; justification; source_line } :: !entries
        | None ->
          diags :=
            Codes.diag ?file:path ~line:source_line Codes.s403
              "allowlist target %S is not FILE[:LINE][@HASH8]" target
            :: !diags)
      | _ ->
        diags :=
          Codes.diag ?file:path ~line:source_line Codes.s403
            "expected \"MSOC-code path[:line][@hash] # justification\", got %S"
            (String.trim raw_line)
          :: !diags)
    (String.split_on_char '\n' text);
  { path; entries = List.rev !entries; parse_diags = List.rev !diags }

let load ~root path =
  let file = if Filename.is_relative path then Filename.concat root path else path in
  (* reading a directory fails with an error that names neither it nor
     the problem *)
  if Sys.file_exists file && Sys.is_directory file then raise (Sys_error (file ^ ": Is a directory"));
  of_string ~path (Source.read_file file)

let entry_matches ~file_lines entry (d : Diagnostic.t) =
  entry.code = d.Diagnostic.code
  && d.Diagnostic.location.Diagnostic.file = Some entry.file
  &&
  match entry.hash with
  | Some h -> (
    (* content anchor: the finding's line must hash to it *)
    match (d.Diagnostic.location.Diagnostic.line, file_lines entry.file) with
    | Some l, Some lines when l >= 1 && l <= Array.length lines ->
      Source.hash_line lines.(l - 1) = h
    | _ -> false)
  | None -> (
    match entry.line with
    | None -> true
    | Some l -> d.Diagnostic.location.Diagnostic.line = Some l)

type applied = {
  kept : Diagnostic.t list;
  suppressed : int;
  meta : Diagnostic.t list;
      (* S401 stale-entry and S402 no-justification warnings plus S403
         parse errors, anchored in the allowlist file *)
}

let apply ?(file_lines = fun (_ : string) -> None) t diags =
  let used = Array.make (List.length t.entries) false in
  let kept =
    List.filter
      (fun d ->
        let hit = ref false in
        List.iteri
          (fun i entry ->
            if entry_matches ~file_lines entry d then begin
              used.(i) <- true;
              hit := true
            end)
          t.entries;
        not !hit)
      diags
  in
  let meta =
    List.concat
      (List.mapi
         (fun i entry ->
           let stale =
             if used.(i) then []
             else
               (* A dead hash anchor is a stronger signal than a plain
                  stale entry: the audited code itself changed. *)
               let anchor_dead =
                 match entry.hash with
                 | None -> None
                 | Some h -> (
                   match file_lines entry.file with
                   | Some lines
                     when not
                            (Array.exists
                               (fun line -> Source.hash_line line = h)
                               lines) -> Some h
                   | Some _ | None -> None)
               in
               match anchor_dead with
               | Some h ->
                 [
                   Codes.diag ?file:t.path ~line:entry.source_line Codes.s404
                     "allowlist entry %s %s@%s: no line of %s hashes to the \
                      anchor any more — the audited code changed, re-review \
                      and re-anchor (or delete the entry)"
                     entry.code entry.file h entry.file;
                 ]
               | None ->
                 [
                   Codes.diag ?file:t.path ~line:entry.source_line Codes.s401
                     "allowlist entry %s %s matched no finding — remove it"
                     entry.code entry.file;
                 ]
           in
           let unjustified =
             if entry.justification <> "" then []
             else
               [
                 Codes.diag ?file:t.path ~line:entry.source_line Codes.s402
                   "allowlist entry %s %s has no justification comment"
                   entry.code entry.file;
               ]
           in
           stale @ unjustified)
         t.entries)
    @ t.parse_diags
  in
  { kept; suppressed = List.length diags - List.length kept; meta }
