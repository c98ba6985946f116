(* Loaded OCaml and dune sources.

   The analyzer reads OCaml through the Parsetree (Ast); a source only
   carries the text the parser consumes and the raw lines that content
   anchors hash and the dune stanza checks scan. *)

type t = {
  path : string;  (* root-relative, forward slashes *)
  text : string;
  raw : string array;
}

let path t = t.path

let text t = t.text

let raw t = t.raw

let split_lines text =
  (* keep a trailing empty segment out: "a\nb\n" -> [|"a"; "b"|] *)
  let lines = String.split_on_char '\n' text in
  let lines =
    match List.rev lines with
    | "" :: rest -> List.rev rest
    | _ -> lines
  in
  Array.of_list lines

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~root rel =
  let text = read_file (Filename.concat root rel) in
  { path = rel; text; raw = split_lines text }

(* --- content anchors --- *)

(* Allowlist entries (and the CI ratchet baseline) anchor findings by
   the *content* of the flagged line rather than its number, so
   unrelated edits that shift line numbers never stale an audit. The
   anchor is the first 8 hex chars of the MD5 of the trimmed raw
   line. *)
let hash_line line =
  String.sub (Digest.to_hex (Digest.string (String.trim line))) 0 8
