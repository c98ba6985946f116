(* The analyzer entry point: discover and parse the tree, run every
   rule family, apply the allowlist, sort. One serial pass: the rules
   take about as long as the parse, and on a 2-core host a domain pool
   made the run no faster (DESIGN.md §16). *)

module Diagnostic = Msoc_check.Diagnostic

type report = {
  diagnostics : Diagnostic.t list;
  suppressed : int;
  files_scanned : int;
  parse_failures : int;
  elapsed_s : float;
  allowlist_path : string option;
}

let default_allowlist_file = "analysis.allow"

let resolve_allowlist ~root = function
  | Some path -> Allowlist.load ~root path
  | None ->
    if Sys.file_exists (Filename.concat root default_allowlist_file) then
      Allowlist.load ~root default_allowlist_file
    else Allowlist.empty

(* Memoized raw-line reader for @hash allowlist anchors. Project
   sources are served from memory; anything else the allowlist names
   (a .mli, a dune file) is read from disk once. *)
let make_file_lines ~root (project : Project.t) =
  let cache = Hashtbl.create 16 in
  List.iter
    (fun (m : Project.module_info) ->
      Hashtbl.replace cache m.Project.ml_path
        (Some (Source.raw m.Project.source)))
    project.Project.modules;
  fun rel ->
    match Hashtbl.find_opt cache rel with
    | Some lines -> lines
    | None ->
      let lines =
        match Source.load ~root rel with
        | src -> Some (Source.raw src)
        | exception Sys_error _ -> None
      in
      Hashtbl.replace cache rel lines;
      lines

let run ?allowlist_file ~root () =
  let t0 = Msoc_util.Clock.now () in
  let project = Project.load ~root in
  let allowlist = resolve_allowlist ~root allowlist_file in
  let raw = Rules.run project in
  let file_lines = make_file_lines ~root project in
  let applied = Allowlist.apply ~file_lines allowlist raw in
  {
    diagnostics = Diagnostic.sort (applied.Allowlist.kept @ applied.Allowlist.meta);
    suppressed = applied.Allowlist.suppressed;
    files_scanned =
      List.length project.Project.modules
      + List.length project.Project.dune_files;
    parse_failures = Semantic.parse_failures project;
    elapsed_s = Msoc_util.Clock.now () -. t0;
    allowlist_path = allowlist.Allowlist.path;
  }

let exit_code report = Diagnostic.exit_code report.diagnostics
