(* msoc_analyze: the source-level static analyzer (Msoc_analysis) over
   this repository's own lib/, bin/, test/, bench/, bench/suite/ and
   examples/ trees.

   It is an executable of its own so that msoc_plan — the planner, the
   serve daemon and the fleet workers — links neither Msoc_analysis nor
   the compiler-libs front end it parses with (DESIGN.md §11).

   Exit codes: 0 when no finding is an error; 1 when one is; 124 on CLI
   misuse (an unknown option, an unreadable --allowlist); 125 only on a
   bug (an uncaught exception). *)

open Cmdliner

let run root allowlist_file list_rules as_json =
  let module A = Msoc_analysis in
  if list_rules then begin
    List.iter
      (fun (info : Msoc_check.Codes.info) ->
        if String.length info.code > 5 && info.code.[5] = 'S' then
          Printf.printf "%s  %-7s  %s\n" info.code
            (Msoc_check.Diagnostic.severity_label info.severity)
            info.title)
      Msoc_check.Codes.all;
    exit 0
  end;
  (* an unreadable allowlist is a usage error (exit 124) naming the
     option, like an unparseable value *)
  match Option.iter (fun f -> ignore (A.Allowlist.load ~root f)) allowlist_file with
  | exception Sys_error m -> `Error (true, "option '--allowlist': " ^ m)
  | () ->
    let report = A.Engine.run ?allowlist_file ~root () in
    if as_json then
      print_string (Msoc_testplan.Export.pretty (A.Report.to_json report))
    else print_string (A.Report.to_text report);
    exit (A.Engine.exit_code report)

let () =
  let doc =
    "run the source-level static analyzer over this repository's own \
     lib/, bin/, test/, bench/, bench/suite/ and examples/ trees: every \
     module is parsed once and checked for concurrency, exception safety \
     and API hygiene, exception-path lock leaks, atomic check-then-act, \
     blocking calls under a lock, dead exported API and optional \
     parameters only tests pass, resource lifecycles and reply \
     obligations; exit 1 on any error-severity finding"
  in
  let root_arg =
    Arg.(
      value & opt dir "."
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Repository root to analyze (defaults to the current directory).")
  in
  let allowlist_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "allowlist" ] ~docv:"FILE"
          ~doc:
            "Allowlist of audited exceptions, root-relative unless absolute \
             (defaults to \
             $(b,analysis.allow) under the root when present). Stale or \
             unjustified entries are themselves reported.")
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "rules" ]
          ~doc:"List every S-family rule (code, severity, title) and exit.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of text.")
  in
  (* a parse error stays on one line, however long the offending value *)
  let err = Format.formatter_of_out_channel stderr in
  Format.pp_set_margin err 10_000;
  exit
    (Cmd.eval ~err
       (Cmd.v
          (Cmd.info "msoc_analyze" ~version:"1.0.0" ~doc)
          Term.(ret (const run $ root_arg $ allowlist_arg $ list_rules_arg $ json_arg))))
