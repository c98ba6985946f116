(* Rendering is delegated to Msoc_check.Diagnostic — one schema for
   the plan verifier and the source analyzer (code, severity, file,
   line, message), so CI annotators and scripts parse both with the
   same code. This module only adds the analyzer's envelope fields. *)

module Diagnostic = Msoc_check.Diagnostic
module Export = Msoc_testplan.Export

let to_text (r : Engine.report) =
  let findings = Diagnostic.render_text r.Engine.diagnostics in
  let suppressed =
    if r.Engine.suppressed = 0 then ""
    else
      Printf.sprintf ", %d suppressed by %s" r.Engine.suppressed
        (Option.value r.Engine.allowlist_path ~default:"allowlist")
  in
  let degraded =
    if r.Engine.parse_failures = 0 then ""
    else
      Printf.sprintf ", %d unparsable (skipped)"
        r.Engine.parse_failures
  in
  Printf.sprintf "%sanalyze: %s (%d files%s%s, %.0f ms)\n" findings
    (Diagnostic.summary r.Engine.diagnostics)
    r.Engine.files_scanned suppressed degraded
    (r.Engine.elapsed_s *. 1000.)

let to_json (r : Engine.report) =
  match Diagnostic.report_json r.Engine.diagnostics with
  | Export.Object fields ->
    Export.Object
      (fields
      @ [
          ("files_scanned", Export.Int r.Engine.files_scanned);
          ("suppressed", Export.Int r.Engine.suppressed);
          ("parse_failures", Export.Int r.Engine.parse_failures);
          ("elapsed_ms", Export.Float (r.Engine.elapsed_s *. 1000.));
          ( "allowlist",
            match r.Engine.allowlist_path with
            | Some p -> Export.String p
            | None -> Export.Null );
        ])
  | json -> json
