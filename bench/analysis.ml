(* analyze: the source analyzer over the repo's own tree, timed (PR 7,
   parallel driver PR 10).

   Runs the full Msoc_analysis engine (every rule over the parsed
   tree) over lib/ bin/ test/ bench/ four times: a cold serial pass
   that parses every module, a warm serial pass served from the AST
   content-hash cache, and two parallel passes at [jobs] workers.
   Reports wall time, cache traffic and findings; asserts the parallel
   findings are byte-identical to serial, fails if the cold pass blows
   the 10 s budget the test suite also enforces (test_semantic.ml,
   "full run under budget"), and — on machines with at least two
   cores — gates on the warm parallel speedup.

   Writes BENCH_analyze.json so CI can archive and assert on the run. *)

module Engine = Msoc_analysis.Engine
module Ast = Msoc_analysis.Ast
module Diagnostic = Msoc_check.Diagnostic
module Table = Msoc_util.Ascii_table
module Export = Msoc_testplan.Export

let budget_s = 10.0

let jobs = 4

(* warm parallel speedup gate, on machines with at least two cores *)
let min_speedup = 2.0

let run () =
  Printf.printf "\n=== analyze: source analyzer wall time (PR 7/10) ===\n\n";
  let root = "." in
  let cores = Domain.recommended_domain_count () in
  Ast.reset_cache_stats ();
  let cold = Engine.run ~root () in
  let cold_hits, cold_misses = Ast.cache_stats () in
  let warm = Engine.run ~root () in
  let warm_hits, warm_misses = Ast.cache_stats () in
  let par_cold = Engine.run ~jobs ~root () in
  let par = Engine.run ~jobs ~root () in
  let errors r =
    List.length
      (List.filter
         (fun d -> d.Diagnostic.severity = Diagnostic.Error)
         r.Engine.diagnostics)
  in
  let columns =
    [
      Table.column "pass";
      Table.column ~align:Table.Right "jobs";
      Table.column ~align:Table.Right "files";
      Table.column ~align:Table.Right "wall time";
      Table.column ~align:Table.Right "ast hits";
      Table.column ~align:Table.Right "ast misses";
      Table.column ~align:Table.Right "findings";
      Table.column ~align:Table.Right "suppressed";
    ]
  in
  let row name (r : Engine.report) hits misses =
    [
      name;
      string_of_int r.Engine.jobs;
      string_of_int r.Engine.files_scanned;
      Printf.sprintf "%.0f ms" (r.Engine.elapsed_s *. 1000.);
      string_of_int hits;
      string_of_int misses;
      string_of_int (List.length r.Engine.diagnostics);
      string_of_int r.Engine.suppressed;
    ]
  in
  Table.print ~columns
    ~rows:
      [
        row "cold serial" cold cold_hits cold_misses;
        row "warm serial" warm (warm_hits - cold_hits)
          (warm_misses - cold_misses);
        row "warm parallel" par 0 0;
      ];
  Printf.printf "\nparse failures (skipped by every rule): %d\n"
    cold.Engine.parse_failures;
  let identical =
    Diagnostic.render_text warm.Engine.diagnostics
    = Diagnostic.render_text par.Engine.diagnostics
    && warm.Engine.suppressed = par.Engine.suppressed
  in
  Printf.printf "parallel findings bit-identical to serial: %s\n"
    (if identical then "yes" else "NO");
  let speedup =
    if par.Engine.elapsed_s > 0. then warm.Engine.elapsed_s /. par.Engine.elapsed_s
    else 0.
  in
  Printf.printf "warm speedup at %d jobs on %d cores: %.2fx\n" jobs cores
    speedup;
  let gate_active = cores >= 2 in
  if not gate_active then
    Printf.printf "speedup gate skipped: single-core machine\n";
  let json =
    Export.Object
      [
        ("files_scanned", Export.Int cold.Engine.files_scanned);
        ("parse_failures", Export.Int cold.Engine.parse_failures);
        ("findings", Export.Int (List.length cold.Engine.diagnostics));
        ("suppressed", Export.Int cold.Engine.suppressed);
        ("cores", Export.Int cores);
        ("jobs", Export.Int jobs);
        ("cold_serial_s", Export.Float cold.Engine.elapsed_s);
        ("warm_serial_s", Export.Float warm.Engine.elapsed_s);
        ("cold_parallel_s", Export.Float par_cold.Engine.elapsed_s);
        ("warm_parallel_s", Export.Float par.Engine.elapsed_s);
        ("speedup", Export.Float speedup);
        ("bit_identical", Export.Bool identical);
        ("speedup_gate_active", Export.Bool gate_active);
        ("min_speedup", Export.Float min_speedup);
      ]
  in
  let path = "BENCH_analyze.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Export.to_string json ^ "\n"));
  Printf.printf "wrote %s\n%!" path;
  if not identical then
    failwith "analyze bench: parallel findings differ from serial";
  if errors cold > 0 then
    failwith "analyze bench: error-severity findings survived the allowlist";
  if cold.Engine.elapsed_s > budget_s then
    failwith
      (Printf.sprintf "analyze bench: cold run took %.1f s (budget %.0f s)"
         cold.Engine.elapsed_s budget_s);
  if gate_active && speedup < min_speedup then
    failwith
      (Printf.sprintf
         "analyze bench: warm speedup %.2fx below the %.1fx gate (%d jobs, %d \
          cores)"
         speedup min_speedup jobs cores);
  Printf.printf "cold run within %.0f s budget: ok\n" budget_s
