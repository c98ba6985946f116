(* Tests for Msoc_check (PR 2): the diagnostics engine, the .soc
   linter, the independent schedule/cost verifier (property-tested
   over random synthetic SOCs, serial and pooled), mutation tests
   proving the checker rejects corrupted schedules and figures, and
   the Packer width-audit regressions. *)

module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes
module Lint = Msoc_check.Lint
module Schedule_check = Msoc_check.Schedule_check
module Cost_check = Msoc_check.Cost_check
module Verify = Msoc_check.Verify
module Job = Msoc_tam.Job
module Pareto = Msoc_wrapper.Pareto
module Packer = Msoc_tam.Packer
module Schedule = Msoc_tam.Schedule
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Synthetic = Msoc_itc02.Synthetic
module Soc_file = Msoc_itc02.Soc_file
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan
module Pool = Msoc_util.Pool
module Export = Msoc_testplan.Export

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let codes ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) ds

let assert_code ~ctx code ds =
  checkb (Printf.sprintf "%s: expect %s in {%s}" ctx code (String.concat " " (codes ds)))
    true
    (List.mem code (codes ds))

let assert_clean ~ctx ds =
  checks (ctx ^ ": no errors") "" (Diagnostic.render_text (Diagnostic.errors ds))

(* --- diagnostics engine --- *)

let test_codes_registry () =
  let all = List.map (fun (i : Codes.info) -> i.Codes.code) Codes.all in
  checki "codes are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun code ->
      checkb (code ^ " well-formed") true
        (String.length code = 9
        && String.sub code 0 5 = "MSOC-"
        && (code.[5] = 'E' || code.[5] = 'W' || code.[5] = 'S')))
    all;
  checkb "registry holds E101" true (List.mem Codes.e101 all);
  checkb "diag takes the registered severity" true
    ((Codes.diag Codes.w101 "w").Diagnostic.severity = Diagnostic.Warning);
  checkb "unknown code is an error" true
    ((Codes.diag "MSOC-E999" "e").Diagnostic.severity = Diagnostic.Error)

let test_severity_and_filters () =
  let e = Diagnostic.make ~code:Codes.e101 ~severity:Diagnostic.Error "e" in
  let w = Diagnostic.make ~code:Codes.w101 ~severity:Diagnostic.Warning "w" in
  let i = Diagnostic.make ~code:Codes.w101 ~severity:Diagnostic.Info "i" in
  checki "errors filter" 1 (List.length (Diagnostic.errors [ e; w; i ]));
  checkb "has_errors" true (Diagnostic.has_errors [ w; e ]);
  checki "exit clean" 0 (Diagnostic.exit_code [ w; i ]);
  checki "exit dirty" 1 (Diagnostic.exit_code [ w; e ]);
  (* sort puts errors first, stable within severity *)
  match Diagnostic.sort [ i; w; e ] with
  | [ a; b; c ] ->
    checkb "sorted severities" true
      (a.Diagnostic.severity = Diagnostic.Error
      && b.Diagnostic.severity = Diagnostic.Warning
      && c.Diagnostic.severity = Diagnostic.Info)
  | _ -> Alcotest.fail "sort changed length"

let test_rendering () =
  let d =
    Diagnostic.make ~file:"x.soc" ~line:12 ~code:Codes.e301
      ~severity:Diagnostic.Error "duplicate core id 3"
  in
  checks "text format" "x.soc:12: error [MSOC-E301] duplicate core id 3"
    (Diagnostic.to_string d);
  checks "no location" "warning [MSOC-W101] empty"
    (Diagnostic.to_string
       (Diagnostic.make ~code:Codes.w101 ~severity:Diagnostic.Warning "empty"));
  let json = Export.to_string (Diagnostic.report_json [ d ]) in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "json contains %s" needle) true
        (let len = String.length needle in
         let ok = ref false in
         String.iteri
           (fun i _ ->
             if i + len <= String.length json && String.sub json i len = needle then
               ok := true)
           json;
         !ok))
    [ "\"MSOC-E301\""; "\"errors\":1"; "\"line\":12" ];
  checks "summary" "1 error" (Diagnostic.summary [ d ]);
  checks "summary clean" "no findings" (Diagnostic.summary [])

(* --- .soc lint --- *)

let test_lint_clean_roundtrip () =
  let text = Soc_file.to_string (Synthetic.p93791s ()) in
  let ds = Fixtures.lint_text text in
  assert_clean ~ctx:"p93791s" ds;
  checki "no warnings either" 0
    (List.length (List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Warning) ds))

let lint_lines lines = Fixtures.lint_text (String.concat "\n" lines)

let find_line code ds =
  List.find_map
    (fun (d : Diagnostic.t) ->
      if d.Diagnostic.code = code then d.Diagnostic.location.Diagnostic.line
      else None)
    ds

let test_lint_duplicate_id () =
  let ds =
    lint_lines
      [
        "SocName t";
        "Module 3 Name a Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 0";
        "Module 3 Name b Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 0";
      ]
  in
  assert_code ~ctx:"dup id" Codes.e301 ds;
  checkb "anchored to the second Module line" true (find_line Codes.e301 ds = Some 3)

let test_lint_duplicate_name () =
  let ds =
    lint_lines
      [
        "SocName t";
        "Module 1 Name a Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 0";
        "Module 2 Name a Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 0";
      ]
  in
  assert_code ~ctx:"dup name" Codes.e308 ds

let test_lint_field_errors () =
  let ds =
    lint_lines
      [
        "SocName t";
        "Module 1 Name a Inputs x Outputs 1 Bidirs 0 Patterns 5 ScanChains 0";
        "Module 2 Name b Outputs 1 Bidirs 0 Patterns 5 ScanChains 0";
        "Module 3 Name c Inputs 1 Outputs 1 Bidirs 0 Patterns 0 ScanChains 0";
        "Module 4 Name d Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 2 : 10";
        "Module 5 Name e Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 1 : 0";
        "Module 6 Name f Inputs 0 Outputs 0 Bidirs 0 Patterns 5 ScanChains 0";
      ]
  in
  assert_code ~ctx:"bad int" Codes.e302 ds;
  assert_code ~ctx:"missing Inputs" Codes.e303 ds;
  assert_code ~ctx:"zero patterns" Codes.e306 ds;
  assert_code ~ctx:"chain arity" Codes.e304 ds;
  assert_code ~ctx:"zero chain length" Codes.e307 ds;
  assert_code ~ctx:"no test data" Codes.e309 ds;
  checkb "patterns anchored to line 4" true (find_line Codes.e306 ds = Some 4)

let test_lint_file_level () =
  let ds =
    lint_lines
      [ "Frobnicate 1"; "SocName a"; "SocName b"; "# just a comment" ]
  in
  (* the loader refuses an unknown directive, so lint does too *)
  assert_code ~ctx:"unknown directive" Codes.e302 ds;
  checkb "unknown directive anchored to line 1" true (find_line Codes.e302 ds = Some 1);
  assert_code ~ctx:"socname redeclared" Codes.w302 ds;
  assert_code ~ctx:"no cores" Codes.w303 ds;
  checkb "the unknown directive is the one error" true
    (codes (Diagnostic.errors ds) = [ Codes.e302 ]);
  let ds = lint_lines [ "Module 1 Name a Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 0" ] in
  assert_code ~ctx:"missing SocName" Codes.e305 ds

(* Corrupt the real benchmark file, not a synthetic string: duplicate
   one of its Module lines under a fresh name and require the linter
   to flag the duplicate id on the exact appended line (PR 3
   satellite). The pristine file must lint clean first, so this fails
   loudly if the checked-in benchmark ever rots. *)
let test_lint_mutated_benchmark_file () =
  let path = "../data/p93791s.soc" in
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  assert_clean ~ctx:"pristine benchmark" (fst (Lint.load path));
  let text = if String.ends_with ~suffix:"\n" text then text else text ^ "\n" in
  let lines = String.split_on_char '\n' text in
  let module_line =
    match
      List.find_opt (fun l -> String.length l > 7 && String.sub l 0 7 = "Module ") lines
    with
    | Some l -> l
    | None -> Alcotest.fail "benchmark has no Module lines"
  in
  let duplicate =
    (* same id, fresh name: only e301 should fire, not e308 *)
    String.concat " "
      (List.mapi
         (fun i tok -> if i = 3 then "dup_core" else tok)
         (String.split_on_char ' ' module_line))
  in
  let mutated = text ^ duplicate ^ "\n" in
  let appended_line = List.length (String.split_on_char '\n' text) in
  let ds = Fixtures.lint_text mutated in
  assert_code ~ctx:"duplicate id in benchmark" Codes.e301 ds;
  checkb "no duplicate-name finding" false (List.mem Codes.e308 (codes ds));
  checkb
    (Printf.sprintf "anchored to appended line %d" appended_line)
    true
    (find_line Codes.e301 ds = Some appended_line)

let test_lint_error_free_implies_loadable () =
  let good = Soc_file.to_string (Synthetic.d281s ()) in
  assert_clean ~ctx:"d281s lints clean" (Fixtures.lint_text good);
  match Soc_file.of_string good with
  | soc -> checkb "loads" true (soc.Msoc_itc02.Types.cores <> [])
  | exception _ -> Alcotest.fail "lint-clean file failed to load"

(* --- verifier oracle: random SOCs, serial and pooled --- *)

let synthetic_problem ~seed ~tam_width =
  let profile =
    { Synthetic.n_cores = 10; target_area = 1_500_000; max_chains = 12; bottleneck = false }
  in
  let soc = Synthetic.generate ~seed ~name:(Printf.sprintf "rnd%d" seed) profile in
  let analog_cores =
    [ Catalog.find ~label:"C"; Catalog.find ~label:"D"; Catalog.find ~label:"E" ]
  in
  Problem.make ~soc ~analog_cores ~tam_width ~weight_time:0.5 ()

let test_random_socs_verify_clean () =
  List.iter
    (fun seed ->
      List.iter
        (fun tam_width ->
          let problem = synthetic_problem ~seed ~tam_width in
          let prepared = Evaluate.prepare problem in
          let reference_makespan = Evaluate.reference_makespan prepared in
          let evals = Evaluate.evaluate_many prepared (Problem.combinations problem) in
          List.iter
            (fun (ev : Evaluate.evaluation) ->
              assert_clean
                ~ctx:(Printf.sprintf "seed %d W=%d %s" seed tam_width
                        (Sharing.full_name ev.Evaluate.combination))
                (Verify.evaluation ~problem ~reference_makespan ev))
            evals)
        [ 12; 20 ])
    [ 1; 2; 3 ]

let test_random_socs_verify_clean_pooled () =
  let problem = synthetic_problem ~seed:4 ~tam_width:16 in
  let prepared = Evaluate.prepare problem in
  let reference_makespan = Evaluate.reference_makespan prepared in
  let evals =
    Pool.with_pool ~jobs:3 (fun pool ->
        Evaluate.evaluate_many ~pool prepared (Problem.combinations problem))
  in
  List.iter
    (fun (ev : Evaluate.evaluation) ->
      assert_clean ~ctx:"pooled evaluation"
        (Verify.evaluation ~problem ~reference_makespan ev))
    evals

let test_full_plans_verify_clean () =
  List.iter
    (fun search ->
      let plan =
        Plan.run ~search (Fixtures.d281m ~tam_width:16 ())
      in
      assert_clean ~ctx:"d281m plan" (Verify.plan plan))
    [ Plan.Exhaustive_search; Plan.Heuristic { delta = 0.0 } ]

(* --- mutation tests: the checker must reject corrupted data --- *)

let d281_best () =
  let problem = Fixtures.d281m ~tam_width:16 () in
  let prepared = Evaluate.prepare problem in
  let full = Sharing.full_sharing problem.Problem.analog_cores in
  (problem, Evaluate.reference_makespan prepared, Evaluate.evaluate prepared full)

let test_mutation_shifted_rectangle () =
  let problem, reference_makespan, ev = d281_best () in
  let s = ev.Evaluate.schedule in
  (* find two placements sharing a wire and shift the later one onto
     the earlier: a silent double-booking the checker must catch *)
  let shares_wire a b =
    List.exists (fun w -> List.mem w b.Schedule.wires) a.Schedule.wires
  in
  let pair =
    List.find_map
      (fun a ->
        List.find_map
          (fun b ->
            if a != b && shares_wire a b && a.Schedule.start >= b.Schedule.start + b.Schedule.time
            then Some (a, b)
            else None)
          s.Schedule.placements)
      s.Schedule.placements
  in
  match pair with
  | None -> Alcotest.fail "instance too sparse: no wire carries two placements"
  | Some (a, b) ->
    let corrupted =
      {
        s with
        Schedule.placements =
          List.map
            (fun p -> if p == a then { p with Schedule.start = b.Schedule.start } else p)
            s.Schedule.placements;
      }
    in
    let ds =
      Verify.evaluation ~problem ~reference_makespan
        { ev with Evaluate.schedule = corrupted }
    in
    assert_code ~ctx:"shifted rectangle" Codes.e101 ds;
    checkb "is an error" true (Diagnostic.has_errors ds)

let test_mutation_wrapper_overlap () =
  let _problem, _reference_makespan, ev = d281_best () in
  let s = ev.Evaluate.schedule in
  (* under full sharing every analog test sits in exclusion group 0
     and is strictly serialized; collapse two onto the same start *)
  let analog =
    List.filter
      (fun p -> p.Schedule.job.Job.exclusion <> None)
      s.Schedule.placements
  in
  match analog with
  | first :: second :: _ ->
    let corrupted =
      {
        s with
        Schedule.placements =
          List.map
            (fun p ->
              if p == second then { p with Schedule.start = first.Schedule.start }
              else p)
            s.Schedule.placements;
      }
    in
    let ds =
      Schedule_check.run ~reported_makespan:(Schedule.makespan corrupted) corrupted
    in
    assert_code ~ctx:"wrapper-sharing overlap" Codes.e106 ds
  | _ -> Alcotest.fail "expected at least two analog placements"

let test_mutation_reported_figures () =
  let problem, reference_makespan, ev = d281_best () in
  let ds =
    Verify.evaluation ~problem ~reference_makespan
      { ev with Evaluate.makespan = ev.Evaluate.makespan + 1 }
  in
  assert_code ~ctx:"reported makespan" Codes.e204 ds;
  assert_code ~ctx:"reported makespan (schedule pass)" Codes.e112 ds;
  let ds =
    Verify.evaluation ~problem ~reference_makespan
      { ev with Evaluate.c_a = ev.Evaluate.c_a +. 5.0 }
  in
  assert_code ~ctx:"corrupted C_A" Codes.e201 ds;
  let ds =
    Verify.evaluation ~problem ~reference_makespan
      { ev with Evaluate.cost = ev.Evaluate.cost +. 1.0 }
  in
  assert_code ~ctx:"corrupted total cost" Codes.e203 ds;
  let ds =
    Verify.evaluation ~problem ~reference_makespan
      { ev with Evaluate.c_t = ev.Evaluate.c_t *. 1.5 }
  in
  assert_code ~ctx:"corrupted C_T" Codes.e202 ds;
  assert_clean ~ctx:"uncorrupted baseline"
    (Verify.evaluation ~problem ~reference_makespan ev)

let test_mutation_dropped_and_duplicated () =
  let problem, reference_makespan, ev = d281_best () in
  let s = ev.Evaluate.schedule in
  let dropped =
    { s with Schedule.placements = List.tl s.Schedule.placements }
  in
  assert_code ~ctx:"dropped test" Codes.e108
    (Verify.evaluation ~problem ~reference_makespan
       { ev with
         Evaluate.schedule = dropped;
         makespan = Schedule.makespan dropped;
       });
  let duplicated =
    {
      s with
      Schedule.placements = List.hd s.Schedule.placements :: s.Schedule.placements;
    }
  in
  assert_code ~ctx:"duplicated test" Codes.e107
    (Verify.evaluation ~problem ~reference_makespan
       { ev with Evaluate.schedule = duplicated })

let test_mutation_forged_staircase () =
  let problem, reference_makespan, ev = d281_best () in
  let s = ev.Evaluate.schedule in
  (* halve core c7's test and give its placement's job record a
     staircase holding the halved point: only the expected job set,
     re-derived from the problem, still knows c7's real staircase *)
  let forge (p : Schedule.placement) =
    if p.Schedule.job.Job.label <> "c7" then p
    else
      let time = p.Schedule.time / 2 in
      let staircase = Pareto.fixed ~width:p.Schedule.width ~time in
      { p with Schedule.time; job = { p.Schedule.job with Job.staircase } }
  in
  let forged = { s with Schedule.placements = List.map forge s.Schedule.placements } in
  checkb "c7 is placed" true (forged <> s);
  assert_code ~ctx:"forged staircase" Codes.e110
    (Verify.evaluation ~problem ~reference_makespan
       { ev with Evaluate.schedule = forged })

let test_capacity_check_is_independent_of_wires () =
  (* a schedule whose wire lists look disjoint but whose widths cannot
     fit: the sweep (E102) must catch what the wire check cannot *)
  let job w label = Job.analog ~label ~width:w ~time:10 ~group:0 in
  let p label w wires =
    {
      Schedule.job = { (job w label) with Job.exclusion = None };
      start = 0;
      width = w;
      time = 10;
      wires;
    }
  in
  let s =
    {
      Schedule.total_width = 4;
      power_budget = None;
      placements = [ p "a" 3 [ 0; 1; 2 ]; p "b" 3 [ 1; 2; 3 ] ];
    }
  in
  let ds = Schedule_check.run s in
  assert_code ~ctx:"overcommitted width" Codes.e102 ds;
  (* and the wire double-booking is reported independently *)
  assert_code ~ctx:"shared wire" Codes.e101 ds

(* --- Packer width audit (satellite): over-wide jobs must raise --- *)

let wide_job = Job.analog ~label:"wide" ~width:40 ~time:100 ~group:0

let narrow_job = Job.analog ~label:"narrow" ~width:2 ~time:50 ~group:1

let assert_infeasible ~ctx f =
  match f () with
  | (_ : Schedule.t) -> Alcotest.fail (ctx ^ ": over-wide job was packed")
  | exception Packer.Infeasible msg ->
    checkb (ctx ^ ": message names the job") true
      (let needle = "wide" in
       let len = String.length needle in
       let ok = ref false in
       String.iteri
         (fun i _ ->
           if i + len <= String.length msg && String.sub msg i len = needle then
             ok := true)
         msg;
       !ok)

let test_packer_rejects_overwide_jobs () =
  assert_infeasible ~ctx:"pack" (fun () ->
      Packer.pack ~width:16 [ narrow_job; wide_job ]);
  assert_infeasible ~ctx:"pack_optimized" (fun () ->
      Packer.pack_optimized ~width:16 [ narrow_job; wide_job ]);
  assert_infeasible ~ctx:"anneal" (fun () ->
      Packer.anneal ~width:16 [ narrow_job; wide_job ])

let test_packer_accepts_exact_width () =
  let s = Packer.pack ~width:40 [ wide_job; narrow_job ] in
  assert_clean ~ctx:"exact-width pack"
    (Schedule_check.run ~expected:[ wide_job; narrow_job ]
       ~reported_makespan:(Schedule.makespan s) s)

let suites =
  [
    ( "check-diagnostics",
      [
        Alcotest.test_case "code registry" `Quick test_codes_registry;
        Alcotest.test_case "severity and filters" `Quick test_severity_and_filters;
        Alcotest.test_case "text and json rendering" `Quick test_rendering;
      ] );
    ( "check-lint",
      [
        Alcotest.test_case "p93791s round-trip lints clean" `Quick
          test_lint_clean_roundtrip;
        Alcotest.test_case "duplicate id" `Quick test_lint_duplicate_id;
        Alcotest.test_case "duplicate name" `Quick test_lint_duplicate_name;
        Alcotest.test_case "field errors" `Quick test_lint_field_errors;
        Alcotest.test_case "file-level findings" `Quick test_lint_file_level;
        Alcotest.test_case "error-free implies loadable" `Quick
          test_lint_error_free_implies_loadable;
        Alcotest.test_case "mutated benchmark file is caught" `Quick
          test_lint_mutated_benchmark_file;
      ] );
    ( "check-oracle",
      [
        Alcotest.test_case "random SOCs verify clean" `Slow
          test_random_socs_verify_clean;
        Alcotest.test_case "pooled evaluation verifies clean" `Slow
          test_random_socs_verify_clean_pooled;
        Alcotest.test_case "full plans verify clean" `Slow
          test_full_plans_verify_clean;
      ] );
    ( "check-mutations",
      [
        Alcotest.test_case "shifted rectangle is caught" `Quick
          test_mutation_shifted_rectangle;
        Alcotest.test_case "wrapper-sharing overlap is caught" `Quick
          test_mutation_wrapper_overlap;
        Alcotest.test_case "corrupted figures are caught" `Quick
          test_mutation_reported_figures;
        Alcotest.test_case "dropped and duplicated tests are caught" `Quick
          test_mutation_dropped_and_duplicated;
        Alcotest.test_case "capacity check independent of wire lists" `Quick
          test_capacity_check_is_independent_of_wires;
        Alcotest.test_case "forged staircase is caught" `Quick
          test_mutation_forged_staircase;
      ] );
    ( "packer-width-audit",
      [
        Alcotest.test_case "over-wide jobs raise Infeasible" `Quick
          test_packer_rejects_overwide_jobs;
        Alcotest.test_case "exact-width job packs and verifies" `Quick
          test_packer_accepts_exact_width;
      ] );
  ]
