(* Mutation-style tests for the S6xx interprocedural tier: every rule
   gets seeded-mutation fixtures that must report the exact code at
   the exact line, and a near-miss fixture (the legal spelling one
   edit away) that must stay silent — plus the S406 parse-skip info
   diagnostic and the derived releaser/acquirer fixpoint. *)

module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes
module Engine = Msoc_analysis.Engine
module Project = Msoc_analysis.Project
module Callgraph = Msoc_analysis.Callgraph
module Resource = Msoc_analysis.Resource

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let with_project = Test_analysis.with_project
let fixture = Test_analysis.fixture
let show = Test_analysis.show

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let analyze = Test_analysis.analyze

let codes_of (r : Engine.report) =
  List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) r.Engine.diagnostics

let has code r = List.mem code (codes_of r)

let assert_fires ~ctx code line (r : Engine.report) =
  let hits =
    List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = code)
      r.Engine.diagnostics
  in
  checki (ctx ^ ": exactly one " ^ code ^ " — " ^ show r) 1 (List.length hits);
  match hits with
  | [ d ] ->
    checkb
      (Printf.sprintf "%s: anchored at line %d — %s" ctx line (show r))
      true
      (d.Diagnostic.location.Diagnostic.line = Some line)
  | _ -> ()

let assert_clean ~ctx (r : Engine.report) =
  checks (ctx ^ ": clean") "<clean>" (show r)

(* --- S601: resource leaks --- *)

let test_s601_leak_on_scope_end () =
  (* mutation: the close is deleted — leak reported at the acquire *)
  let r =
    analyze
      (fixture "let f path =\n  let ic = open_in path in\n  input_line ic\n")
  in
  assert_fires ~ctx:"S601 deleted close" Codes.s601 2 r;
  (* near-miss: Fun.protect ~finally releases on every path *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let ic = open_in path in\n\
         \  Fun.protect ~finally:(fun () -> close_in_noerr ic)\n\
         \    (fun () -> input_line ic)\n")
  in
  assert_clean ~ctx:"S601 protect near-miss" r;
  (* near-miss: the handle escapes by being returned — ownership moved *)
  let r =
    analyze (fixture "let f path =\n  let ic = open_in path in\n  ic\n")
  in
  assert_clean ~ctx:"S601 escape near-miss" r

let test_s601_exception_path () =
  (* the close exists, but input_line can raise first *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let ic = open_in path in\n\
         \  let x = input_line ic in\n\
         \  close_in ic;\n\
         \  x\n")
  in
  assert_fires ~ctx:"S601 exception path" Codes.s601 2 r;
  checkb "message names the risky line" true
    (contains (show r) "line 3 can raise");
  (* near-miss: a [match … with exception] catches the raise and
     releases on that path too *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let ic = open_in path in\n\
         \  match input_line ic with\n\
         \  | x -> close_in ic; Some x\n\
         \  | exception End_of_file -> close_in ic; None\n")
  in
  assert_clean ~ctx:"S601 handled-exception near-miss" r

let test_s601_nested_let () =
  (* the acquisition is bound inside another [let]'s right-hand side:
     the same exception path as at the top of a body *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let port =\n\
         \    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in\n\
         \    Unix.bind fd (Unix.ADDR_UNIX path);\n\
         \    Unix.close fd;\n\
         \    1\n\
         \  in\n\
         \  port + 1\n")
  in
  assert_fires ~ctx:"S601 nested let" Codes.s601 3 r;
  checkb "message names the risky line" true
    (contains (show r) "line 4 can raise");
  (* near-miss: Fun.protect releases on every path *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let port =\n\
         \    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in\n\
         \    Fun.protect ~finally:(fun () -> Unix.close fd)\n\
         \      (fun () -> Unix.bind fd (Unix.ADDR_UNIX path));\n\
         \    1\n\
         \  in\n\
         \  port + 1\n")
  in
  assert_clean ~ctx:"S601 nested let near-miss" r

let test_s601_branch_leak () =
  let r =
    analyze
      (fixture
         "let f path cond =\n\
         \  let ic = open_in path in\n\
         \  (if cond then close_in ic);\n\
         \  ignore ic\n")
  in
  checkb ("S601 mixed branches fire — " ^ show r) true (has Codes.s601 r)

(* --- S602: double release --- *)

let test_s602_double_release () =
  (* mutation: the close is duplicated *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let ic = open_in path in\n\
         \  close_in ic;\n\
         \  close_in ic\n")
  in
  assert_fires ~ctx:"S602 duplicated close" Codes.s602 4 r;
  (* body release plus an unconditional ~finally release *)
  let r =
    analyze
      (fixture
         "let f path =\n\
         \  let oc = open_out path in\n\
         \  Fun.protect ~finally:(fun () -> close_out oc)\n\
         \    (fun () -> output_string oc \"x\"; close_out oc)\n")
  in
  checkb ("S602 body+finally fires — " ^ show r) true (has Codes.s602 r);
  (* near-miss: conditional cleanup in ~finally is the atomic-write
     idiom, not a double release *)
  let r =
    analyze
      (fixture
         "let g dir =\n\
         \  let tmp = Filename.temp_file dir \".t\" in\n\
         \  Fun.protect\n\
         \    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)\n\
         \    (fun () -> Sys.rename tmp \"dst\")\n")
  in
  assert_clean ~ctx:"S602 conditional-finally near-miss" r

(* --- interprocedural: derived releasers and acquirers --- *)

let test_derived_releaser () =
  (* close_conn releases its parameter, so calling it IS the release *)
  let r =
    analyze
      (fixture
         "let close_conn c = Unix.close c\n\
          let f d =\n\
         \  let fd = Unix.socket d 0 0 in\n\
         \  close_conn fd\n")
  in
  assert_clean ~ctx:"derived releaser silences" r;
  (* mutation: drop the wrapper call — the observer keeps the handle
     owned here, so the leak surfaces *)
  let r =
    analyze
      (fixture
         "let close_conn c = Unix.close c\n\
          let f d =\n\
         \  let fd = Unix.socket d 0 0 in\n\
         \  ignore close_conn;\n\
         \  Unix.listen fd 8\n")
  in
  assert_fires ~ctx:"S601 without the wrapper call" Codes.s601 3 r

let test_derived_acquirer () =
  (* connect's tail is a fresh socket, so its callers own one *)
  let r =
    analyze
      (fixture
         "let connect d = Unix.socket d 0 0\n\
          let g d =\n\
         \  let fd = connect d in\n\
         \  Unix.listen fd 8\n")
  in
  assert_fires ~ctx:"S601 via derived acquirer" Codes.s601 3 r;
  let r =
    analyze
      (fixture
         "let connect d = Unix.socket d 0 0\n\
          let g d =\n\
         \  let fd = connect d in\n\
         \  Unix.close fd\n")
  in
  assert_clean ~ctx:"derived acquirer released near-miss" r

(* --- S604: reply obligation --- *)

let test_s604_missing_reply () =
  (* mutation: the error branch of a dispatch match sends nothing *)
  let r =
    analyze
      (fixture
         "let send _conn _r = ()\n\
          let request_of_line l = if l = \"\" then Error l else Ok l\n\
          let dispatch conn line =\n\
         \  match request_of_line line with\n\
         \  | Ok req -> send conn req\n\
         \  | Error e -> ignore e\n")
  in
  assert_fires ~ctx:"S604 silent branch" Codes.s604 6 r;
  (* near-miss: every branch replies *)
  let r =
    analyze
      (fixture
         "let send _conn _r = ()\n\
          let request_of_line l = if l = \"\" then Error l else Ok l\n\
          let dispatch conn line =\n\
         \  match request_of_line line with\n\
         \  | Ok req -> send conn req\n\
         \  | Error e -> send conn e\n")
  in
  assert_clean ~ctx:"S604 all branches reply" r;
  (* near-miss: handing the job to a queue transfers the obligation *)
  let r =
    analyze
      (fixture
         "let try_push _q _j = true\n\
          let request_of_line l = if l = \"\" then Error l else Ok l\n\
          let dispatch q line =\n\
         \  match request_of_line line with\n\
         \  | Ok req -> ignore (try_push q req)\n\
         \  | Error e -> ignore (try_push q e)\n")
  in
  assert_clean ~ctx:"S604 transfer near-miss" r

let test_s604_double_reply () =
  let r =
    analyze
      (fixture
         "let send _conn _r = ()\n\
          let request_of_line _l = Ok 1\n\
          let dispatch conn line =\n\
         \  match request_of_line line with\n\
         \  | Ok req ->\n\
         \    send conn req;\n\
         \    send conn req\n\
         \  | Error e -> send conn e\n")
  in
  assert_fires ~ctx:"S604 double reply" Codes.s604 7 r;
  (* near-miss: the two sends sit on different branches *)
  let r =
    analyze
      (fixture
         "let send _conn _r = ()\n\
          let request_of_line _l = Ok 1\n\
          let dispatch conn ok line =\n\
         \  match request_of_line line with\n\
         \  | Ok req -> if ok then send conn req else send conn req\n\
         \  | Error e -> send conn e\n")
  in
  assert_clean ~ctx:"S604 branch-exclusive sends" r

let test_s604_reply_through_callee () =
  (* the obligation is discharged one call away, found through the
     may-reply fixpoint *)
  let r =
    analyze
      (fixture
         "let send _conn _r = ()\n\
          let answer conn r = send conn r\n\
          let request_of_line _l = Ok 1\n\
          let dispatch conn line =\n\
         \  match request_of_line line with\n\
         \  | Ok req -> answer conn req\n\
         \  | Error e -> answer conn e\n")
  in
  assert_clean ~ctx:"S604 reply via callee" r

(* --- S605: counter balance --- *)

let test_s605_unbalanced_counter () =
  (* mutation: the decr happens on one branch only *)
  let r =
    analyze
      (fixture
         "let work () = ()\n\
          let pending = Atomic.make 0\n\
          let submit ok =\n\
         \  Atomic.incr pending;\n\
         \  if ok then begin\n\
         \    work ();\n\
         \    Atomic.decr pending\n\
         \  end\n")
  in
  assert_fires ~ctx:"S605 one-branch decr" Codes.s605 5 r;
  checkb "witness names the counter" true (contains (show r) "pending");
  (* near-miss: balanced on every path *)
  let r =
    analyze
      (fixture
         "let work () = ()\n\
          let pending = Atomic.make 0\n\
          let submit ok =\n\
         \  Atomic.incr pending;\n\
         \  (if ok then work () else work ());\n\
         \  Atomic.decr pending\n")
  in
  assert_clean ~ctx:"S605 balanced near-miss" r

let test_s605_discipline_guard () =
  (* incr-only metrics are not pair accounting *)
  let r =
    analyze
      (fixture
         "let served = Atomic.make 0\n\
          let bump ok = if ok then Atomic.incr served\n")
  in
  assert_clean ~ctx:"S605 incr-only region" r;
  (* the decr lives in a deferred closure: separate balance regions,
     each using one half — the fleet hand-off idiom *)
  let r =
    analyze
      (fixture
         "let push _q _f = ()\n\
          let pending = Atomic.make 0\n\
          let submit q f =\n\
         \  Atomic.incr pending;\n\
         \  push q (fun () -> f (); Atomic.decr pending)\n")
  in
  assert_clean ~ctx:"S605 cross-region hand-off" r

(* --- S406: parse-skip notice --- *)

let test_s406_parse_skip () =
  let r =
    analyze
      (fixture
         ~extra:
           [
             ("lib/fix/broken.ml", "let = in\n");
             ("lib/fix/broken.mli", "(* interface *)\n");
           ]
         "let f x = x + 1\n")
  in
  checki "one parse failure counted" 1 r.Engine.parse_failures;
  let s406 =
    List.filter (fun (d : Diagnostic.t) -> d.Diagnostic.code = Codes.s406)
      r.Engine.diagnostics
  in
  checki ("S406 emitted once — " ^ show r) 1 (List.length s406);
  (match s406 with
  | [ d ] ->
    checkb "S406 anchored in the broken file" true
      (d.Diagnostic.location.Diagnostic.file = Some "lib/fix/broken.ml");
    checkb "S406 carries the error line" true
      (d.Diagnostic.location.Diagnostic.line = Some 1);
    checkb "S406 is info severity" true
      (d.Diagnostic.severity = Diagnostic.Info)
  | _ -> ());
  checki "info never fails the run" 0 (Engine.exit_code r)

(* --- the catalog and rule vocabularies are what the docs say --- *)

let test_catalog () =
  checkb "Atomic pair present" true
    (List.exists
       (fun (p : Resource.counter_pair) ->
         p.Resource.inc = "Atomic.incr" && p.Resource.dec = "Atomic.decr"
         && p.Resource.full)
       Resource.counter_pairs);
  checkb "window-slot pair present" true
    (List.exists
       (fun (p : Resource.counter_pair) ->
         p.Resource.inc = "acquire_slot" && p.Resource.dec = "release_slot")
       Resource.counter_pairs)

let test_callgraph_find () =
  with_project
    (fixture "let close_conn c = Unix.close c\nlet use d = close_conn d\n")
    (fun root ->
      let p = Project.load ~root in
      let g = Callgraph.build p in
      let keys = List.map (fun (d : Callgraph.def) -> d.Callgraph.key) (Callgraph.defs g) in
      checkb "find resolves a def key" true (List.mem "lib/fix/fix.ml#close_conn" keys);
      checkb "find rejects unknown keys" true (not (List.mem "lib/fix/fix.ml#nope" keys)))

let suites =
  [
    ( "resource-rules",
      [
        Alcotest.test_case "S601 leak on scope end" `Quick
          test_s601_leak_on_scope_end;
        Alcotest.test_case "S601 exception path" `Quick
          test_s601_exception_path;
        Alcotest.test_case "S601 branch leak" `Quick test_s601_branch_leak;
        Alcotest.test_case "S601 nested let" `Quick test_s601_nested_let;
        Alcotest.test_case "S602 double release" `Quick
          test_s602_double_release;
        Alcotest.test_case "derived releaser" `Quick test_derived_releaser;
        Alcotest.test_case "derived acquirer" `Quick test_derived_acquirer;
      ] );
    ( "typestate-rules",
      [
        Alcotest.test_case "S604 missing reply" `Quick test_s604_missing_reply;
        Alcotest.test_case "S604 double reply" `Quick test_s604_double_reply;
        Alcotest.test_case "S604 reply via callee" `Quick
          test_s604_reply_through_callee;
        Alcotest.test_case "S605 unbalanced counter" `Quick
          test_s605_unbalanced_counter;
        Alcotest.test_case "S605 discipline guard" `Quick
          test_s605_discipline_guard;
      ] );
    ( "resource-driver",
      [
        Alcotest.test_case "S406 parse skip" `Quick test_s406_parse_skip;
        Alcotest.test_case "kind catalog" `Quick test_catalog;
        Alcotest.test_case "callgraph find" `Quick test_callgraph_find;
      ] );
  ]
