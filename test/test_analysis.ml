(* Mutation-style tests for Msoc_analysis: each fixture is a minimal
   project with exactly one seeded violation, and the test asserts the
   exact MSOC-S* code and line the analyzer reports — plus negative
   fixtures proving the rule does NOT fire on the legal spelling, and
   a final test that the checked-in tree itself analyzes clean. *)

module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes
module Engine = Msoc_analysis.Engine
module Allowlist = Msoc_analysis.Allowlist

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- fixture projects on disk --- *)

let rec mkdirs path =
  if path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdirs (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let fixture_counter = ref 0

(* Build a throwaway project tree, run [f root], always clean up. *)
let with_project files f =
  incr fixture_counter;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc_analysis_fix_%d_%d" (Unix.getpid ())
         !fixture_counter)
  in
  mkdirs root;
  List.iter
    (fun (rel, text) ->
      let abs = Filename.concat root rel in
      mkdirs (Filename.dirname abs);
      write_file abs text)
    files;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let clean_dune =
  "(library\n\
  \ (name fix)\n\
  \ (flags\n\
  \  (:standard -w +a-4-40-41-42-44-45-70 -warn-error +a)))\n"

(* One library module named [fix], interface present, stanza carrying
   the required flags — so only the seeded violation can fire. *)
let fixture ?(mli = true) ?(dune = clean_dune) ?(extra = []) body =
  [ ("lib/fix/dune", dune); ("lib/fix/fix.ml", body) ]
  @ (if mli then [ ("lib/fix/fix.mli", "(* fixture interface *)\n") ] else [])
  @ extra

(* Each fixture seeds one violation, so it reports exactly one
   finding. *)
let analyze files = with_project files (fun root -> Engine.run ~root ())

let codes_of (r : Engine.report) =
  List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) r.Engine.diagnostics

let show (r : Engine.report) =
  match Diagnostic.render_text r.Engine.diagnostics with
  | "" -> "<clean>"
  | text -> text

(* The fixture reports exactly one finding: [code] at [line]. *)
let assert_only ~ctx code line (r : Engine.report) =
  checki (ctx ^ ": one finding — " ^ show r) 1
    (List.length r.Engine.diagnostics);
  match r.Engine.diagnostics with
  | [ d ] ->
    checks (ctx ^ ": code") code d.Diagnostic.code;
    checkb (ctx ^ ": line") true (d.Diagnostic.location.Diagnostic.line = Some line);
    checkb
      (ctx ^ ": file anchor")
      true
      (d.Diagnostic.location.Diagnostic.file = Some "lib/fix/fix.ml")
  | _ -> Alcotest.fail (ctx ^ ": expected exactly one finding")

let assert_clean ~ctx (r : Engine.report) =
  checks (ctx ^ ": clean") "<clean>" (show r)

(* --- S1xx concurrency --- *)

let test_s101_mutable_state () =
  let r =
    analyze
      (fixture "let helper x = x + 1\nlet table = Hashtbl.create 16\nlet find k = Hashtbl.find_opt table k\n")
  in
  assert_only ~ctx:"S101 Hashtbl" Codes.s101 2 r;
  let r =
    analyze (fixture "let counter = ref 0\nlet bump () = incr counter\n")
  in
  assert_only ~ctx:"S101 ref" Codes.s101 1 r

let test_s101_negatives () =
  (* a Mutex anywhere in the file marks the state as guarded *)
  let r =
    analyze
      (fixture
         "let lock = Mutex.create ()\nlet table = Hashtbl.create 16\nlet find k = Mutex.lock lock; Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> Hashtbl.find_opt table k)\n")
  in
  assert_clean ~ctx:"S101 guarded" r;
  (* local bindings are indented: never module-level state *)
  let r =
    analyze (fixture "let f xs =\n  let seen = Hashtbl.create 8 in\n  List.filter (fun x -> not (Hashtbl.mem seen x)) xs\n")
  in
  assert_clean ~ctx:"S101 local binding" r

(* S502 judges the lock-pairing fixtures (MSOC-S102 is retired). *)
let test_s102_lock_pairing () =
  let r =
    analyze
      (fixture
         "let work () = ()\n\nlet unsafe m =\n  Mutex.lock m;\n  work ()\n")
  in
  assert_only ~ctx:"S102 unpaired" Codes.s502 4 r;
  let r =
    analyze
      (fixture
         "let work () = ()\n\nlet safe m =\n  Mutex.lock m;\n  Fun.protect ~finally:(fun () -> Mutex.unlock m) work\n")
  in
  assert_clean ~ctx:"S102 Fun.protect pairing" r

(* --- S2xx exception safety --- *)

let test_s201_catch_all () =
  let r = analyze (fixture "let f g x =\n  try g x with _ -> 0\n") in
  assert_only ~ctx:"S201 try catch-all" Codes.s201 2 r;
  (* a match wildcard is exhaustiveness, not exception swallowing *)
  let r = analyze (fixture "let h x = match x with _ -> 0\n") in
  assert_clean ~ctx:"S201 match wildcard" r;
  let r =
    analyze
      (fixture "let f g x =\n  match g x with\n  | v -> v\n  | exception _ -> 0\n")
  in
  assert_only ~ctx:"S201 exception wildcard" Codes.s201 4 r

let test_s202_s203_s204 () =
  let r =
    analyze (fixture "let get = function Some x -> x | None -> assert false\n")
  in
  assert_only ~ctx:"S202 assert false" Codes.s202 1 r;
  let r = analyze (fixture "let die () = exit 1\n") in
  assert_only ~ctx:"S203 exit" Codes.s203 1 r;
  let r = analyze (fixture "let boom () = failwith \"unsupported\"\n") in
  assert_only ~ctx:"S204 failwith" Codes.s204 1 r;
  (* assert with a real predicate is fine *)
  let r = analyze (fixture "let f x = assert (x >= 0); x + 1\n") in
  assert_clean ~ctx:"S202 guarded assert" r

(* --- S3xx API hygiene --- *)

let test_s301_missing_mli () =
  let r = analyze (fixture ~mli:false "let f x = x + 1\n") in
  assert_only ~ctx:"S301" Codes.s301 1 r

let test_s302_dune_flags () =
  let r =
    analyze (fixture ~dune:"(library\n (name fix))\n" "let f x = x + 1\n")
  in
  checki ("S302: one per missing flag — " ^ show r) 2
    (List.length r.Engine.diagnostics);
  List.iter
    (fun (d : Diagnostic.t) ->
      checks "S302 code" Codes.s302 d.Diagnostic.code;
      checkb "S302 anchored at stanza" true
        (d.Diagnostic.location.Diagnostic.line = Some 1))
    r.Engine.diagnostics

let test_s303_stdout () =
  let r = analyze (fixture "let hello () = print_endline \"hi\"\n") in
  assert_only ~ctx:"S303 print_endline" Codes.s303 1 r;
  (* formatter-directed printing is not stdout printing *)
  let r =
    analyze (fixture "let pp fmt s = Format.pp_print_string fmt s\n")
  in
  assert_clean ~ctx:"S303 pp_print_string" r

let test_masking () =
  (* violation tokens inside comments and strings never fire *)
  let r =
    analyze
      (fixture
         "(* failwith exit print_endline Hashtbl.create *)\nlet s = \"assert false\"\nlet f x = ignore s; x\n")
  in
  assert_clean ~ctx:"masked tokens" r

(* --- spellings only the Parsetree reads right --- *)

let test_ast_spellings () =
  (* a binding split over two lines *)
  let r = analyze (fixture "let table =\n  Hashtbl.create 16\n") in
  assert_only ~ctx:"S101 two-line binding" Codes.s101 1 r;
  (* a function returning a fresh container holds no state *)
  let r = analyze (fixture "let make () = Hashtbl.create 16\n") in
  assert_clean ~ctx:"S101 factory function" r;
  (* a handler on its own line, and after another handler *)
  let r = analyze (fixture "let f g x =\n  try g x with\n  | _ -> 0\n") in
  assert_only ~ctx:"S201 handler on its own line" Codes.s201 3 r;
  let r = analyze (fixture "let f g x = try g x with Not_found -> 1 | _ -> 0\n") in
  assert_only ~ctx:"S201 second handler" Codes.s201 1 r;
  (* parenthesized *)
  let r = analyze (fixture "let f () = assert (false)\n") in
  assert_only ~ctx:"S202 assert (false)" Codes.s202 1 r;
  (* a record field named exit is no call *)
  let r = analyze (fixture "type t = { exit : int }\nlet code t = t.exit\n") in
  assert_clean ~ctx:"S203 field named exit" r

(* --- allowlist --- *)

let failing_fixture = fixture "let boom () = failwith \"unsupported\"\n"

let with_allow allow = failing_fixture @ [ ("analysis.allow", allow) ]

let test_allowlist_suppresses () =
  let r =
    analyze
      (with_allow "MSOC-S204 lib/fix/fix.ml # documented raising contract\n")
  in
  assert_clean ~ctx:"allowlist suppress" r;
  checki "one suppressed" 1 r.Engine.suppressed;
  checkb "allowlist recorded" true
    (r.Engine.allowlist_path = Some "analysis.allow");
  (* a :line anchor narrows the suppression *)
  let r = analyze (with_allow "MSOC-S204 lib/fix/fix.ml:1 # anchored\n") in
  assert_clean ~ctx:"allowlist line anchor" r;
  let r = analyze (with_allow "MSOC-S204 lib/fix/fix.ml:9 # wrong line\n") in
  checkb ("wrong line keeps finding + stale — " ^ show r) true
    (List.mem Codes.s204 (codes_of r) && List.mem Codes.s401 (codes_of r))

let test_allowlist_audit () =
  (* stale entry: matched nothing -> S401 warning, anchored in the allowlist *)
  let r =
    analyze
      (with_allow
         "MSOC-S204 lib/fix/fix.ml # real\nMSOC-S303 lib/fix/fix.ml # stale\n")
  in
  checkb ("stale -> S401 — " ^ show r) true (codes_of r = [ Codes.s401 ]);
  (match r.Engine.diagnostics with
  | [ d ] ->
    checkb "S401 anchored in allowlist" true
      (d.Diagnostic.location.Diagnostic.file = Some "analysis.allow"
      && d.Diagnostic.location.Diagnostic.line = Some 2)
  | _ -> Alcotest.fail "expected exactly the S401 audit finding");
  (* missing justification -> S402, but the entry still suppresses *)
  let r = analyze (with_allow "MSOC-S204 lib/fix/fix.ml\n") in
  checkb ("unjustified -> S402 — " ^ show r) true
    (codes_of r = [ Codes.s402 ]);
  checki "still suppresses" 1 r.Engine.suppressed;
  (* malformed line -> S403 error, so the gate fails loudly *)
  let r = analyze (with_allow "not a valid entry\n") in
  checkb ("malformed -> S403 — " ^ show r) true
    (List.mem Codes.s403 (codes_of r));
  checki "S403 is an error" 1 (Engine.exit_code r)

let test_exit_contract () =
  let r = analyze failing_fixture in
  checki "errors exit 1" 1 (Engine.exit_code r);
  (* warnings alone (S202) keep exit 0 *)
  let r =
    analyze (fixture "let get = function Some x -> x | None -> assert false\n")
  in
  checki "warnings exit 0" 0 (Engine.exit_code r);
  checki "clean exit 0" 0 (Engine.exit_code (analyze (fixture "let f x = x\n")))

(* --- the repository analyzes clean --- *)

(* dune runs tests from _build/default/test; the (source_tree ...) and
   analysis.allow deps in test/dune materialize the real tree at
   [..] so the shipped sources gate themselves. One cold run over the
   whole tree also holds the analyzer to its 10 s budget. *)
let test_tree_is_clean () =
  let r = Engine.run ~root:".." () in
  checkb "repo tree has libs" true (r.Engine.files_scanned > 50);
  checks "repo tree analyzes clean" "<clean>" (show r);
  checki "repo exit 0" 0 (Engine.exit_code r);
  checkb "repo allowlist loaded" true (r.Engine.allowlist_path <> None);
  checki "every module parses" 0 r.Engine.parse_failures;
  checkb
    (Printf.sprintf "full run in %.1f s (< 10 s budget)" r.Engine.elapsed_s)
    true (r.Engine.elapsed_s < 10.0)

let suites =
  [
    ( "analysis-rules",
      [
        Alcotest.test_case "S101 module-level mutable state" `Quick
          test_s101_mutable_state;
        Alcotest.test_case "S101 negatives" `Quick
          test_s101_negatives;
        Alcotest.test_case "S102 lock pairing" `Quick test_s102_lock_pairing;
        Alcotest.test_case "S201 catch-all" `Quick test_s201_catch_all;
        Alcotest.test_case "S202/S203/S204 lib safety" `Quick
          test_s202_s203_s204;
        Alcotest.test_case "S301 missing mli" `Quick test_s301_missing_mli;
        Alcotest.test_case "S302 dune flags" `Quick test_s302_dune_flags;
        Alcotest.test_case "S303 stdout in lib" `Quick test_s303_stdout;
        Alcotest.test_case "masking" `Quick test_masking;
        Alcotest.test_case "AST-only spellings" `Quick test_ast_spellings;
      ] );
    ( "analysis-allowlist",
      [
        Alcotest.test_case "suppression" `Quick test_allowlist_suppresses;
        Alcotest.test_case "audit codes" `Quick test_allowlist_audit;
        Alcotest.test_case "exit contract" `Quick test_exit_contract;
      ] );
    ( "analysis-dogfood",
      [ Alcotest.test_case "tree analyzes clean" `Quick test_tree_is_clean ] );
  ]
