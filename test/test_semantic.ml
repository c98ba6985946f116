(* Mutation-style tests for the S5xx semantic tier: every rule gets a
   firing fixture and a near-miss (the legal spelling one edit away),
   plus seeded mutations of the real lib/serve sources proving the
   analyzer catches the concurrency bugs it was built for, hash-anchor
   allowlist coverage, the quoted-string regression, and the call-graph
   closure against the fixpoints it replaced. *)

module Diagnostic = Msoc_check.Diagnostic
module Codes = Msoc_check.Codes
module Engine = Msoc_analysis.Engine
module Allowlist = Msoc_analysis.Allowlist
module Source = Msoc_analysis.Source
module Project = Msoc_analysis.Project
module Callgraph = Msoc_analysis.Callgraph
module Flow = Msoc_analysis.Flow
module Syntax = Msoc_analysis.Syntax
module Typestate = Msoc_analysis.Typestate

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let with_project = Test_analysis.with_project
let fixture = Test_analysis.fixture
let show = Test_analysis.show

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
      (ctx ^ ": line anchor")
      true
      (d.Diagnostic.location.Diagnostic.line = Some line)
  | _ -> ()

let assert_clean ~ctx (r : Engine.report) =
  checks (ctx ^ ": clean") "<clean>" (show r)

(* --- S502: lock not released on all exception paths --- *)

let test_s502_exception_paths () =
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let bad xs =\n\
         \  Mutex.lock m;\n\
         \  let v = List.hd xs in\n\
         \  Mutex.unlock m;\n\
          \  v\n")
  in
  assert_fires ~ctx:"S502 raising critical section" Codes.s502 3 r;
  (* Fun.protect dominates the unlock: clean *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let good xs =\n\
         \  Mutex.lock m;\n\
         \  Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> List.hd xs)\n")
  in
  assert_clean ~ctx:"S502 Fun.protect" r;
  (* Mutex.protect: clean *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let good xs = Mutex.protect m (fun () -> List.hd xs)\n")
  in
  assert_clean ~ctx:"S502 Mutex.protect" r;
  (* exception-free prefix up to the unlock: clean *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let flag = ref false\n\
          let set () =\n\
         \  Mutex.lock m;\n\
         \  flag := true;\n\
         \  Mutex.unlock m\n")
  in
  assert_clean ~ctx:"S502 safe prefix" r

(* --- S503: Atomic check-then-act --- *)

let test_s503_check_then_act () =
  let r =
    analyze
      (fixture
         "let hits = Atomic.make 0\n\
          let bump () =\n\
         \  let v = Atomic.get hits in\n\
         \  Atomic.set hits (v + 1)\n")
  in
  (* anchored at the act (the Atomic.set), line 4 *)
  assert_fires ~ctx:"S503 get-then-set" Codes.s503 4 r;
  (* the get as the set's own argument: the lost update on one line *)
  let r =
    analyze
      (fixture
         "let hits = Atomic.make 0\n\
          let bump () = Atomic.set hits (Atomic.get hits + 1)\n")
  in
  assert_fires ~ctx:"S503 one-line get-then-set" Codes.s503 2 r;
  (* a compare_and_set loop on the same atomic: clean *)
  let r =
    analyze
      (fixture
         "let hits = Atomic.make 0\n\
          let rec bump () =\n\
         \  let v = Atomic.get hits in\n\
         \  if not (Atomic.compare_and_set hits v (v + 1)) then bump ()\n")
  in
  assert_clean ~ctx:"S503 CAS loop" r;
  (* get and set on different atomics: clean *)
  let r =
    analyze
      (fixture
         "let a = Atomic.make 0\n\
          let b = Atomic.make 0\n\
          let copy () =\n\
         \  let v = Atomic.get a in\n\
         \  Atomic.set b v\n")
  in
  assert_clean ~ctx:"S503 distinct atomics" r

(* --- S504: blocking call while a lock is held --- *)

let test_s504_blocking_under_lock () =
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let nap () = Mutex.protect m (fun () -> Thread.delay 0.1)\n")
  in
  assert_fires ~ctx:"S504 direct" Codes.s504 2 r;
  (* transitive: the blocking primitive is one call away *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let slow () = Thread.delay 0.1\n\
          let f () = Mutex.protect m (fun () -> slow ())\n")
  in
  assert_fires ~ctx:"S504 transitive" Codes.s504 3 r;
  (* Condition.wait releases its mutex while waiting: not blocking *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let c = Condition.create ()\n\
          let flag = ref false\n\
          let wait () =\n\
         \  Mutex.protect m (fun () ->\n\
         \      while not !flag do Condition.wait c m done)\n")
  in
  assert_clean ~ctx:"S504 Condition.wait" r;
  (* whitelisted Unix call (no I/O wait): clean *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let stamp = ref 0.0\n\
          let f () = Mutex.protect m (fun () -> stamp := Unix.gettimeofday ())\n")
  in
  assert_clean ~ctx:"S504 gettimeofday" r

(* --- S505: dead exported API --- *)

let test_s505_dead_api () =
  let mli = "val used : int -> int\nval dead : int -> int\n" in
  let body = "let used x = x + 1\nlet dead x = x - 1\n" in
  let user =
    [ ("lib/fix/other.ml", "let f x = Fix.used x\n");
      ("lib/fix/other.mli", "val f : int -> int\n") ]
  in
  let r =
    analyze
      (fixture ~mli:false ~extra:user body @ [ ("lib/fix/fix.mli", mli) ])
  in
  (* [Fix.dead] is unreferenced; [Fix.used] is referenced by Other *)
  checkb ("S505 dead export fires — " ^ show r) true (has Codes.s505 r);
  checkb "S505 anchors in fix.mli line 2" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.code = Codes.s505
         && d.Diagnostic.location.Diagnostic.file = Some "lib/fix/fix.mli"
         && d.Diagnostic.location.Diagnostic.line = Some 2)
       r.Engine.diagnostics);
  checkb "S505 spares the used export" true
    (not
       (List.exists
          (fun (d : Diagnostic.t) ->
            d.Diagnostic.code = Codes.s505
            && d.Diagnostic.location.Diagnostic.line = Some 1
            && d.Diagnostic.location.Diagnostic.file = Some "lib/fix/fix.mli")
          r.Engine.diagnostics));
  (* [open]ing the module marks every export used *)
  let r =
    analyze
      (fixture ~mli:false
         ~extra:
           [ ("lib/fix/other.ml", "open Fix\nlet f x = used (dead x)\n");
             ("lib/fix/other.mli", "val f : int -> int\n") ]
         body
      @ [ ("lib/fix/fix.mli", mli) ])
  in
  let spared ctx (r : Engine.report) =
    checkb (ctx ^ " — " ^ show r) true
      (not
         (List.exists
            (fun (d : Diagnostic.t) ->
              d.Diagnostic.code = Codes.s505
              && d.Diagnostic.location.Diagnostic.file = Some "lib/fix/fix.mli")
            r.Engine.diagnostics))
  in
  spared "S505 open marks used" r;
  (* so does a local open, which names no [Fix.value] pair *)
  let r =
    analyze
      (fixture ~mli:false
         ~extra:
           [ ("lib/fix/other.ml", "let f x = Fix.(used (dead x))\n");
             ("lib/fix/other.mli", "val f : int -> int\n") ]
         body
      @ [ ("lib/fix/fix.mli", mli) ])
  in
  spared "S505 local open marks used" r

(* examples/ and bench/suite/ are scanned trees: an export that only an
   example or only a benchmark workload reads is used, and the dead one
   beside them still fires. test/ is scanned too, but a read from a test
   keeps no export alive: one only a test reads is dead. *)
let test_s505_executable_trees () =
  let mli = "val shown : int -> int\nval timed : int -> int\nval dead : int -> int\n" in
  let body = "let shown x = x + 1\nlet timed x = x + 2\nlet dead x = x - 1\n" in
  let r =
    analyze
      (fixture ~mli:false
         ~extra:
           [ ("examples/demo.ml", "let () = print_int (Fix.shown 1)\n");
             ("bench/suite/workload.ml", "let run () = Fix.timed 1\n");
             ("test/t.ml", "let () = assert (Fix.dead 1 = 0)\n") ]
         body
      @ [ ("lib/fix/fix.mli", mli) ])
  in
  let dead_lines =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if
          d.Diagnostic.code = Codes.s505
          && d.Diagnostic.location.Diagnostic.file = Some "lib/fix/fix.mli"
        then d.Diagnostic.location.Diagnostic.line
        else None)
      r.Engine.diagnostics
  in
  Alcotest.(check (list int))
    ("S505 fires on fix.mli line 3 only — " ^ show r)
    [ 3 ] dead_lines

(* An optional parameter that only test/ passes fires; one passed from
   bin/ or from its own module does not. *)
let test_s505_optional_parameters () =
  let mli =
    "val run :\n  ?seed:int ->\n  ?trials:int ->\n  ?depth:int ->\n  unit -> int\n\
     val twice : unit -> int\n"
  in
  let body =
    "let run ?(seed = 1) ?(trials = 2) ?(depth = 3) () = seed + trials + depth\n\
     let twice () = 2 * run ~depth:4 ()\n"
  in
  let r =
    analyze
      (fixture ~mli:false
         ~extra:
           [ ("bin/main.ml", "let () = print_int (Fix.run ~trials:5 () + Fix.twice ())\n");
             ("test/t.ml", "let () = assert (Fix.run ~seed:7 () > 0)\n") ]
         body
      @ [ ("lib/fix/fix.mli", mli) ])
  in
  let s505 =
    List.filter
      (fun (d : Diagnostic.t) -> d.Diagnostic.code = Codes.s505)
      r.Engine.diagnostics
  in
  (match s505 with
  | [ d ] ->
    checkb "S505 anchors at ?seed's line" true
      (d.Diagnostic.location.Diagnostic.line = Some 2);
    checkb "S505 names Fix.run ?seed" true
      (String.starts_with ~prefix:"Fix.run ?seed " d.Diagnostic.message)
  | _ -> Alcotest.fail ("S505 should fire on ?seed only — " ^ show r));
  (* a bare call in a file that opens the module passes its labels *)
  let r =
    analyze
      (fixture ~mli:false
         ~extra:
           [ ("bin/main.ml",
              "open Fix\nlet () = print_int (run ~seed:5 ~trials:5 () + twice ())\n") ]
         body
      @ [ ("lib/fix/fix.mli", mli) ])
  in
  checkb ("S505 silent when an opener passes ?seed — " ^ show r) true
    (not (has Codes.s505 r))

(* --- parse failure: S406 and nothing else --- *)

(* The S406 notice carries the parser's own description of the
   failure. *)
let s406_names what (r : Engine.report) =
  checkb
    ("S406 names a " ^ what ^ " — " ^ show r)
    true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.code = Codes.s406
         && Test_resource.contains d.Diagnostic.message what)
       r.Engine.diagnostics)

let test_parse_failure_degrades () =
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let f () =\n\
         \  Mutex.lock m;\n\
         \  compute (oops\n")
  in
  checki ("unparsable module counted — " ^ show r) 1 r.Engine.parse_failures;
  checkb "S406 reports the skip" true (has Codes.s406 r);
  s406_names "syntax error" r;
  checkb "no S102 (retired)" true (not (has "MSOC-S102" r));
  checkb "no S502 from the failed parse" true (not (has Codes.s502 r));
  (* a text the lexer rejects degrades the same way *)
  let r = analyze (fixture "let s = \"never closed\n") in
  checki ("unlexable module counted — " ^ show r) 1 r.Engine.parse_failures;
  s406_names "lexical error" r;
  (* the parsable spelling is analyzed *)
  let r =
    analyze
      (fixture
         "let m = Mutex.create ()\n\
          let bad xs =\n\
         \  Mutex.lock m;\n\
         \  let v = List.hd xs in\n\
         \  Mutex.unlock m;\n\
          \  v\n")
  in
  checkb "S502 on the parsable spelling" true (has Codes.s502 r);
  checki "no parse failure" 0 r.Engine.parse_failures

(* --- seeded mutations of the real lib/serve sources --- *)

(* dune runs tests from _build/default/test; (source_tree ../lib) in
   test/dune materializes the real sources. *)
let read_real path = Source.read_file (Filename.concat ".." path)

let serve_dune =
  "(library\n\
  \ (name fix)\n\
  \ (flags\n\
  \  (:standard -w +a-4-40-41-42-44-45-70 -warn-error +a)))\n"

let replace ~what ~by text =
  match
    let wl = String.length what in
    let rec find i =
      if i + wl > String.length text then None
      else if String.sub text i wl = what then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> Alcotest.fail ("mutation anchor not found: " ^ what)
  | Some i ->
    String.sub text 0 i ^ by
    ^ String.sub text (i + String.length what)
        (String.length text - i - String.length what)

let mutated_cache mutation =
  [
    ("lib/fix/dune", serve_dune);
    ("lib/fix/cache.ml", mutation (read_real "lib/serve/cache.ml"));
    ("lib/fix/cache.mli", "(* mutated fixture interface *)\n");
  ]

let test_mutated_serve_unguarded_lock () =
  (* drop the Fun.protect guard from Cache.locked: every critical
     section that can raise now leaks the mutex on exceptions *)
  let mutation text =
    replace
      ~what:"Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f"
      ~by:"let r = f () in\n  Mutex.unlock t.lock;\n  r" text
  in
  let r = analyze (mutated_cache mutation) in
  checkb ("mutated cache: S502 caught — " ^ show r) true (has Codes.s502 r)

let test_real_serve_cache_no_false_positives () =
  (* the unmutated cache funnels every critical section through
     [locked] (lock + Fun.protect): the semantic tier must not invent
     S502/S504 findings on it (its S202 eviction invariant is the only
     expected hit) *)
  let r =
    analyze
      [
        ("lib/fix/dune", serve_dune);
        ("lib/fix/cache.ml", read_real "lib/serve/cache.ml");
        ("lib/fix/cache.mli", "(* fixture interface *)\n");
      ]
  in
  List.iter
    (fun code ->
      checkb
        ("unmutated cache clean of " ^ code ^ " — " ^ show r)
        true
        (not (has code r)))
    [ Codes.s502; Codes.s504 ]

let test_mutated_serve_blocking_under_lock () =
  (* inline a disk sweep under the real cache lock: S504 must see the
     blocking call the [locked] indirection would have hidden *)
  let mutation text =
    text
    ^ "\n\
       let sweep t =\n\
      \  Mutex.protect t.lock (fun () ->\n\
      \      Array.iter Sys.remove (Sys.readdir \".\"))\n"
  in
  let r = analyze (mutated_cache mutation) in
  checkb ("mutated cache: S504 caught — " ^ show r) true (has Codes.s504 r)

(* --- allowlist @hash anchors and S404 --- *)

let s202_fixture = "let get = function Some x -> x | None -> assert false\n"

let test_allowlist_hash_anchor () =
  let line_hash = Source.hash_line s202_fixture in
  (* live anchor: suppresses the finding, no audit noise *)
  let files =
    fixture s202_fixture
    @ [
        ( "analysis.allow",
          Printf.sprintf "MSOC-S202 lib/fix/fix.ml@%s # fixture audit\n"
            line_hash );
      ]
  in
  let r = analyze files in
  checks ("hash anchor suppresses — " ^ show r) "<clean>" (show r);
  checki "one suppressed" 1 r.Engine.suppressed;
  (* the anchor survives the line moving *)
  let files =
    fixture ("let shift = 0\n" ^ s202_fixture)
    @ [
        ( "analysis.allow",
          Printf.sprintf "MSOC-S202 lib/fix/fix.ml@%s # fixture audit\n"
            line_hash );
      ]
  in
  let r = analyze files in
  checks ("anchor follows moved line — " ^ show r) "<clean>" (show r)

let test_allowlist_stale_hash_is_s404 () =
  let files =
    fixture s202_fixture
    @ [
        ("analysis.allow",
         "MSOC-S202 lib/fix/fix.ml@deadbeef # audited against older code\n");
      ]
  in
  let r = analyze files in
  checkb ("finding kept — " ^ show r) true (has Codes.s202 r);
  checkb "S404 dead anchor reported" true (has Codes.s404 r);
  checkb "not the plain S401" true (not (has Codes.s401 r));
  (* malformed anchor: S403 *)
  let files =
    fixture "let id x = x\n"
    @ [ ("analysis.allow", "MSOC-S202 lib/fix/fix.ml@xyz # bad anchor\n") ]
  in
  let r = analyze files in
  checkb "S403 on malformed hash" true (has Codes.s403 r)

let test_allowlist_hash_parsing () =
  let path = Filename.temp_file "msoc" ".allow" in
  let t =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc "MSOC-S504 lib/serve/cache.ml:12@0a1b2c3d # spill under lock\n");
        (* an absolute path is read as given, whatever the root *)
        Allowlist.load ~root:"lib" path)
  in
  (match t.Allowlist.entries with
  | [ e ] ->
    checks "file" "lib/serve/cache.ml" e.Allowlist.file;
    checkb "line kept as informational" true (e.Allowlist.line = Some 12);
    checkb "hash parsed" true (e.Allowlist.hash = Some "0a1b2c3d")
  | _ -> Alcotest.fail "expected one entry");
  checki "no parse diags" 0 (List.length t.Allowlist.parse_diags)

(* --- quoted strings and comments never fire a rule (regression) --- *)

let test_mask_quoted_strings () =
  List.iter
    (fun (ctx, body) -> assert_clean ~ctx (analyze (fixture body)))
    [
      ("{|...|} body is a string", "let s = {|exit 1|}\nlet k = 2\n");
      ( "{id|...|id} ends at its own terminator",
        "let s = {ext|assert false |} still|ext}\nlet k = 2\n" );
      ( "a quoted *) inside a comment keeps the comment open",
        "(* {|inner *) failwith still comment|} *)\nlet live = 3\n" );
    ]

(* --- white-box: Flow and Callgraph helpers --- *)

let test_flow_and_callgraph () =
  with_project
    (fixture
       "let m = Mutex.create ()\n\
        let alias = m\n\
        let risky = List.hd [ 1 ]\n\
        let caller () = risky + 1\n")
    (fun root ->
      let p = Project.load ~root in
      let g = Callgraph.build p in
      let def name =
        match
          List.find_opt (fun (d : Callgraph.def) -> d.Callgraph.name = name)
            (Callgraph.defs g)
        with
        | Some d -> d
        | None -> Alcotest.fail ("def not found: " ^ name)
      in
      checkb "ident_chain renders idents" true
        (Syntax.ident_chain (def "alias").Callgraph.body = Some "m");
      checkb "List.hd may raise" true
        (Syntax.may_raise (def "risky").Callgraph.body);
      checkb "a closure body does not raise by itself" true
        (not (Syntax.may_raise (def "caller").Callgraph.body));
      let caller = def "caller" in
      checkb "caller -> risky edge" true
        (List.mem (def "risky").Callgraph.key
           (Callgraph.callees g caller.Callgraph.key)))

(* --- the union closure against the fixpoints it replaced --- *)

(* Semantic.fixpoint and Typestate.may_reply_table as they were before
   Callgraph.close replaced them, verbatim, with the helpers their
   seeds used (qualify for the lock acquisitions the retired S501
   closed, direct_may_reply for S604's replies); [ctx] keeps the one
   field fixpoint read. *)
module Ref = struct
  module StringSet = Set.Make (String)

  type ctx = { graph : Callgraph.t }

  let qualify (d : Callgraph.def) lock =
    if lock = "<opaque>" then None
    else Some (d.Callgraph.module_name ^ ":" ^ lock)

  (* Fixpoint of a per-def set property over the call graph. *)
  let fixpoint ctx (own : Callgraph.def -> StringSet.t) =
    let table = Hashtbl.create 512 in
    let defs = Callgraph.defs ctx.graph in
    List.iter
      (fun (d : Callgraph.def) -> Hashtbl.replace table d.Callgraph.key (own d))
      defs;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (d : Callgraph.def) ->
          let current = Hashtbl.find table d.Callgraph.key in
          let merged =
            List.fold_left
              (fun acc callee ->
                match Hashtbl.find_opt table callee with
                | Some s -> StringSet.union acc s
                | None -> acc)
              current
              (Callgraph.callees ctx.graph d.Callgraph.key)
          in
          if not (StringSet.equal merged current) then begin
            Hashtbl.replace table d.Callgraph.key merged;
            changed := true
          end)
        defs
    done;
    table

  let reply_paths = [ "send"; "send_client"; "reply"; "write_line" ]

  let transfer_paths = [ "try_push"; "push"; "forward" ]

  let chain_last e =
    match Syntax.apply_chain e with
    | Some (path, args) -> Some (Syntax.last_component path, args)
    | None -> None

  let direct_may_reply body =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match chain_last ex with
            | Some (last, _)
              when List.mem last reply_paths || List.mem last transfer_paths ->
              found := true
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it body;
    !found

  let may_reply_table graph =
    let table = Hashtbl.create 256 in
    let defs = Callgraph.defs graph in
    List.iter
      (fun (d : Callgraph.def) ->
        if direct_may_reply d.Callgraph.body then
          Hashtbl.replace table d.Callgraph.key ())
      defs;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (d : Callgraph.def) ->
          if not (Hashtbl.mem table d.Callgraph.key) then
            if
              List.exists
                (fun callee -> Hashtbl.mem table callee)
                (Callgraph.callees graph d.Callgraph.key)
            then begin
              Hashtbl.replace table d.Callgraph.key ();
              changed := true
            end)
        defs
    done;
    table
end

module StringSet = Ref.StringSet

(* Over the repository's own call graph, Callgraph.close returns the
   tables the two fixpoints did for lock acquisitions, S504's
   blocking sites and S604's direct replies; in each some closure
   outgrows its seed, so the propagation itself is compared. *)
let test_closure_matches_reference () =
  let graph = Callgraph.build (Project.load ~root:"..") in
  let defs = Callgraph.defs graph in
  let summaries = Hashtbl.create 512 in
  List.iter
    (fun (d : Callgraph.def) ->
      Hashtbl.replace summaries d.Callgraph.key
        (Flow.summarize d.Callgraph.body))
    defs;
  let summary (d : Callgraph.def) = Hashtbl.find summaries d.Callgraph.key in
  let locks d =
    List.fold_left
      (fun acc (a : Flow.acquisition) ->
        match Ref.qualify d a.Flow.lock with
        | Some q -> StringSet.add q acc
        | None -> acc)
      StringSet.empty (summary d).Flow.acquisitions
  in
  let blocking d =
    List.fold_left
      (fun acc (path, _) -> StringSet.add path acc)
      StringSet.empty (summary d).Flow.blocking_sites
  in
  let replies (d : Callgraph.def) =
    if Ref.direct_may_reply d.Callgraph.body then StringSet.singleton "reply"
    else StringSet.empty
  in
  let compare_on name seed expected =
    let closed = Callgraph.close graph seed in
    let differ =
      List.filter_map
        (fun (d : Callgraph.def) ->
          if StringSet.equal (expected d) (closed d.Callgraph.key) then None
          else Some d.Callgraph.key)
        defs
    in
    checks (name ^ ": definitions whose closure differs") ""
      (String.concat ", " differ);
    checkb (name ^ ": some closure outgrows its seed") true
      (List.exists
         (fun (d : Callgraph.def) ->
           not (StringSet.equal (seed d) (closed d.Callgraph.key)))
         defs)
  in
  let set_of table (d : Callgraph.def) = Hashtbl.find table d.Callgraph.key in
  compare_on "lock acquisitions" locks (set_of (Ref.fixpoint { Ref.graph } locks));
  compare_on "S504 blocking" blocking
    (set_of (Ref.fixpoint { Ref.graph } blocking));
  let may_reply = Ref.may_reply_table graph in
  compare_on "S604 may reply" replies (fun d ->
      if Hashtbl.mem may_reply d.Callgraph.key then StringSet.singleton "reply"
      else StringSet.empty)

let suites =
  [
    ( "semantic-rules",
      [
        Alcotest.test_case "S502 exception paths" `Quick
          test_s502_exception_paths;
        Alcotest.test_case "S503 check-then-act" `Quick
          test_s503_check_then_act;
        Alcotest.test_case "S504 blocking under lock" `Quick
          test_s504_blocking_under_lock;
        Alcotest.test_case "S505 dead exported API" `Quick test_s505_dead_api;
        Alcotest.test_case "S505 examples, bench/suite and test/ uses" `Quick
          test_s505_executable_trees;
        Alcotest.test_case "S505 optional parameters" `Quick
          test_s505_optional_parameters;
        Alcotest.test_case "parse-failure degradation" `Quick
          test_parse_failure_degrades;
      ] );
    ( "semantic-serve-mutations",
      [
        Alcotest.test_case "unguarded cache lock caught" `Quick
          test_mutated_serve_unguarded_lock;
        Alcotest.test_case "blocking inlined under lock caught" `Quick
          test_mutated_serve_blocking_under_lock;
        Alcotest.test_case "unmutated cache has no false positives" `Quick
          test_real_serve_cache_no_false_positives;
      ] );
    ( "semantic-allowlist",
      [
        Alcotest.test_case "hash anchor" `Quick test_allowlist_hash_anchor;
        Alcotest.test_case "stale hash is S404" `Quick
          test_allowlist_stale_hash_is_s404;
        Alcotest.test_case "hash grammar" `Quick test_allowlist_hash_parsing;
      ] );
    ( "semantic-infra",
      [
        Alcotest.test_case "quoted-string masking" `Quick
          test_mask_quoted_strings;
        Alcotest.test_case "flow & callgraph helpers" `Quick
          test_flow_and_callgraph;
        Alcotest.test_case "closure matches the fixpoints" `Quick
          test_closure_matches_reference;
      ] );
  ]
