(* Tests for the serve subsystem (PR 3): the Export JSON parser and
   its print/parse round-trip, canonical problem fingerprints, the
   bounded admission queue, serve metrics, the two-level result cache,
   the wire protocol envelopes, request dispatch through Service
   (including cache hits, deadlines and drain semantics), and an
   end-to-end exchange over the Unix-socket daemon. *)

module Export = Msoc_testplan.Export
module Fingerprint = Msoc_testplan.Fingerprint
module Problem = Msoc_testplan.Problem
module Plan = Msoc_testplan.Plan
module Instances = Msoc_testplan.Instances
module Bounded_queue = Msoc_util.Bounded_queue
module Protocol = Msoc_serve.Protocol
module Metrics = Msoc_serve.Metrics
module Cache = Msoc_serve.Cache
module Service = Msoc_serve.Service
module Server = Msoc_serve.Server
module Client = Msoc_serve.Client
module Catalog = Msoc_analog.Catalog
module Synthetic = Msoc_itc02.Synthetic

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- Export: printer escaping --- *)

let test_export_escaping () =
  let render s = Export.to_string (Export.String s) in
  checks "quote" {|"a\"b"|} (render {|a"b|});
  checks "backslash" {|"a\\b"|} (render {|a\b|});
  checks "newline tab return" {|"a\nb\tc\rd"|} (render "a\nb\tc\rd");
  checks "control chars" "\"\\u0000\\u0001\\u001f\"" (render "\x00\x01\x1f");
  (* non-ASCII bytes pass through: the document stays valid UTF-8
     when the input was *)
  checks "utf8 passthrough" "\"caf\xc3\xa9\"" (render "caf\xc3\xa9");
  checks "empty" {|""|} (render "")

(* --- Export: parser --- *)

let test_parse_scalars () =
  let p = Export.parse_exn in
  checkb "null" true (p "null" = Export.Null);
  checkb "true" true (p "true" = Export.Bool true);
  checkb "false" true (p " false " = Export.Bool false);
  checkb "int" true (p "42" = Export.Int 42);
  checkb "negative int" true (p "-7" = Export.Int (-7));
  checkb "float" true (p "2.5" = Export.Float 2.5);
  checkb "exponent" true (p "1e3" = Export.Float 1000.0);
  checkb "negative exponent" true (p "-2.5e-1" = Export.Float (-0.25));
  checkb "int-valued float stays Float" true (p "3.0" = Export.Float 3.0)

let test_parse_strings () =
  let p = Export.parse_exn in
  checkb "simple" true (p {|"abc"|} = Export.String "abc");
  checkb "escapes" true (p {|"a\"b\\c\nd\te"|} = Export.String "a\"b\\c\nd\te");
  checkb "solidus" true (p {|"a\/b"|} = Export.String "a/b");
  checkb "unicode escape" true (p "\"\\u0041\"" = Export.String "A");
  checkb "two-byte utf8" true (p "\"\\u00e9\"" = Export.String "\xc3\xa9");
  checkb "three-byte utf8" true (p "\"\\u20ac\"" = Export.String "\xe2\x82\xac");
  checkb "surrogate pair" true
    (p "\"\\ud83d\\ude00\"" = Export.String "\xf0\x9f\x98\x80");
  checkb "raw utf8 passthrough" true
    (p "\"caf\xc3\xa9\"" = Export.String "caf\xc3\xa9")

let test_parse_structures () =
  let p = Export.parse_exn in
  checkb "empty list" true (p "[]" = Export.List []);
  checkb "empty object" true (p "{}" = Export.Object []);
  checkb "nested" true
    (p {|{"a":[1,{"b":null}],"c":true}|}
    = Export.Object
        [
          ( "a",
            Export.List [ Export.Int 1; Export.Object [ ("b", Export.Null) ] ]
          );
          ("c", Export.Bool true);
        ]);
  checkb "member hit" true
    (Export.member "c" (p {|{"a":1,"c":2}|}) = Some (Export.Int 2));
  checkb "member miss" true (Export.member "z" (p {|{"a":1}|}) = None);
  checkb "member on non-object" true (Export.member "a" (Export.Int 1) = None)

let test_parse_errors () =
  let bad text =
    match Export.parse text with
    | Error msg ->
      checkb
        (Printf.sprintf "%S error mentions offset: %s" text msg)
        true
        (String.length msg > 7 && String.sub msg 0 7 = "offset ")
    | Ok _ -> Alcotest.failf "accepted malformed %S" text
  in
  List.iter bad
    [
      "";
      "{";
      "[1,]";
      {|{"a" 1}|};
      {|{"a":1,}|};
      "nul";
      "+1";
      "1.2.3";
      {|"unterminated|};
      "\"raw\x01control\"";
      {|"\q"|};
      {|"\u12g4"|};
      "[] trailing";
      (* past the float range: would read as an infinity *)
      "1e999";
      "-1e999";
      {|{"deadline_ms":1e999}|};
      String.make 400 '9';
    ]

(* Nesting past Export.max_depth is refused at the bracket that passes
   it: a line of 1,000,000 '[' (inside serve's 1 MiB line cap) is one
   [Error], not a parse a level at a time. *)
let test_parse_depth_cap () =
  let outcome text = match Export.parse text with Ok _ -> "Ok" | Error e -> e in
  let refused_at n =
    Printf.sprintf "offset %d: nesting deeper than %d levels" n Export.max_depth
  in
  let arrays n = String.make n '[' ^ String.make n ']' in
  let objects n = String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "1" ^ String.make n '}' in
  let cap = Export.max_depth in
  checks "1,000,000 '['" (refused_at cap) (outcome (String.make 1_000_000 '['));
  checks "max_depth arrays" "Ok" (outcome (arrays cap));
  checks "one array more" (refused_at cap) (outcome (arrays (cap + 1)));
  checks "max_depth objects" "Ok" (outcome (objects cap));
  checks "one object more" (refused_at (5 * cap)) (outcome (objects (cap + 1)))

(* print -> parse is the identity on generated documents: every int,
   strings and keys of any bytes, and floats that are decimals of at
   most 12 significant digits, so the %.12g print is exact. Non-finite
   floats are excluded: the printer emits inf/nan, which is not JSON,
   and the parser rejects a literal past the float range. *)
let json_gen =
  let open QCheck.Gen in
  let scale = [| 1.0; 10.0; 100.0; 1e3; 1e4; 1e5; 1e6 |] in
  let scalar =
    oneof
      [
        return Export.Null;
        map (fun b -> Export.Bool b) bool;
        map (fun i -> Export.Int i) int;
        map2
          (fun m k -> Export.Float (float_of_int m /. scale.(k)))
          (int_range (-999_999_999_999) 999_999_999_999)
          (int_bound 6);
        map (fun s -> Export.String s) (string_size ~gen:char (0 -- 12));
      ]
  in
  let rec doc n =
    if n = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Export.List l) (list_size (0 -- 4) (doc (n - 1))));
          ( 1,
            map
              (fun kvs -> Export.Object kvs)
              (list_size (0 -- 4)
                 (pair (string_size ~gen:char (0 -- 8)) (doc (n - 1)))) );
        ]
  in
  doc 3

let test_roundtrip_property =
  QCheck.Test.make ~count:500 ~name:"export: print-parse-print identity"
    (QCheck.make json_gen) (fun doc ->
      Export.parse (Export.to_string doc) = Ok doc
      && Export.parse (Export.pretty doc) = Ok doc)

(* --- Fingerprint --- *)

let problem ?(weight_time = 0.5) ?(tam_width = 24) () =
  Instances.p93791m ~weight_time ~tam_width ()

let test_fingerprint_deterministic () =
  checks "same problem, same hex"
    (Fingerprint.problem_hex (problem ()))
    (Fingerprint.problem_hex (problem ()));
  checkb "width changes hex" true
    (Fingerprint.problem_hex (problem ())
    <> Fingerprint.problem_hex (problem ~tam_width:32 ()))

let test_fingerprint_weights () =
  let a = problem ~weight_time:0.3 () and b = problem ~weight_time:0.7 () in
  checkb "weights change problem_hex" true
    (Fingerprint.problem_hex a <> Fingerprint.problem_hex b);
  checks "weights do not change structure_hex"
    (Fingerprint.structure_hex a)
    (Fingerprint.structure_hex b)

let test_fingerprint_request () =
  let p = problem () in
  let h = Plan.Heuristic { delta = 0.0 } in
  checkb "op separates keys" true
    (Fingerprint.request_hex ~op:"plan" ~search:h p
    <> Fingerprint.request_hex ~op:"optimize" ~search:h p);
  checkb "search separates keys" true
    (Fingerprint.request_hex ~op:"plan" ~search:h p
    <> Fingerprint.request_hex ~op:"plan" ~search:Plan.Exhaustive_search p);
  checkb "delta separates keys" true
    (Fingerprint.request_hex ~op:"plan" ~search:h p
    <> Fingerprint.request_hex ~op:"plan"
         ~search:(Plan.Heuristic { delta = 0.1 })
         p)

(* --- Bounded_queue --- *)

let test_queue_fifo_and_backpressure () =
  let q = Bounded_queue.create ~capacity:2 in
  checkb "push 1" true (Bounded_queue.try_push q 1);
  checkb "push 2" true (Bounded_queue.try_push q 2);
  checkb "push 3 rejected (full)" false (Bounded_queue.try_push q 3);
  checkb "fifo 1" true (Bounded_queue.pop q = Some 1);
  checkb "freed a slot" true (Bounded_queue.try_push q 4);
  checkb "fifo 2" true (Bounded_queue.pop q = Some 2);
  checkb "fifo 4" true (Bounded_queue.pop q = Some 4)

let test_queue_close_semantics () =
  let q = Bounded_queue.create ~capacity:4 in
  ignore (Bounded_queue.try_push q "a");
  Bounded_queue.close q;
  Bounded_queue.close q;
  checkb "closed" true (Bounded_queue.is_closed q);
  checkb "push after close rejected" false (Bounded_queue.try_push q "b");
  checkb "drain queued" true (Bounded_queue.pop q = Some "a");
  checkb "then None" true (Bounded_queue.pop q = None);
  match Bounded_queue.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

let test_queue_threaded () =
  let q = Bounded_queue.create ~capacity:8 in
  let n = 200 in
  let got = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec loop () =
          match Bounded_queue.pop q with
          | Some x ->
            got := x :: !got;
            loop ()
          | None -> ()
        in
        loop ())
      ()
  in
  for i = 1 to n do
    while not (Bounded_queue.try_push q i) do
      Thread.yield ()
    done
  done;
  Bounded_queue.close q;
  Thread.join consumer;
  Alcotest.(check (list int)) "all elements, in order" (List.init n succ)
    (List.rev !got)

(* --- Metrics --- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr_request m Protocol.Plan;
  Metrics.incr_request m Protocol.Plan;
  Metrics.incr_request m Protocol.Stats;
  Metrics.incr_status m Protocol.Success;
  Metrics.incr_malformed m;
  Metrics.cache_memory_hit m;
  Metrics.cache_miss m;
  Metrics.add_packs m 7;
  Metrics.observe_latency m ~seconds:0.001;
  Metrics.observe_latency m ~seconds:10.0;
  let s = Metrics.snapshot m in
  checki "plan requests" 2 (List.assoc "plan" s.Metrics.requests);
  checki "stats requests" 1 (List.assoc "stats" s.Metrics.requests);
  checkb "idle ops omitted" true
    (List.assoc_opt "explore" s.Metrics.requests = None);
  checki "ok statuses" 1 (List.assoc "ok" s.Metrics.statuses);
  checki "malformed" 1 s.Metrics.malformed;
  checki "memory hits" 1 s.Metrics.cache_memory_hits;
  checki "misses" 1 s.Metrics.cache_misses;
  checki "packs" 7 s.Metrics.packs;
  checki "latency samples" 2 s.Metrics.latency_count;
  checkb "sum in range" true
    (s.Metrics.latency_sum_ms > 10_000.0 && s.Metrics.latency_sum_ms < 10_002.0)

let test_metrics_histogram_cumulative () =
  let m = Metrics.create () in
  Metrics.observe_latency m ~seconds:0.0001 (* 0.1 ms -> first bucket *);
  Metrics.observe_latency m ~seconds:0.003 (* 3 ms *);
  Metrics.observe_latency m ~seconds:1e6 (* overflow *);
  let s = Metrics.snapshot m in
  let buckets = s.Metrics.latency_buckets in
  let count_le bound =
    List.assoc bound buckets
  in
  (* the snapshot lists every bound, smallest first, overflow last *)
  let finite = List.filter Float.is_finite (List.map fst buckets) in
  checki "first bucket" 1 (count_le (List.hd finite));
  checkb "cumulative: monotone" true
    (let counts = List.map snd buckets in
     List.sort compare counts = counts);
  checki "overflow bucket counts everything" 3 (count_le infinity);
  (* the in-range observations are below some finite bound *)
  checki "all finite below max bound" 2 (count_le (List.nth finite (List.length finite - 1)))

(* --- Cache --- *)

let test_cache_lru_eviction () =
  let c = Cache.create ~memory_capacity:2 () in
  let key i = Printf.sprintf "deadbeef%02d" i in
  Cache.store c ~key:(key 1) (Export.Int 1);
  Cache.store c ~key:(key 2) (Export.Int 2);
  checkb "hit 1" true (Cache.find c ~key:(key 1) <> None);
  (* 1 is now most recent; inserting 3 evicts 2 *)
  Cache.store c ~key:(key 3) (Export.Int 3);
  checkb "2 evicted" true (Cache.find c ~key:(key 2) = None);
  checkb "1 survives" true (Cache.find c ~key:(key 1) <> None);
  checkb "3 present" true (Cache.find c ~key:(key 3) <> None);
  let s = Cache.stats c in
  checki "memory entries" 2 s.Cache.memory_entries;
  checki "misses" 1 s.Cache.misses

let test_cache_rejects_weird_keys () =
  let c = Cache.create ~memory_capacity:2 () in
  Cache.store c ~key:"../escape" (Export.Int 1);
  checkb "path-like key ignored" true (Cache.find c ~key:"../escape" = None);
  Cache.store c ~key:"" (Export.Int 1);
  checkb "empty key ignored" true (Cache.find c ~key:"" = None)

let with_temp_dir f =
  let dir = Filename.temp_file "msoc-cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_cache_disk_tier () =
  with_temp_dir (fun dir ->
      let doc = Export.Object [ ("x", Export.List [ Export.Int 1 ]) ] in
      let key = "cafe01" in
      (let c = Cache.create ~memory_capacity:4 ~dir () in
       Cache.store c ~key doc;
       checkb "memory hit after store" true
         (match Cache.find c ~key with Some (_, Cache.Memory) -> true | _ -> false));
      (* a fresh instance sees only the disk tier *)
      let c2 = Cache.create ~memory_capacity:4 ~dir () in
      (match Cache.find c2 ~key with
      | Some (got, Cache.Disk) -> checks "disk payload" (Export.to_string doc) (Export.to_string got)
      | _ -> Alcotest.fail "expected a disk hit");
      (* promoted to memory on the way in *)
      (match Cache.find c2 ~key with
      | Some (_, Cache.Memory) -> ()
      | _ -> Alcotest.fail "expected promotion to the memory tier");
      let s = Cache.stats c2 in
      checki "one disk hit" 1 s.Cache.disk_hits;
      checki "one memory hit" 1 s.Cache.memory_hits)

let test_cache_corrupt_disk_entry () =
  with_temp_dir (fun dir ->
      let key = "beef02" in
      let path = Filename.concat dir (key ^ ".json") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc "{ torn write");
      let c = Cache.create ~memory_capacity:4 ~dir () in
      checkb "corrupt entry is a miss" true (Cache.find c ~key = None);
      checkb "corrupt entry removed" false (Sys.file_exists path))

let test_cache_dedup_across_instances () =
  with_temp_dir (fun dir ->
      (* two cache instances (two fleet workers) sharing one directory:
         the second writer of a content-addressed key skips the write *)
      let doc = Export.Object [ ("x", Export.Int 1) ] in
      let a = Cache.create ~memory_capacity:4 ~dir () in
      let b = Cache.create ~memory_capacity:4 ~dir () in
      Cache.store a ~key:"feed03" doc;
      checki "first writer writes" 1 (Cache.stats a).Cache.disk_writes;
      Cache.store b ~key:"feed03" doc;
      let sb = Cache.stats b in
      checki "second writer dedups" 1 sb.Cache.dedup_skips;
      checki "second writer skips the write" 0 sb.Cache.disk_writes;
      (* the deduped store still lands in b's memory tier *)
      checkb "deduped store served from memory" true
        (match Cache.find b ~key:"feed03" with
        | Some (_, Cache.Memory) -> true
        | _ -> false))

let test_cache_gc_sweep () =
  with_temp_dir (fun dir ->
      (* every 32nd write sweeps oldest-first until the tier fits the
         cap; 64 ~220-byte entries against a 2000-byte cap must shed *)
      let cap = 2_000 in
      let c = Cache.create ~memory_capacity:4 ~dir ~max_disk_bytes:cap () in
      let big = Export.Object [ ("pad", Export.String (String.make 200 'x')) ] in
      for i = 1 to 64 do
        Cache.store c ~key:(Printf.sprintf "f%05x" i) big
      done;
      checkb "sweep removed entries" true ((Cache.stats c).Cache.gc_removed > 0);
      let size =
        Array.fold_left
          (fun acc name ->
            if Filename.check_suffix name ".json" then
              acc + (Unix.stat (Filename.concat dir name)).Unix.st_size
            else acc)
          0 (Sys.readdir dir)
      in
      checkb "disk tier within the cap after the sweep" true (size <= cap);
      (* the newest entry survives (removal is oldest-first) *)
      checkb "newest entry survives" true
        (Sys.file_exists (Filename.concat dir "f00040.json")))

let test_cache_multiprocess_race () =
  with_temp_dir (fun dir ->
      (* two real processes race identical content-addressed writes
         into one directory, with a truncated entry injected up front:
         every read afterwards must be clean, the torn entry must be
         quarantined (not served, not deleted) and re-healed by the
         next store *)
      let value_of key = Export.Object [ ("key", Export.String key) ] in
      let keys = List.init 16 (fun i -> Printf.sprintf "ab%04x" i) in
      let corrupt_key = "dead00" in
      let corrupt_path = Filename.concat dir (corrupt_key ^ ".json") in
      let oc = open_out corrupt_path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc "{\"torn");
      (* two separate writer processes (fork is off-limits once any
         domain has run, so spawn a real helper binary twice) *)
      let racer =
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "cache_racer.exe"
      in
      let spawn () =
        Unix.create_process racer [| racer; dir |] Unix.stdin Unix.stdout
          Unix.stderr
      in
      let p1 = spawn () in
      let p2 = spawn () in
      List.iter
        (fun pid ->
          let _, status = Unix.waitpid [] pid in
          checkb "writer process exited cleanly" true
            (status = Unix.WEXITED 0))
        [ p1; p2 ];
      (* a fresh reader sees every raced entry intact *)
      let reader = Cache.create ~memory_capacity:4 ~dir () in
      List.iter
        (fun key ->
          match Cache.find reader ~key with
          | Some (json, Cache.Disk) ->
            checks ("clean read of " ^ key)
              (Export.to_string (value_of key))
              (Export.to_string json)
          | _ -> Alcotest.failf "expected a disk hit for %s" key)
        keys;
      (* the torn entry: miss, slot vacated, evidence kept *)
      checkb "torn entry is a miss" true
        (Cache.find reader ~key:corrupt_key = None);
      checki "one quarantined entry" 1 (Cache.stats reader).Cache.quarantined;
      checkb "torn slot vacated" false (Sys.file_exists corrupt_path);
      let qdir = Filename.concat dir "quarantine" in
      checkb "quarantine holds the evidence" true
        (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0);
      (* the next store re-heals the slot for everyone *)
      Cache.store reader ~key:corrupt_key (value_of corrupt_key);
      let reader2 = Cache.create ~memory_capacity:4 ~dir () in
      (match Cache.find reader2 ~key:corrupt_key with
      | Some (json, Cache.Disk) ->
        checks "re-healed payload"
          (Export.to_string (value_of corrupt_key))
          (Export.to_string json)
      | _ -> Alcotest.fail "slot not re-healed");
      (* leave the temp dir removable for with_temp_dir's cleanup *)
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat qdir name) with Sys_error _ -> ())
        (try Sys.readdir qdir with Sys_error _ -> [||]);
      try Unix.rmdir qdir with Unix.Unix_error _ -> ())

(* --- Protocol --- *)

let test_protocol_request_roundtrip () =
  let req =
    Protocol.request ~deadline_ms:250.0
      ~params:(Export.Object [ ("width", Export.Int 24) ])
      ~id:"r-1" Protocol.Optimize
  in
  (match Protocol.request_of_line (Protocol.request_to_line req) with
  | Ok back ->
    checks "id" req.Protocol.id back.Protocol.id;
    checkb "op" true (back.Protocol.op = Protocol.Optimize);
    checkb "deadline" true (back.Protocol.deadline_ms = Some 250.0);
    checkb "params" true
      (Export.member "width" back.Protocol.params = Some (Export.Int 24))
  | Error (_, e) -> Alcotest.failf "round-trip failed: %s" e);
  (* params defaults to an empty object and may be omitted on the wire *)
  match Protocol.request_of_line {|{"v":1,"id":"x","op":"stats"}|} with
  | Ok r -> checkb "missing params ok" true (r.Protocol.op = Protocol.Stats)
  | Error (_, e) -> Alcotest.failf "minimal request rejected: %s" e

let test_protocol_response_roundtrip () =
  let resp =
    { (Protocol.ok ~cached:"memory" ~id:"r-1" (Export.Int 9)) with
      Protocol.elapsed_ms = Some 1.5 }
  in
  (match Protocol.response_of_line (Protocol.response_to_line resp) with
  | Ok back ->
    checkb "status" true (back.Protocol.status = Protocol.Success);
    checkb "cached" true (back.Protocol.cached = Some "memory");
    checkb "result" true (back.Protocol.result = Export.Int 9)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  let rej = Protocol.reject ~id:"r-2" Protocol.Overloaded "queue full" in
  (match Protocol.response_of_line (Protocol.response_to_line rej) with
  | Ok back ->
    checkb "overloaded" true (back.Protocol.status = Protocol.Overloaded);
    checkb "error text" true (back.Protocol.error = Some "queue full")
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  match Protocol.reject ~id:"x" Protocol.Success "not an error" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reject with Success accepted"

(* A bad envelope is rejected under its own string id, so a pipelining
   client can tell which request failed; [""] when the line has none:
   not JSON, not an object, or an id that is not a string. *)
let test_protocol_rejects_bad_envelopes () =
  let bad ?(id = "") line =
    match Protocol.request_of_line line with
    | Error (got, _) -> checks ("id of the rejection of " ^ line) id got
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  bad "not json";
  bad ~id:"x" {|{"id":"x","op":"plan"}|} (* missing v *);
  bad ~id:"x" {|{"v":2,"id":"x","op":"plan"}|} (* wrong version *);
  bad {|{"v":1,"op":"plan"}|} (* missing id *);
  bad {|{"v":1,"id":7,"op":"plan"}|} (* id not a string *);
  bad ~id:"x" {|{"v":1,"id":"x","op":"frobnicate"}|} (* unknown op *);
  bad {|[1,2,3]|};
  bad {|"a"|};
  bad ~id:"a" {|{"v":1,"id":"a","op":"plan","params":[]}|};
  bad ~id:"b" {|{"v":1,"id":"b","op":"nope"}|};
  bad ~id:"c" {|{"v":1,"id":"c","op":"plan","deadline_ms":-1}|};
  (* numbers past the float range: the line is not JSON *)
  bad {|{"v":1,"id":"a","op":"plan","deadline_ms":1e999}|};
  bad {|{"v":1,"id":"a","op":"plan","params":{"weight_time":-1e999}}|}

let test_protocol_fleet_fields () =
  (* the fields the fleet router relies on: worker attribution, the
     protocol version stamped on the wire, and the unavailable status *)
  let resp = Protocol.ok ~worker:"w3" ~cached:"disk" ~id:"f1" (Export.Int 1) in
  (match Protocol.response_of_line (Protocol.response_to_line resp) with
  | Ok back ->
    checkb "worker stamp round-trips" true (back.Protocol.worker = Some "w3");
    checkb "cached tier round-trips" true (back.Protocol.cached = Some "disk")
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (match Export.parse (Protocol.response_to_line resp) with
  | Ok j ->
    checkb "version stamped on the wire" true
      (Export.member "v" j = Some (Export.Int Protocol.version));
    checkb "worker field on the wire" true
      (Export.member "worker" j = Some (Export.String "w3"))
  | Error e -> Alcotest.failf "unparseable wire line: %s" e);
  let rej =
    Protocol.reject ~worker:"router" ~id:"f2" Protocol.Unavailable
      "no worker reachable"
  in
  (match Protocol.response_of_line (Protocol.response_to_line rej) with
  | Ok back ->
    checkb "unavailable round-trips" true
      (back.Protocol.status = Protocol.Unavailable);
    checkb "router stamp" true (back.Protocol.worker = Some "router");
    checkb "error text" true (back.Protocol.error = Some "no worker reachable")
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* the whole status vocabulary round-trips by name *)
  List.iter
    (fun s ->
      checkb (Protocol.status_name s) true
        (Protocol.status_of_name (Protocol.status_name s) = Some s))
    [
      Protocol.Success; Protocol.Bad_request; Protocol.Server_error;
      Protocol.Overloaded; Protocol.Deadline_exceeded; Protocol.Shutting_down;
      Protocol.Unavailable;
    ];
  checkb "unknown status name rejected" true
    (Protocol.status_of_name "nope" = None)

(* --- Service --- *)

let plan_params ?(width = 24) ?(weight_time = 0.5) () =
  Export.Object
    [
      ("width", Export.Int width);
      ("weight_time", Export.Float weight_time);
    ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let handle_ok service req =
  let resp = Service.handle service req in
  if resp.Protocol.status <> Protocol.Success then
    Alcotest.failf "request %s: %s (%s)" req.Protocol.id
      (Protocol.status_name resp.Protocol.status)
      (Option.value resp.Protocol.error ~default:"");
  resp

let with_service ?cache f =
  let service = Service.create ?cache ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () -> f service)

let test_service_plan_matches_one_shot () =
  with_service (fun service ->
      let resp =
        handle_ok service
          (Protocol.request ~params:(plan_params ()) ~id:"p" Protocol.Plan)
      in
      let local =
        Plan.run
          ~search:(Plan.Heuristic { delta = 0.0 })
          (Problem.make
             ~soc:(Synthetic.p93791s ())
             ~analog_cores:
               (List.map
                  (fun label -> Catalog.find ~label)
                  [ "A"; "B"; "C"; "D"; "E" ])
             ~tam_width:24 ~weight_time:0.5 ())
      in
      checks "bit-identical to Plan.run"
        (Export.to_string (Export.plan_json local))
        (Export.to_string resp.Protocol.result))

let test_service_cache_tiers () =
  with_temp_dir (fun dir ->
      let cache = Cache.create ~memory_capacity:8 ~dir () in
      with_service ~cache (fun service ->
          let req = Protocol.request ~params:(plan_params ()) ~id:"c" Protocol.Plan in
          let cold = handle_ok service req in
          checkb "first compute not cached" true (cold.Protocol.cached = None);
          let warm = handle_ok service req in
          checkb "second is a memory hit" true (warm.Protocol.cached = Some "memory");
          checks "warm result identical"
            (Export.to_string cold.Protocol.result)
            (Export.to_string warm.Protocol.result));
      (* restart: same directory, fresh memory *)
      let cache2 = Cache.create ~memory_capacity:8 ~dir () in
      with_service ~cache:cache2 (fun service ->
          let req = Protocol.request ~params:(plan_params ()) ~id:"c2" Protocol.Plan in
          let resp = handle_ok service req in
          checkb "disk hit across restart" true (resp.Protocol.cached = Some "disk")))

(* The disk cache names every entry after its Fingerprint.request_hex
   key, packer, strategy and cosim extras included. A key that moves
   turns every persisted cache cold, so the names are pinned here. *)
let test_service_cache_file_names () =
  let open Export in
  let base = [ ("width", Int 16); ("analog", String "A,B,C") ] in
  let cases =
    [
      ("plan", Protocol.Plan, None, [], "49598d8cabdf57d3b384fb506ab26602");
      ( "plan best_fit", Protocol.Plan, None, [ ("packer", String "best_fit") ],
        "49598d8cabdf57d3b384fb506ab26602" );
      ( "plan diagonal", Protocol.Plan, None, [ ("packer", String "diagonal") ],
        "61519ad6bb0440d0b64b2b4d951e390a" );
      ( "optimize delta", Protocol.Optimize, None, [ ("delta", Float 0.5) ],
        "48bfbad17db1e0917787e575347752a5" );
      ( "optimize bnb", Protocol.Optimize, Some 60_000.0,
        [ ("strategy", String "bnb"); ("max_evals", Int 16); ("budget_ms", Int 50_000) ],
        "798e5a7b58b44d575c45d20cc90eb8f7" );
      ( "cosim fc", Protocol.Cosim, None,
        [ ("spec", String "fc"); ("trials", Int 3) ],
        "357e753a0aec97f22c944335b44e4c85" );
      ( "cosim calibrate", Protocol.Cosim, None,
        [ ("calibrate", Bool true); ("samples", Int 512) ],
        "4ec22fb4aca44049e6073fb7aba099ce" );
    ]
  in
  List.iter
    (fun (what, op, deadline_ms, params, name) ->
      with_temp_dir (fun dir ->
          let cache = Cache.create ~memory_capacity:8 ~dir () in
          with_service ~cache (fun service ->
              ignore
                (handle_ok service
                   (Protocol.request ?deadline_ms ~params:(Object (base @ params))
                      ~id:what op)));
          Alcotest.(check (list string))
            what [ name ^ ".json" ]
            (List.sort compare (Array.to_list (Sys.readdir dir)))))
    cases

let test_service_bad_request_envelopes () =
  with_service (fun service ->
      (* [names]: what the error must mention, e.g. the param. Every
         bad value is rejected before anything is packed. *)
      let bad ?(op = Protocol.Plan) ?(names = []) params =
        let packs = Msoc_testplan.Evaluate.total_packs () in
        let resp = Service.handle service (Protocol.request ~params ~id:"b" op) in
        checkb "bad_request" true (resp.Protocol.status = Protocol.Bad_request);
        let error = Option.value resp.Protocol.error ~default:"" in
        checkb "has error text" true (error <> "");
        List.iter
          (fun name -> checkb (error ^ " names " ^ name) true (contains error name))
          names;
        checki (error ^ ": nothing packed") packs (Msoc_testplan.Evaluate.total_packs ())
      in
      bad (Export.Object [ ("width", Export.Int (-3)) ]);
      bad (Export.Object [ ("width", Export.String "wide") ]);
      bad (Export.Object [ ("analog", Export.String "Z") ]);
      bad (Export.Object [ ("search", Export.String "quantum") ]);
      bad
        (Export.Object
           [ ("soc_text", Export.String "SocName x\nModule bogus\n") ]);
      (* an infeasible width is a client error, not a server crash *)
      bad (Export.Object [ ("width", Export.Int 1) ]);
      (* sweep values are checked, never truncated or dropped *)
      let explore params = bad ~op:Protocol.Explore ~names:[ "\"widths\"" ] params in
      explore (Export.Object [ ("widths", Export.List [ Export.Float 16.5 ]) ]);
      explore (Export.Object [ ("widths", Export.List [ Export.Int 0; Export.Int 16 ]) ]);
      bad ~op:Protocol.Explore ~names:[ "\"weights\""; "0..1" ]
        (Export.Object [ ("weights", Export.List [ Export.Int 2; Export.Float 0.5 ]) ]);
      (* a negative delta no longer waits for the prepare's reference pack *)
      bad ~names:[ "\"delta\"" ] (Export.Object [ ("delta", Export.Int (-1)) ]))

(* A sweep above Monte_carlo.max_trials is refused by the decoder,
   naming the range, and by the run itself, before either builds
   anything. The decoder is checked first: it runs nothing, so a build
   that accepts the value fails there and never starts the sweep. *)
let test_cosim_trials_ceiling () =
  let decode trials =
    Msoc_serve.Request.of_params Protocol.Cosim
      (Export.Object [ ("trials", Export.Int trials) ])
  in
  List.iter
    (fun trials ->
      (match decode trials with
      | exception Invalid_argument m ->
        checkb (m ^ " names the param and range") true
          (contains m "\"trials\"" && contains m "0..100000")
      | _ -> Alcotest.failf "trials %d decoded" trials);
      match Msoc_cosim.Monte_carlo.run ~trials ~seed:1 Msoc_cosim.Testbench.Fc with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Monte_carlo.run accepted %d trials" trials)
    [ 100_001; 1_000_000_000 ];
  match decode 100_000 with
  | Msoc_serve.Request.Cosim (_, c) -> checki "the ceiling decodes" 100_000 c.Msoc_serve.Request.trials
  | _ -> Alcotest.fail "not a cosim request"

(* A TAM width above Problem.max_tam_width, alone or in a sweep, is a
   bad_request naming the param and the range, and nothing is packed;
   the ceiling itself decodes. Only the decoder and the rejections run:
   no plan at a large width. *)
let test_width_ceiling () =
  let open Export in
  let decode op params = Msoc_serve.Request.of_params op (Object params) in
  with_service (fun service ->
      List.iter
        (fun (op, name, params) ->
          let packs = Msoc_testplan.Evaluate.total_packs () in
          let resp = Service.handle service (Protocol.request ~params:(Object params) ~id:"w" op) in
          let error = Option.value resp.Protocol.error ~default:"" in
          checkb (error ^ ": bad_request") true (resp.Protocol.status = Protocol.Bad_request);
          checkb (error ^ " names the param and range") true
            (contains error name && contains error "1..1024");
          checki (error ^ ": nothing packed") packs (Msoc_testplan.Evaluate.total_packs ()))
        [
          (Protocol.Plan, "\"width\"", [ ("width", Int 1025) ]);
          (Protocol.Plan, "\"width\"", [ ("width", Int 1_000_000_000) ]);
          (Protocol.Optimize, "\"width\"", [ ("width", Int 1025) ]);
          (Protocol.Explore, "\"widths\"", [ ("widths", List [ Int 16; Int 1025 ]) ]);
          (Protocol.Explore, "\"widths\"", [ ("widths", List [ Int 1_000_000_000 ]) ]);
          ( Protocol.Explore, "\"width\"",
            [ ("weights", List [ Float 0.5 ]); ("width", Int 1025) ] );
        ]);
  (match decode Protocol.Plan [ ("width", Int 1024) ] with
  | Msoc_serve.Request.Plan s -> checki "the ceiling decodes" 1024 s.Msoc_serve.Request.width
  | _ -> Alcotest.fail "not a plan request");
  match decode Protocol.Explore [ ("widths", List [ Int 16; Int 1024 ]) ] with
  | Msoc_serve.Request.Explore (_, Msoc_serve.Request.Widths ws) ->
    Alcotest.(check (list int)) "the ceiling decodes in a sweep" [ 16; 1024 ] ws
  | _ -> Alcotest.fail "not a width sweep"

(* Decoding any params object yields a request or raises what
   Request.error_message maps: a bad value is a bad_request, never a
   server error. *)
let test_decode_total =
  let keys =
    [ "soc_text"; "soc_path"; "analog"; "width"; "weight_time"; "search"; "delta"; "packer";
      "strategy"; "seed"; "max_evals"; "budget_ms"; "widths"; "weights"; "spec"; "trials";
      "bits"; "samples"; "tolerance_pct"; "calibrate"; "system_clock_hz" ]
  in
  let value =
    QCheck.Gen.(
      frequency
        [ (3, json_gen);
          (2, oneofl
                Export.
                  [ Int 0; Int 16; Int (-1); Float 0.5; Float 2.0; String "A,C"; String "iip3";
                    List [ Int 16; Int 32 ]; List [ Float 0.25 ]; Bool true ]) ])
  in
  let gen =
    QCheck.Gen.(
      pair
        (oneofl Protocol.[ Plan; Optimize; Explore; Cosim ])
        (list_size (0 -- 4) (pair (oneofl keys) value)))
  in
  QCheck.Test.make ~count:300 ~name:"request: decoding any params is total" (QCheck.make gen)
    (fun (op, fields) ->
      match Msoc_serve.Request.of_params op (Export.Object fields) with
      | _ -> true
      | exception e -> Msoc_serve.Request.error_message e <> None)

let test_service_packer_param () =
  let params ?packer () =
    Export.Object
      ([
         ("width", Export.Int 24);
         ("weight_time", Export.Float 0.5);
       ]
      @ match packer with
        | None -> []
        | Some p -> [ ("packer", Export.String p) ])
  in
  with_service (fun service ->
      let base =
        handle_ok service
          (Protocol.request ~params:(params ()) ~id:"pk0" Protocol.Plan)
      in
      (* an explicit best_fit is the default: same cache key, so the
         second request is a memory hit on the first one's entry *)
      let explicit =
        handle_ok service
          (Protocol.request ~params:(params ~packer:"best_fit" ())
             ~id:"pk1" Protocol.Plan)
      in
      checkb "explicit default shares the legacy key" true
        (explicit.Protocol.cached = Some "memory");
      (* a non-default variant must key separately... *)
      let diag =
        handle_ok service
          (Protocol.request ~params:(params ~packer:"diagonal" ())
             ~id:"pk2" Protocol.Plan)
      in
      checkb "variant never served from the default entry" true
        (diag.Protocol.cached = None);
      ignore base;
      (* ...and hit its own entry on repeat *)
      let warm =
        handle_ok service
          (Protocol.request ~params:(params ~packer:"diagonal" ())
             ~id:"pk3" Protocol.Plan)
      in
      checkb "variant entry cached" true (warm.Protocol.cached = Some "memory");
      (* unknown spellings are a client error, not a crash *)
      let resp =
        Service.handle service
          (Protocol.request ~params:(params ~packer:"zigzag" ()) ~id:"pk4"
             Protocol.Plan)
      in
      checkb "unknown packer rejected" true
        (resp.Protocol.status = Protocol.Bad_request);
      let error_mentions sub =
        match resp.Protocol.error with
        | None -> false
        | Some e ->
          let ne = String.length e and ns = String.length sub in
          let rec go i =
            i + ns <= ne && (String.sub e i ns = sub || go (i + 1))
          in
          go 0
      in
      checkb "error names the valid spellings" true (error_mentions "diagonal"))

let test_service_deadline () =
  with_service (fun service ->
      let resp =
        Service.handle service
          (Protocol.request ~deadline_ms:1e-9 ~params:(plan_params ()) ~id:"d"
             Protocol.Plan)
      in
      checkb "deadline_exceeded" true
        (resp.Protocol.status = Protocol.Deadline_exceeded);
      (* expired-in-queue: admission long ago *)
      let resp =
        Service.handle
          ~admitted_at:(Msoc_util.Clock.now () -. 60.0)
          service
          (Protocol.request ~deadline_ms:5_000.0 ~params:(plan_params ())
             ~id:"q" Protocol.Plan)
      in
      checkb "queue-expired deadline_exceeded" true
        (resp.Protocol.status = Protocol.Deadline_exceeded))

let test_service_stats_and_shutdown () =
  with_service (fun service ->
      ignore
        (handle_ok service
           (Protocol.request ~params:(plan_params ()) ~id:"s1" Protocol.Plan));
      let stats =
        handle_ok service (Protocol.request ~id:"s2" Protocol.Stats)
      in
      let metrics = Option.value (Export.member "metrics" stats.Protocol.result) ~default:Export.Null in
      checkb "request counters present" true
        (Export.member "requests" metrics <> None);
      checkb "cache section present" true
        (Export.member "cache" stats.Protocol.result <> None);
      let bye = handle_ok service (Protocol.request ~id:"s3" Protocol.Shutdown) in
      checkb "drain flag" true
        (Export.member "draining" bye.Protocol.result = Some (Export.Bool true));
      checkb "shutdown requested" true (Service.shutdown_requested service);
      (* during drain: stats still answered, work refused *)
      let stats2 = Service.handle service (Protocol.request ~id:"s4" Protocol.Stats) in
      checkb "stats during drain" true (stats2.Protocol.status = Protocol.Success);
      let refused =
        Service.handle service
          (Protocol.request ~params:(plan_params ()) ~id:"s5" Protocol.Plan)
      in
      checkb "plan refused during drain" true
        (refused.Protocol.status = Protocol.Shutting_down))

(* --- transports --- *)

let test_serve_channels_batch () =
  with_service (fun service ->
      let lines =
        [
          Protocol.request_to_line
            (Protocol.request ~params:(plan_params ()) ~id:"b1" Protocol.Plan);
          "";
          "garbage line";
          Protocol.request_to_line (Protocol.request ~id:"b2" Protocol.Stats);
          {|{"v":1,"id":"b3","op":"nope"}|};
        ]
      in
      let in_read, in_write = Unix.pipe ~cloexec:false () in
      let out_read, out_write = Unix.pipe ~cloexec:false () in
      let writer =
        Thread.create
          (fun () ->
            let oc = Unix.out_channel_of_descr in_write in
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines;
            close_out oc)
          ()
      in
      let collected = ref [] in
      let collector =
        Thread.create
          (fun () ->
            let ic = Unix.in_channel_of_descr out_read in
            (try
               while true do
                 collected := input_line ic :: !collected
               done
             with End_of_file -> ());
            close_in_noerr ic)
          ()
      in
      let ic = Unix.in_channel_of_descr in_read in
      let oc = Unix.out_channel_of_descr out_write in
      Server.serve_channels service ic oc;
      close_out_noerr oc;
      Thread.join writer;
      Thread.join collector;
      close_in_noerr ic;
      let responses =
        List.rev_map
          (fun line ->
            match Protocol.response_of_line line with
            | Ok r -> r
            | Error e -> Alcotest.failf "malformed response %S: %s" line e)
          !collected
      in
      checki "four responses (blank skipped)" 4 (List.length responses);
      let by_id id =
        List.find (fun (r : Protocol.response) -> r.Protocol.id = id) responses
      in
      checkb "plan ok" true ((by_id "b1").Protocol.status = Protocol.Success);
      checkb "stats ok" true ((by_id "b2").Protocol.status = Protocol.Success);
      checkb "malformed answered with empty id" true
        ((by_id "").Protocol.status = Protocol.Bad_request);
      checkb "bad envelope answered under its own id" true
        ((by_id "b3").Protocol.status = Protocol.Bad_request))

let send c req = ignore (Client.send c req : bool)

let recv c =
  match Client.recv c with
  | Client.Response r -> r
  | Client.Malformed e -> Alcotest.failf "malformed response: %s" e
  | Client.Closed | Client.Timed_out -> Alcotest.fail "no response"

let test_serve_unix_end_to_end () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-test-%d.sock" (Unix.getpid ()))
  in
  let service = Service.create ~jobs:1 () in
  let server =
    Thread.create
      (fun () -> Server.serve ~queue_capacity:8 ~listen:(`Unix socket_path) service)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Service.request_shutdown service;
      Thread.join server;
      Service.shutdown service)
    (fun () ->
      let rec wait_for_socket tries =
        if Sys.file_exists socket_path then ()
        else if tries = 0 then Alcotest.fail "daemon socket never appeared"
        else begin
          Thread.delay 0.05;
          wait_for_socket (tries - 1)
        end
      in
      wait_for_socket 100;
      let c = Client.connect (`Unix socket_path) () in
      send c (Protocol.request ~params:(plan_params ()) ~id:"u1" Protocol.Plan);
      send c (Protocol.request ~params:(plan_params ()) ~id:"u2" Protocol.Plan);
      send c (Protocol.request ~id:"u3" Protocol.Stats);
      let r1 = recv c in
      let r2 = recv c in
      let r3 = recv c in
      checks "first id" "u1" r1.Protocol.id;
      checkb "first ok" true (r1.Protocol.status = Protocol.Success);
      checkb "second is a cache hit" true (r2.Protocol.cached = Some "memory");
      checks "identical payloads"
        (Export.to_string r1.Protocol.result)
        (Export.to_string r2.Protocol.result);
      checkb "stats ok" true (r3.Protocol.status = Protocol.Success);
      ignore (Client.send_line c {|{"v":1,"id":"u5","op":"plan","params":[]}|} : bool);
      let r5 = recv c in
      (* a line of 1,000,000 '[' fits the 1 MiB line cap: one
         bad_request past Export.max_depth, and the connection goes on
         serving *)
      ignore (Client.send_line c (String.make 1_000_000 '[') : bool);
      send c (Protocol.request ~id:"u6" Protocol.Stats);
      let r_deep = recv c in
      let r6 = recv c in
      (* shutdown envelope drains the daemon; serve returns *)
      send c (Protocol.request ~id:"u4" Protocol.Shutdown);
      let r4 = recv c in
      checkb "shutdown acknowledged" true (r4.Protocol.status = Protocol.Success);
      checks "bad envelope answered under its own id" "u5" r5.Protocol.id;
      checkb "bad envelope rejected" true (r5.Protocol.status = Protocol.Bad_request);
      checks "deep line answered under the empty id" "" r_deep.Protocol.id;
      checkb "deep line rejected for its nesting" true
        (r_deep.Protocol.status = Protocol.Bad_request
        && r_deep.Protocol.error
           = Some (Printf.sprintf "offset %d: nesting deeper than %d levels"
                     Export.max_depth Export.max_depth));
      checks "the next request is answered" "u6" r6.Protocol.id;
      checkb "the next request succeeds" true (r6.Protocol.status = Protocol.Success);
      Client.close c;
      Thread.join server;
      checkb "socket removed after drain" false (Sys.file_exists socket_path))

(* [Service.request_shutdown] from another thread stops a daemon that
   never saw an envelope: the accept loop polls the service's flag, not
   only its own. Should the daemon still be serving after the bounded
   wait, a [shutdown] envelope ends it, so the test fails instead of
   hanging the suite. *)
let test_serve_unix_request_shutdown () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-test-%d-stop.sock" (Unix.getpid ()))
  in
  let service = Service.create ~jobs:1 () in
  let returned = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set returned true)
          (fun () ->
            Server.serve ~queue_capacity:8 ~listen:(`Unix socket_path) service))
      ()
  in
  Fun.protect
    ~finally:(fun () -> Service.shutdown service)
    (fun () ->
      let rec wait_until cond tries =
        cond () || (tries > 0 && (Thread.delay 0.05; wait_until cond (tries - 1)))
      in
      if not (wait_until (fun () -> Sys.file_exists socket_path) 100) then
        Alcotest.fail "daemon socket never appeared";
      Service.request_shutdown service;
      let stopped = wait_until (fun () -> Atomic.get returned) 100 in
      if not stopped then begin
        let c = Client.connect (`Unix socket_path) () in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> ignore (Client.call c (Protocol.request ~id:"s1" Protocol.Shutdown)))
      end;
      Thread.join server;
      checkb "request_shutdown stops the accept loop within 5 s" true stopped;
      checkb "socket removed after drain" false (Sys.file_exists socket_path))

let test_serve_tcp_end_to_end () =
  let service = Service.create ~worker:"t0" ~jobs:1 () in
  let bound = Atomic.make 0 in
  let server =
    Thread.create
      (fun () ->
        Server.serve ~queue_capacity:8 ~max_line:4096
          ~ready:(fun p -> Atomic.set bound p)
          ~listen:(`Tcp ("127.0.0.1", 0)) service)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Service.request_shutdown service;
      Thread.join server;
      Service.shutdown service)
    (fun () ->
      let rec wait_for_port tries =
        if Atomic.get bound <> 0 then Atomic.get bound
        else if tries = 0 then Alcotest.fail "daemon port never bound"
        else begin
          Thread.delay 0.05;
          wait_for_port (tries - 1)
        end
      in
      let port = wait_for_port 100 in
      let connect = Client.connect (`Tcp ("127.0.0.1", port)) in
      let c = connect () in
      send c (Protocol.request ~params:(plan_params ()) ~id:"t1" Protocol.Plan);
      send c (Protocol.request ~params:(plan_params ()) ~id:"t2" Protocol.Plan);
      let r1 = recv c in
      let r2 = recv c in
      checks "first id" "t1" r1.Protocol.id;
      checkb "first ok" true (r1.Protocol.status = Protocol.Success);
      checkb "worker stamp on the envelope" true
        (r1.Protocol.worker = Some "t0");
      checkb "second is a cache hit" true (r2.Protocol.cached = Some "memory");
      checks "identical payloads"
        (Export.to_string r1.Protocol.result)
        (Export.to_string r2.Protocol.result);
      (* an oversize line on a second connection: one bad_request
         envelope, then the connection closes (no resync point) *)
      let c2 = connect () in
      ignore (Client.send_line c2 (String.make 8000 'x') : bool);
      let r_big = recv c2 in
      checkb "oversize line rejected" true
        (r_big.Protocol.status = Protocol.Bad_request);
      (match Client.recv c2 with
      | Client.Closed -> ()
      | _ -> Alcotest.fail "connection stayed open after an oversize line");
      Client.close c2;
      (* shutdown envelope drains the daemon; serve returns *)
      send c (Protocol.request ~id:"t3" Protocol.Shutdown);
      let r3 = recv c in
      checkb "shutdown acknowledged" true (r3.Protocol.status = Protocol.Success);
      Client.close c;
      Thread.join server)

(* A reply line past the client's cap (Scan.max_bytes) has no resync
   point: the connection reads as closed, and nothing spins on it. *)
let test_client_line_cap () =
  let path = Filename.temp_file "msoc-cap" ".sock" in
  Sys.remove path;
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close listener; Sys.remove path) @@ fun () ->
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let c = Client.connect (`Unix path) () in
  let peer, _ = Unix.accept ~cloexec:true listener in
  let lines = String.make (Msoc_itc02.Scan.max_bytes + 1) 'x' ^ "\n{}\n" in
  let writer = Thread.create (fun () -> Unix.write_substring peer lines 0 (String.length lines)) () in
  let reply = Client.recv c in
  Thread.join writer;
  Unix.close peer;
  Client.close c;
  checkb "a line past the cap closes the connection" true (reply = Client.Closed)

let qcheck_tests =
  [ test_roundtrip_property ] |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "export-json",
      [
        Alcotest.test_case "printer escaping" `Quick test_export_escaping;
        Alcotest.test_case "parse scalars" `Quick test_parse_scalars;
        Alcotest.test_case "parse strings" `Quick test_parse_strings;
        Alcotest.test_case "parse structures" `Quick test_parse_structures;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "parse depth cap" `Quick test_parse_depth_cap;
      ] );
    ("export-json.properties", qcheck_tests);
    ( "serve-fingerprint",
      [
        Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
        Alcotest.test_case "weights vs structure" `Quick test_fingerprint_weights;
        Alcotest.test_case "request keying" `Quick test_fingerprint_request;
      ] );
    ( "serve-queue",
      [
        Alcotest.test_case "fifo + backpressure" `Quick
          test_queue_fifo_and_backpressure;
        Alcotest.test_case "close semantics" `Quick test_queue_close_semantics;
        Alcotest.test_case "producer/consumer threads" `Quick test_queue_threaded;
      ] );
    ( "serve-metrics",
      [
        Alcotest.test_case "counters" `Quick test_metrics_counters;
        Alcotest.test_case "histogram is cumulative" `Quick
          test_metrics_histogram_cumulative;
      ] );
    ( "serve-cache",
      [
        Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "weird keys rejected" `Quick
          test_cache_rejects_weird_keys;
        Alcotest.test_case "disk tier + promotion" `Quick test_cache_disk_tier;
        Alcotest.test_case "corrupt disk entry" `Quick
          test_cache_corrupt_disk_entry;
        Alcotest.test_case "cross-instance dedup" `Quick
          test_cache_dedup_across_instances;
        Alcotest.test_case "size-capped gc sweep" `Quick test_cache_gc_sweep;
        Alcotest.test_case "two-process write race" `Quick
          test_cache_multiprocess_race;
      ] );
    ( "serve-protocol",
      [
        Alcotest.test_case "request round-trip" `Quick
          test_protocol_request_roundtrip;
        Alcotest.test_case "response round-trip" `Quick
          test_protocol_response_roundtrip;
        Alcotest.test_case "bad envelopes rejected" `Quick
          test_protocol_rejects_bad_envelopes;
        Alcotest.test_case "fleet fields" `Quick test_protocol_fleet_fields;
      ] );
    ( "serve-service",
      [
        Alcotest.test_case "plan matches one-shot" `Quick
          test_service_plan_matches_one_shot;
        Alcotest.test_case "cache tiers" `Quick test_service_cache_tiers;
        Alcotest.test_case "cache file names" `Quick
          test_service_cache_file_names;
        Alcotest.test_case "bad requests" `Quick
          test_service_bad_request_envelopes;
        Alcotest.test_case "cosim trials ceiling" `Quick test_cosim_trials_ceiling;
        Alcotest.test_case "TAM width ceiling" `Quick test_width_ceiling;
        QCheck_alcotest.to_alcotest test_decode_total;
        Alcotest.test_case "deadlines" `Quick test_service_deadline;
        Alcotest.test_case "packer param" `Quick test_service_packer_param;
        Alcotest.test_case "stats and drain" `Quick
          test_service_stats_and_shutdown;
      ] );
    ( "serve-transport",
      [
        Alcotest.test_case "stdio batch" `Quick test_serve_channels_batch;
        Alcotest.test_case "unix socket end-to-end" `Quick
          test_serve_unix_end_to_end;
        Alcotest.test_case "request_shutdown stops a daemon" `Quick
          test_serve_unix_request_shutdown;
        Alcotest.test_case "tcp end-to-end + line cap" `Quick
          test_serve_tcp_end_to_end;
        Alcotest.test_case "client line cap" `Quick test_client_line_cap;
      ] );
  ]
