(* One JSON printer, cross-checked against the one it replaced.

   [Ref] below is the printer before it wrote straight into its
   buffer, copied verbatim: [escape] built a string per string and key,
   [float_repr] went through [Printf.sprintf], and [write] made a pad
   and a newline closure per node. Cache keys (Fingerprint's MD5s),
   disk entries and envelopes are that printer's bytes, so the property
   asks [Export.to_string] and [Export.pretty] for the same bytes on
   generated documents: floats from raw 64-bit patterns and the edges
   of the integer path, every int, strings and keys of any bytes. The
   golden MD5, taken with [Ref]'s code in lib/, pins the fingerprints
   of a fixed list of problems and three served envelopes, so a disk
   cache written before the rewrite still hits. *)

module Export = Msoc_testplan.Export
module Fingerprint = Msoc_testplan.Fingerprint
module Instances = Msoc_testplan.Instances
module Plan = Msoc_testplan.Plan
module Problem = Msoc_testplan.Problem
module Protocol = Msoc_serve.Protocol
module Service = Msoc_serve.Service
module Catalog = Msoc_analog.Catalog
module Synthetic = Msoc_itc02.Synthetic

module Ref = struct
  open Export

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_repr v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.12g" v

  let rec write ~indent ~level buf json =
    let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
    let newline () = if indent then Buffer.add_char buf '\n' in
    match json with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float v -> Buffer.add_string buf (float_repr v)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          write ~indent ~level:(level + 1) buf item)
        items;
      newline ();
      pad level;
      Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (key, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape key);
          Buffer.add_string buf "\":";
          if indent then Buffer.add_char buf ' ';
          write ~indent ~level:(level + 1) buf value)
        fields;
      newline ();
      pad level;
      Buffer.add_char buf '}'

  let to_string json =
    let buf = Buffer.create 256 in
    write ~indent:false ~level:0 buf json;
    Buffer.contents buf

  let pretty json =
    let buf = Buffer.create 256 in
    write ~indent:true ~level:0 buf json;
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

(* --- the property --- *)

(* Raw bit patterns reach every class of float (NaNs with any payload
   and sign, subnormals, huge magnitudes); the listed values sit on the
   edges of the integer path (|v| < 1e15, -0.0) and of 12 digits. *)
let float_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map Int64.float_of_bits ui64);
      ( 2,
        oneofl
          [
            Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity;
            0.0; -0.0; Float.succ 0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15;
            -1e15; 9007199254740992.0; 0.1 +. 0.2;
          ] );
      (2, map float_of_int int);
      (2, map float_of_int (int_range (-1_000_000) 1_000_000));
      ( 1,
        map2
          (fun m k -> float_of_int m /. (10.0 ** float_of_int k))
          (int_range (-999_999_999_999) 999_999_999_999)
          (int_bound 20) );
    ]

let int_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, int);
      (2, small_signed_int);
      (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 9; -10 ]);
    ]

(* any byte, leaning on the ones the escape table names and its edges *)
let char_gen =
  let open QCheck.Gen in
  frequency
    [
      (3, char);
      (1, map Char.chr (int_bound 0x1f));
      (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x1f'; ' '; '\x7f'; '\xff' ]);
    ]

let doc_gen =
  let open QCheck.Gen in
  let text = string_size ~gen:char_gen (0 -- 10) in
  let scalar =
    frequency
      [
        (1, return Export.Null);
        (1, map (fun b -> Export.Bool b) bool);
        (3, map (fun i -> Export.Int i) int_gen);
        (4, map (fun v -> Export.Float v) float_gen);
        (3, map (fun s -> Export.String s) text);
      ]
  in
  let rec doc n =
    if n = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Export.List l) (list_size (0 -- 5) (doc (n - 1))));
          ( 1,
            map
              (fun kvs -> Export.Object kvs)
              (list_size (0 -- 5) (pair text (doc (n - 1)))) );
        ]
  in
  doc 4

let test_printer_matches_ref =
  QCheck.Test.make ~count:2000
    ~name:"printer = parent printer (compact and pretty)"
    (QCheck.make ~print:Ref.to_string doc_gen)
    (fun doc ->
      Export.to_string doc = Ref.to_string doc && Export.pretty doc = Ref.pretty doc)

(* --- the golden --- *)

(* MD5 over the lines below, computed with [Ref]'s printer in lib/.
   Never edit it to make the test pass: a new value means cache keys
   moved, and every disk cache written before would miss. *)
let golden_md5 = "4bfbe1e060c35dabc45d45ecd6d5fd28"

let problems () =
  let cores labels = List.map (fun label -> Catalog.find ~label) labels in
  (* a SOC whose name needs every kind of escape *)
  let odd_soc =
    Synthetic.generate ~seed:7 ~name:"odd \"soc\" \\ \t\n\r\x01\x1f\x7f caf\xc3\xa9"
      { Synthetic.n_cores = 5; target_area = 400_000; max_chains = 6; bottleneck = true }
  in
  [
    Instances.p93791m ~tam_width:32 ();
    Instances.p93791m ~weight_time:0.3 ~tam_width:24 ();
    Fixtures.d281m ~tam_width:16 ();
    Fixtures.d281m ~weight_time:(0.1 +. 0.2) ~tam_width:48 ();
    Instances.with_analog ~weight_time:(1.0 /. 3.0) ~tam_width:64
      ~analog_cores:(Instances.scaled_analog ~n:12) ();
    Problem.make ~self_test:{ Problem.hits_per_code = 16 } ~soc:(Synthetic.p93791s ())
      ~analog_cores:(cores [ "A"; "C"; "E" ]) ~tam_width:40 ~weight_time:1.0 ();
    Problem.make ~soc:odd_soc ~analog_cores:(cores [ "B"; "D" ]) ~tam_width:20
      ~weight_time:0.0 ();
  ]

let fingerprint_lines () =
  let extra =
    Export.Object
      [
        ("strategy", Export.String "bnb");
        ("max_evals", Export.Int 24);
        ("delta", Export.Float 0.5);
        ("scale", Export.Float 1e-7);
      ]
  in
  List.concat_map
    (fun p ->
      [ Fingerprint.problem_hex p; Fingerprint.structure_hex p ]
      @ List.concat_map
          (fun search ->
            [
              Fingerprint.request_hex ~op:"plan" ~search p;
              Fingerprint.request_hex ~extra ~op:"optimize" ~search p;
            ])
          [ Plan.Heuristic { delta = 0.0 }; Plan.Heuristic { delta = 0.25 };
            Plan.Exhaustive_search ])
    (problems ())

(* the stats' search time is the one wall-clock field inside a result *)
let rec fix_wall = function
  | Export.Object fields ->
    Export.Object
      (List.map
         (fun (k, v) -> (k, if k = "wall_ms" then Export.Float 0.5 else fix_wall v))
         fields)
  | Export.List items -> Export.List (List.map fix_wall items)
  | json -> json

let served_lines () =
  let service = Service.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  List.concat_map
    (fun (id, op, params) ->
      let resp =
        Service.handle service (Protocol.request ~params:(Export.Object params) ~id op)
      in
      if resp.Protocol.status <> Protocol.Success then
        Alcotest.failf "request %s: %s" id (Option.value resp.Protocol.error ~default:"");
      let resp =
        { resp with Protocol.elapsed_ms = Some 1.25; result = fix_wall resp.Protocol.result }
      in
      [ Protocol.response_to_line resp; Export.pretty resp.Protocol.result ])
    [
      ("p1", Protocol.Plan, [ ("width", Export.Int 32) ]);
      ( "o1",
        Protocol.Optimize,
        [
          ("width", Export.Int 32);
          ("strategy", Export.String "bnb");
          ("max_evals", Export.Int 24);
        ] );
      ( "c1",
        Protocol.Cosim,
        [ ("spec", Export.String "fc"); ("trials", Export.Int 3); ("seed", Export.Int 5) ] );
    ]

let test_golden () =
  let lines = fingerprint_lines () @ served_lines () in
  Alcotest.(check string)
    "fingerprints and served envelopes" golden_md5
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let suites =
  [
    ( "export-json.ref",
      [
        QCheck_alcotest.to_alcotest test_printer_matches_ref;
        Alcotest.test_case "golden fingerprints and envelopes" `Quick test_golden;
      ] );
  ]
