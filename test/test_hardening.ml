(* Hardening: fuzz the parsers (they must fail only with their own
   exceptions, and the wire parsers only with an [Error]), stress the
   packer with adversarial shapes, and cover reporting paths not
   exercised elsewhere. The parser fuzzers and the wire properties are
   registered through QCheck_alcotest, so QCHECK_SEED picks their
   inputs. *)

module Types = Msoc_itc02.Types
module Soc_file = Msoc_itc02.Soc_file
module Full = Msoc_itc02.Full
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Export = Msoc_testplan.Export
module Protocol = Msoc_serve.Protocol

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- parser fuzz: any input either parses or raises Parse_error at a
   line >= 1; an Invalid_argument from the model's constructors is a
   failure --- *)

let garbage_gen =
  QCheck.Gen.(
    let* n = int_range 0 400 in
    let* chars =
      list_repeat n
        (frequency
           [
             (* bias toward format-ish tokens to reach deep parser paths *)
             (3, oneofl [ 'M'; 'o'; 'd'; 'u'; 'l'; 'e'; 'T'; 's'; ' '; '\n'; ':' ]);
             (2, char_range '0' '9');
             (1, char_range 'a' 'z');
             (1, oneofl [ '#'; '-'; '\t'; '"'; '\\' ]);
           ])
    in
    return (String.init n (List.nth chars)))

let keyword_soup_gen =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* words =
      list_repeat n
        (oneofl
           [ "SocName"; "Module"; "Test"; "Name"; "Level"; "Inputs"; "Outputs";
             "Bidirs"; "Patterns"; "ScanChains"; "ScanUse"; "TamUse"; ":"; "7";
             "x"; "-3"; "\n"; "99999999999999999999" ])
    in
    return (String.concat " " words))

(* Well-formed lines of both dialects whose values stray out of range:
   0 or negative ids, counts, patterns and chain lengths, and repeated
   ids. The keyword soup almost never assembles such a line. *)
let out_of_range_gen =
  QCheck.Gen.(
    let value = frequency [ (4, int_range 1 9); (1, return 0); (1, int_range (-3) (-1)) ] in
    let line =
      let* id = int_range (-1) 4 and* level = int_range 0 2 in
      let* i = value and* o = value and* b = value and* p = value in
      let* chains = list_size (int_range 0 3) value in
      let tail =
        if chains = [] then ""
        else " : " ^ String.concat " " (List.map string_of_int chains)
      in
      oneofl
        [
          Printf.sprintf "Module %d Name m%d Inputs %d Outputs %d Bidirs %d Patterns %d ScanChains %d%s"
            id id i o b p (List.length chains) tail;
          Printf.sprintf "Module %d Level %d Name m%d Inputs %d Outputs %d Bidirs %d ScanChains %d%s"
            id level id i o b (List.length chains) tail;
          Printf.sprintf "Test %d ScanUse %d TamUse 1 Patterns %d" (abs id) (abs b mod 2) p;
        ]
    in
    let* lines = list_size (int_range 1 8) line in
    return (String.concat "\n" ("SocName fuzz" :: lines)))

let parses_or_refuses_at_a_line of_string text =
  match of_string text with
  | _ -> true
  | exception Soc_file.Parse_error { line; _ } -> line >= 1

let parser_fuzz ~name of_string =
  QCheck.Test.make ~name ~count:900
    (QCheck.make ~print:Fun.id
       (QCheck.Gen.oneof [ garbage_gen; keyword_soup_gen; out_of_range_gen ]))
    (parses_or_refuses_at_a_line of_string)

let test_soc_file_fuzz = parser_fuzz ~name:"soc_file fuzz" (Soc_file.of_string ?file:None)

let test_full_fuzz = parser_fuzz ~name:"full dialect fuzz" Full.of_string

(* --- wire parsers: Ok or Error on any line, never a raise --- *)

(* Byte spans (start, length) of the number tokens outside string
   literals. *)
let number_spans line =
  let n = String.length line in
  let numeric = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  let rec go i in_string acc =
    if i >= n then List.rev acc
    else
      match line.[i] with
      | '\\' when in_string -> go (i + 2) true acc
      | '"' -> go (i + 1) (not in_string) acc
      | '-' | '0' .. '9' when not in_string ->
        let j = ref i in
        while !j < n && numeric line.[!j] do
          incr j
        done;
        go !j false ((i, !j - i) :: acc)
      | _ -> go (i + 1) in_string acc
  in
  go 0 false []

let envelope_gen =
  QCheck.Gen.(
    let* id = string_size ~gen:printable (0 -- 8) in
    let* op = oneofl Protocol.[ Plan; Explore; Optimize; Cosim; Stats; Shutdown ] in
    let* deadline_ms = opt (float_range 0.0 1e4) in
    let* params =
      list_size (0 -- 4) (pair (string_size ~gen:printable (1 -- 8)) Test_serve.json_gen)
    in
    return
      (Protocol.request_to_line
         (Protocol.request ?deadline_ms ~params:(Export.Object params) ~id op)))

(* A valid envelope with one byte flipped, or with one number (["v"]'s
   at least) replaced by a value past the float or int range, a
   negative zero or one past [max_int]. *)
let mutated_envelope_gen =
  QCheck.Gen.(
    let* line = envelope_gen in
    oneof
      [
        (let* i = int_bound (String.length line - 1) and* c = char in
         return (String.mapi (fun j b -> if j = i then c else b) line));
        (let* start, len = oneofl (number_spans line)
         and* edge = oneofl [ "1e999"; "-0"; "4611686018427387904"; "9999999999999999999" ] in
         return
           (String.sub line 0 start ^ edge
           ^ String.sub line (start + len) (String.length line - start - len)));
      ])

(* Up to 20,000 open arrays or objects, closed or left open; one
   kind nests inside an object with a string id. *)
let deep_gen =
  QCheck.Gen.(
    let* depth = frequency [ (3, int_range 1 1_000); (1, int_range 1_000 20_000) ] in
    let* opener, closer =
      oneofl [ ("[", "]"); ({|{"a":|}, "}"); ({|{"id":"d","x":|}, "}") ]
    in
    let* closed = bool in
    let repeat s = String.concat "" (List.init depth (fun _ -> s)) in
    return (repeat opener ^ "1" ^ if closed then repeat closer else ""))

let wire_arb =
  let print s =
    String.escaped (if String.length s > 200 then String.sub s 0 200 ^ "..." else s)
  in
  QCheck.make ~print
    QCheck.Gen.(
      frequency
        [
          (2, string_size ~gen:char (0 -- 300));
          ( 2,
            string_size
              ~gen:(oneofl (List.of_seq (String.to_seq {|{}[]":,1e-.\u nt|})))
              (0 -- 60) );
          (1, deep_gen);
          (3, mutated_envelope_gen);
        ])

let test_export_parse_total =
  QCheck.Test.make ~name:"Export.parse total" ~count:1000 wire_arb (fun line ->
      match Export.parse line with Ok _ | Error _ -> true)

(* A line that is a JSON object with a string id is answered under that
   id, accepted or not; any other line under [""]. *)
let test_request_of_line_total =
  QCheck.Test.make ~name:"request_of_line total, id echoed" ~count:1000 wire_arb (fun line ->
      let expected =
        match Export.parse line with
        | Ok json -> (
          match Export.member "id" json with Some (Export.String id) -> id | _ -> "")
        | Error _ -> ""
      in
      let id =
        match Protocol.request_of_line line with Ok r -> r.Protocol.id | Error (id, _) -> id
      in
      id = expected)

(* --- packer stress --- *)

let test_packer_all_full_width () =
  (* every job needs the whole TAM: forced full serialization *)
  let jobs =
    List.init 6 (fun i ->
        Fixtures.digital_job
          ~label:(Printf.sprintf "wide%d" i)
          (Msoc_wrapper.Pareto.fixed ~width:8 ~time:100))
  in
  let s = Packer.pack ~width:8 jobs in
  checki "valid" 0 (List.length (Schedule.check s));
  checki "serial makespan" 600 (Schedule.makespan s)

let test_packer_single_wire () =
  let jobs =
    List.init 10 (fun i ->
        Fixtures.digital_job ~label:(Printf.sprintf "j%d" i)
          (Msoc_wrapper.Pareto.fixed ~width:1 ~time:(10 + i)))
  in
  let s = Packer.pack ~width:1 jobs in
  checki "valid" 0 (List.length (Schedule.check s));
  checki "sum of times" (10 * 10 + 45) (Schedule.makespan s)

let test_packer_deep_precedence_chain () =
  let jobs =
    List.init 20 (fun i ->
        let j =
          Fixtures.digital_job ~label:(Printf.sprintf "c%d" i)
            (Msoc_wrapper.Pareto.fixed ~width:2 ~time:10)
        in
        if i = 0 then j else Job.with_predecessors j [ Printf.sprintf "c%d" (i - 1) ])
  in
  let s = Packer.pack ~width:8 jobs in
  checki "valid" 0 (List.length (Schedule.check s));
  checki "chain serializes fully" 200 (Schedule.makespan s)

let test_packer_conflict_clique () =
  (* pairwise conflicting jobs: a clique forces full serialization even
     on a wide TAM *)
  let labels = List.init 5 (fun i -> Printf.sprintf "k%d" i) in
  let jobs =
    List.map
      (fun l ->
        Job.with_conflicts
          (Fixtures.digital_job ~label:l (Msoc_wrapper.Pareto.fixed ~width:1 ~time:50))
          (List.filter (fun o -> o <> l) labels))
      labels
  in
  let s = Packer.pack ~width:16 jobs in
  checki "valid" 0 (List.length (Schedule.check s));
  checki "clique serializes" 250 (Schedule.makespan s)

(* Random mixes of digital and grouped analog jobs, precedences and
   conflicts pack into valid schedules. *)
let test_packer_mixed_stress =
  QCheck.Test.make ~name:"mixed stress" ~count:60
    QCheck.(triple (int_range 1 2000) (int_range 2 10) (int_range 1 6))
    (fun (seed, width, groups) ->
      let rng = Msoc_util.Rng.create ~seed in
      let n = Msoc_util.Rng.int_in rng ~lo:3 ~hi:18 in
      let jobs =
        List.init n (fun i ->
            let label = Printf.sprintf "s%d" i in
            let w = Msoc_util.Rng.int_in rng ~lo:1 ~hi:width in
            let t = Msoc_util.Rng.int_in rng ~lo:5 ~hi:2_000 in
            let base =
              if Msoc_util.Rng.bool rng then
                Job.analog ~label ~width:w ~time:t
                  ~group:(Msoc_util.Rng.int rng ~bound:groups)
              else Fixtures.digital_job ~label (Msoc_wrapper.Pareto.fixed ~width:w ~time:t)
            in
            let base =
              if i > 0 && Msoc_util.Rng.int rng ~bound:3 = 0 then
                Job.with_predecessors base [ Printf.sprintf "s%d" (i - 1) ]
              else base
            in
            if i > 1 && Msoc_util.Rng.int rng ~bound:4 = 0 then
              Job.with_conflicts base [ Printf.sprintf "s%d" (i - 2) ]
            else base)
      in
      let s = Packer.pack ~width jobs in
      Schedule.check s = [])

(* --- reporting paths --- *)

let test_export_escaping =
  QCheck.Test.make ~name:"json escaping" ~count:300
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun s ->
      let out = Export.to_string (Export.String s) in
      (* the payload between the quotes must be free of raw control
         characters and unescaped quotes *)
      let inner = String.sub out 1 (String.length out - 2) in
      let ok = ref true in
      String.iteri
        (fun i c ->
          if Char.code c < 0x20 then ok := false
          else if c = '"' && (i = 0 || inner.[i - 1] <> '\\') then ok := false)
        inner;
      !ok)

let test_gantt_power_annotation () =
  let jobs = [ Job.with_power (Fixtures.digital_job ~label:"p" (Msoc_wrapper.Pareto.fixed ~width:1 ~time:10)) 3 ] in
  let s = Packer.pack ~power_budget:5 ~width:2 jobs in
  (* the annotation a power-budgeted schedule carries: peak 3 of 5 *)
  checkb "power 3/5" true
    (Schedule.peak_power s = 3 && s.Schedule.power_budget = Some 5)

let suites =
  [
    ( "hardening.parsers",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [ test_soc_file_fuzz; test_full_fuzz ] );
    ( "hardening.wire",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [ test_export_parse_total; test_request_of_line_total ] );
    ( "hardening.packer",
      [
        Alcotest.test_case "all full width" `Quick test_packer_all_full_width;
        Alcotest.test_case "single wire" `Quick test_packer_single_wire;
        Alcotest.test_case "deep precedence chain" `Quick test_packer_deep_precedence_chain;
        Alcotest.test_case "conflict clique" `Quick test_packer_conflict_clique;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick test_packer_mixed_stress;
      ] );
    ( "hardening.reporting",
      [
        QCheck_alcotest.to_alcotest ~speed_level:`Quick test_export_escaping;
        Alcotest.test_case "gantt power annotation" `Quick test_gantt_power_annotation;
      ] );
  ]
