(* Tests for the toolkit additions: the extended ITC'02 dialect
   (hierarchy + multiple tests), Goertzel tone detection, Gantt
   rendering and JSON export. *)

module Types = Msoc_itc02.Types
module Full = Msoc_itc02.Full
module Tone = Msoc_signal.Tone
module Goertzel = Msoc_signal.Goertzel
module Gantt = Msoc_tam.Gantt
module Export = Msoc_testplan.Export

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- Full ITC'02 dialect --- *)

let sample_text =
  "# hierarchical sample\n\
   SocName hier1\n\
   Module 1 Level 1 Name mpeg Inputs 10 Outputs 67 Bidirs 0 ScanChains 2 : 130 121\n\
   Test 1 ScanUse 1 TamUse 1 Patterns 785\n\
   Test 2 ScanUse 0 TamUse 1 Patterns 40\n\
   Module 2 Level 2 Name dct Inputs 8 Outputs 8 Bidirs 0 ScanChains 0\n\
   Test 1 ScanUse 0 TamUse 1 Patterns 97\n\
   Module 3 Level 1 Name uart Inputs 12 Outputs 9 Bidirs 2 ScanChains 1 : 55\n\
   Test 1 ScanUse 1 TamUse 1 Patterns 120\n\
   Test 2 ScanUse 0 TamUse 0 Patterns 9999\n"

let test_full_parse () =
  let t = Full.of_string sample_text in
  checks "name" "hier1" t.Full.name;
  checki "3 modules" 3 (List.length t.Full.modules);
  let m1 = List.nth t.Full.modules 0 in
  checki "m1 tests" 2 (List.length m1.Full.tests);
  checki "m1 chains" 2 (List.length m1.Full.scan_chains);
  let t2 = List.nth m1.Full.tests 1 in
  checkb "test 2 no scan" false t2.Full.scan_use;
  checki "test 2 patterns" 40 t2.Full.patterns

let test_full_roundtrip () =
  let t = Full.of_string sample_text in
  let again = Full.of_string (Fixtures.full_to_string t) in
  checkb "round-trip" true (t = again)

let test_full_hierarchy () =
  let t = Full.of_string sample_text in
  (match Full.parent t ~id:2 with
  | Some p -> checks "dct inside mpeg" "mpeg" p.Full.name
  | None -> Alcotest.fail "expected a parent");
  checkb "mpeg is top" true (Full.parent t ~id:1 = None);
  checkb "uart is top" true (Full.parent t ~id:3 = None)

let test_full_flatten () =
  let t = Full.of_string sample_text in
  let soc = Full.flatten t in
  (* TAM-using tests: mpeg t1, mpeg t2, dct t1, uart t1 = 4; uart t2
     bypasses the TAM. *)
  checki "4 flat cores" 4 (List.length soc.Types.cores);
  let mpeg_t2 =
    List.find (fun (c : Types.core) -> c.Types.name = "mpeg/t2") soc.Types.cores
  in
  checki "non-scan test drops chains" 0 (List.length mpeg_t2.Types.scan_chains);
  let mpeg_t1 =
    List.find (fun (c : Types.core) -> c.Types.name = "mpeg/t1") soc.Types.cores
  in
  checki "scan test keeps chains" 2 (List.length mpeg_t1.Types.scan_chains);
  checki "patterns carried" 785 mpeg_t1.Types.patterns

let test_full_of_flat () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let lifted = Fixtures.full_of_flat soc in
  checki "one module per core" 8 (List.length lifted.Full.modules);
  let back = Full.flatten lifted in
  checki "same core count" 8 (List.length back.Types.cores);
  List.iter2
    (fun (a : Types.core) (b : Types.core) ->
      checkb "same structure" true
        (a.Types.inputs = b.Types.inputs
        && a.Types.scan_chains = b.Types.scan_chains
        && a.Types.patterns = b.Types.patterns))
    soc.Types.cores back.Types.cores

(* Each fault is a Parse_error at the line at fault: the Module or Test
   line it names, never line 0 and never Invalid_argument. *)
let test_full_validation_errors () =
  let header ?(id = 1) ?(level = 1) ?(inputs = 1) ?(chains = "0") () =
    Printf.sprintf "Module %d Level %d Name m%d Inputs %d Outputs 1 Bidirs 0 ScanChains %s" id
      level id inputs chains
  in
  let test = "Test 1 ScanUse 0 TamUse 1 Patterns 5" in
  let expect_error ~line lines =
    let text = String.concat "\n" ("SocName x" :: lines) in
    match Full.of_string text with
    | exception Msoc_itc02.Soc_file.Parse_error { line = got; _ } ->
      checki (text ^ ": line") line got
    | _ -> Alcotest.failf "accepted: %s" text
  in
  expect_error ~line:2 [ test ];
  (* test before module *)
  expect_error ~line:4 [ header (); test; header ~id:2 () ];
  (* module with no tests *)
  expect_error ~line:2 [ header ~level:3 (); test ];
  (* first module too deep *)
  expect_error ~line:4 [ header (); test; header ~id:2 ~level:3 (); test ];
  (* level skip *)
  expect_error ~line:3 [ header (); "Test 2 ScanUse 0 TamUse 1 Patterns 0" ];
  (* a test with no patterns *)
  expect_error ~line:4 [ header (); test; header (); test ];
  (* a repeated id, on the line that repeats it *)
  expect_error ~line:2 [ header ~inputs:(-1) (); test ];
  expect_error ~line:2 [ header ~chains:"1 : 0" (); test ];
  (* a negative terminal count and a zero chain length *)
  let top = Full.of_string (String.concat "\n" [ "SocName x"; header ~id:0 ~level:0 (); test ]) in
  checki "Module 0 Level 0 is the top module" 0 (List.hd top.Full.modules).Full.level

let test_full_flatten_needs_tam_tests () =
  let t =
    Full.of_string
      "SocName x\n\
       Module 1 Level 1 Name a Inputs 1 Outputs 1 Bidirs 0 ScanChains 0\n\
       Test 1 ScanUse 0 TamUse 0 Patterns 5\n"
  in
  match Full.flatten t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flattened a TAM-less SOC"

(* --- Goertzel --- *)

let test_goertzel_matches_sine () =
  let fs = 1.0e6 and n = 5000 in
  let f = Tone.coherent_freq ~fs ~n 47_000.0 in
  let x = Tone.sample ~tones:[ Tone.tone ~amplitude:0.8 f ] ~fs ~n in
  checkb "amplitude 0.8" true
    (Float.abs (Goertzel.amplitude ~fs ~f x -. 0.8) < 0.01)

let test_goertzel_rejects_other_tones () =
  let fs = 1.0e6 and n = 5000 in
  let f1 = Tone.coherent_freq ~fs ~n 47_000.0 in
  let f2 = Tone.coherent_freq ~fs ~n 123_000.0 in
  let x = Tone.sample ~tones:[ Tone.tone f1 ] ~fs ~n in
  checkb "off-tone small" true (Goertzel.amplitude ~fs ~f:f2 x < 0.01)

let test_goertzel_matches_spectrum () =
  let fs = 1.7e6 and n = 4551 in
  let f = Tone.coherent_freq ~fs ~n:(Msoc_signal.Fft.next_pow2 n) 60_000.0 in
  let x = Tone.sample ~tones:[ Tone.tone ~amplitude:0.5 f ] ~fs ~n in
  let s = Msoc_signal.Spectrum.analyze ~fs x in
  let via_fft = Msoc_signal.Spectrum.tone_amplitude s f in
  let via_goertzel = Goertzel.amplitude ~fs ~f x in
  checkb "agree within 5%" true
    (Float.abs (via_fft -. via_goertzel) /. via_goertzel < 0.05)

let test_goertzel_multi () =
  let fs = 1.0e6 and n = 8000 in
  let f1 = Tone.coherent_freq ~fs ~n 20_000.0
  and f2 = Tone.coherent_freq ~fs ~n 90_000.0 in
  let x =
    Tone.sample ~tones:[ Tone.tone ~amplitude:1.0 f1; Tone.tone ~amplitude:0.3 f2 ] ~fs ~n
  in
  checkb "tone 1" true (Float.abs (Goertzel.amplitude ~fs ~f:f1 x -. 1.0) < 0.02);
  checkb "tone 2" true (Float.abs (Goertzel.amplitude ~fs ~f:f2 x -. 0.3) < 0.02)

let test_goertzel_validation () =
  (match Goertzel.amplitude ~fs:1000.0 ~f:100.0 [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  (match Goertzel.amplitude ~fs:1000.0 ~f:900.0 [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "f above Nyquist accepted");
  List.iter
    (fun (fs, f) ->
      match Goertzel.amplitude ~fs ~f (Array.make 256 1.0) with
      | exception Invalid_argument _ -> ()
      | a -> Alcotest.failf "f %g at fs %g accepted (amplitude %g)" f fs a)
    [ (1000.0, Float.nan); (Float.nan, 100.0) ]

(* --- Gantt --- *)

let gantt_schedule () =
  Msoc_tam.Packer.pack ~width:4
    [
      Msoc_tam.Job.analog ~label:"x" ~width:2 ~time:100 ~group:0;
      Msoc_tam.Job.analog ~label:"y" ~width:2 ~time:50 ~group:1;
    ]

let test_gantt_render () =
  let s = gantt_schedule () in
  let out = Gantt.render ~columns:40 s in
  let lines = String.split_on_char '\n' out in
  (* 4 wire rows + axis + legend + trailing empty *)
  checki "line count" 7 (List.length lines);
  checkb "wire row prefixed" true (contains out "w00 ");
  checkb "legend present" true (contains out "legend: a=");
  checkb "axis shows makespan" true (contains out "100")

let test_gantt_empty () =
  let s = { Msoc_tam.Schedule.total_width = 4; power_budget = None; placements = [] } in
  checkb "empty note" true (contains (Gantt.render s) "empty")

let test_gantt_legend () =
  let out = Gantt.render (gantt_schedule ()) in
  let legend =
    List.find (String.starts_with ~prefix:"legend:") (String.split_on_char '\n' out)
  in
  let entries = List.tl (String.split_on_char ' ' legend) in
  checki "two entries" 2 (List.length entries);
  checkb "letters distinct" true
    (List.length (List.sort_uniq compare (List.map (fun e -> e.[0]) entries)) = 2)

(* --- Export --- *)

let test_json_primitives () =
  checks "null" "null" (Export.to_string Export.Null);
  checks "escaping" "\"a\\\"b\\nc\"" (Export.to_string (Export.String "a\"b\nc"));
  checks "object" "{\"k\":[1,true]}"
    (Export.to_string (Export.Object [ ("k", Export.List [ Export.Int 1; Export.Bool true ]) ]))

let test_json_plan_export () =
  let plan =
    Msoc_testplan.Plan.run (Fixtures.d281m ~tam_width:24 ())
  in
  let compact = Export.plan_to_string plan in
  checkb "mentions soc" true (contains compact "\"soc\":\"d281s\"");
  checkb "has schedule" true (contains compact "\"placements\":");
  checkb "has sharing groups" true (contains compact "\"sharing\":");
  let pretty = Export.plan_to_string ~pretty:true plan in
  checkb "pretty is multiline" true (contains pretty "\n  \"soc\"");
  (* compact has no spaces outside strings (cheap sanity) *)
  checkb "compact single line" true (not (contains compact "\n"))

let test_json_schedule_fields () =
  let s = gantt_schedule () in
  let json = Export.to_string (Export.schedule_json s) in
  checkb "width" true (contains json "\"tam_width\":4");
  checkb "wrapper group" true (contains json "\"wrapper_group\":");
  checkb "makespan" true
    (contains json
       (Printf.sprintf "\"makespan\":%d" (Msoc_tam.Schedule.makespan s)))

let suites =
  [
    ( "itc02.full",
      [
        Alcotest.test_case "parse" `Quick test_full_parse;
        Alcotest.test_case "round-trip" `Quick test_full_roundtrip;
        Alcotest.test_case "hierarchy" `Quick test_full_hierarchy;
        Alcotest.test_case "flatten" `Quick test_full_flatten;
        Alcotest.test_case "of_flat" `Quick test_full_of_flat;
        Alcotest.test_case "validation errors" `Quick test_full_validation_errors;
        Alcotest.test_case "flatten needs TAM tests" `Quick test_full_flatten_needs_tam_tests;
      ] );
    ( "signal.goertzel",
      [
        Alcotest.test_case "matches sine" `Quick test_goertzel_matches_sine;
        Alcotest.test_case "rejects other tones" `Quick test_goertzel_rejects_other_tones;
        Alcotest.test_case "matches spectrum" `Quick test_goertzel_matches_spectrum;
        Alcotest.test_case "multi-tone" `Quick test_goertzel_multi;
        Alcotest.test_case "validation" `Quick test_goertzel_validation;
      ] );
    ( "tam.gantt",
      [
        Alcotest.test_case "render" `Quick test_gantt_render;
        Alcotest.test_case "empty" `Quick test_gantt_empty;
        Alcotest.test_case "legend" `Quick test_gantt_legend;
      ] );
    ( "export.json",
      [
        Alcotest.test_case "primitives" `Quick test_json_primitives;
        Alcotest.test_case "plan export" `Quick test_json_plan_export;
        Alcotest.test_case "schedule fields" `Quick test_json_schedule_fields;
      ] );
  ]
