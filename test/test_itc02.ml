(* Tests for Msoc_itc02: core/SOC model, .soc file round-trips and the
   synthetic benchmark generator's calibration contract. *)

module Types = Msoc_itc02.Types
module Soc_file = Msoc_itc02.Soc_file
module Synthetic = Msoc_itc02.Synthetic

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let sample_core =
  Types.core ~id:1 ~name:"cpu" ~inputs:10 ~outputs:5 ~bidirs:2
    ~scan_chains:[ 100; 50; 25 ] ~patterns:200

(* --- Types --- *)

let test_core_derived () =
  checki "scan cells" 175 (Types.scan_cells sample_core);
  (* volume = p*(cells+in+bidir) + p*(cells+out+bidir) *)
  checki "volume" ((200 * (175 + 10 + 2)) + (200 * (175 + 5 + 2)))
    (Types.test_data_volume sample_core)

let test_core_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "bad id" (fun () ->
      Types.core ~id:0 ~name:"x" ~inputs:1 ~outputs:1 ~bidirs:0 ~scan_chains:[]
        ~patterns:1);
  expect_invalid "negative inputs" (fun () ->
      Types.core ~id:1 ~name:"x" ~inputs:(-1) ~outputs:1 ~bidirs:0 ~scan_chains:[]
        ~patterns:1);
  expect_invalid "zero patterns" (fun () ->
      Types.core ~id:1 ~name:"x" ~inputs:1 ~outputs:1 ~bidirs:0 ~scan_chains:[]
        ~patterns:0);
  expect_invalid "zero-length chain" (fun () ->
      Types.core ~id:1 ~name:"x" ~inputs:1 ~outputs:1 ~bidirs:0 ~scan_chains:[ 0 ]
        ~patterns:1)

let test_soc_validation () =
  let c2 = { sample_core with Types.id = 2 } in
  let soc = Types.soc ~name:"s" ~cores:[ sample_core; c2 ] in
  checki "core count" 2 (List.length soc.Types.cores);
  (match Types.soc ~name:"s" ~cores:[ sample_core; sample_core ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate ids accepted")

let test_combinational_core () =
  let c =
    Types.core ~id:3 ~name:"glue" ~inputs:8 ~outputs:4 ~bidirs:0 ~scan_chains:[]
      ~patterns:50
  in
  checki "no scan cells" 0 (Types.scan_cells c)

(* --- Soc_file --- *)

let roundtrip soc =
  let text = Soc_file.to_string soc in
  Soc_file.of_string text

let test_file_roundtrip () =
  let soc =
    Types.soc ~name:"demo"
      ~cores:
        [
          sample_core;
          Types.core ~id:2 ~name:"glue" ~inputs:3 ~outputs:4 ~bidirs:0
            ~scan_chains:[] ~patterns:10;
          (* a line longer than the reader's first token buffer *)
          Types.core ~id:3 ~name:"wide" ~inputs:1 ~outputs:1 ~bidirs:0
            ~scan_chains:(List.init 300 (fun i -> i + 1)) ~patterns:2;
        ]
  in
  let back = roundtrip soc in
  checks "name" soc.Types.name back.Types.name;
  checkb "cores equal" true (soc.Types.cores = back.Types.cores)

let test_file_roundtrip_synthetic () =
  let soc = Synthetic.p93791s () in
  checkb "synthetic round-trips" true ((roundtrip soc).Types.cores = soc.Types.cores)

let test_file_comments_and_blanks () =
  let text =
    "# a comment\n\nSocName t  # trailing\nModule 1 Name a Inputs 1 Outputs 1 \
     Bidirs 0 Patterns 5 ScanChains 2 : 10 20\n\n"
  in
  let soc = Soc_file.of_string text in
  checks "name" "t" soc.Types.name;
  checki "chains parsed" 2
    (List.length (List.nth soc.Types.cores 0).Types.scan_chains)

let test_file_errors () =
  let expect_parse_error text =
    match Soc_file.of_string text with
    | exception Soc_file.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed: %s" text
  in
  expect_parse_error "Module 1 Name a Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 0\n";
  (* missing SocName *)
  expect_parse_error "SocName x\nModule 1 Name a Inputs z Outputs 1 Bidirs 0 Patterns 5 ScanChains 0\n";
  expect_parse_error "SocName x\nModule 1 Name a Inputs 1 Bidirs 0 Patterns 5 ScanChains 0\n";
  (* missing Outputs *)
  expect_parse_error "SocName x\nModule 1 Name a Inputs 1 Outputs 1 Bidirs 0 Patterns 5 ScanChains 2 : 10\n";
  (* wrong chain count *)
  expect_parse_error "SocName x\nBogus directive\n";
  expect_parse_error "SocName x y\n"

(* Parse_error from [load] names the offending file; from [of_string]
   without ~file it stays anonymous (PR 3 satellite). *)
let test_file_error_names_file () =
  let path = Filename.temp_file "msoc" ".soc" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        "SocName x\nModule 1 Name a Inputs z Outputs 1 Bidirs 0 Patterns 5 ScanChains 0\n");
  (match Soc_file.load path with
  | _ -> Alcotest.fail "malformed file accepted"
  | exception Soc_file.Parse_error { file; line; message } ->
    checkb "file attached" true (file = Some path);
    checki "line number" 2 line;
    checkb "message is not empty" true (message <> ""));
  Sys.remove path;
  match Soc_file.of_string "SocName x y\n" with
  | _ -> Alcotest.fail "malformed text accepted"
  | exception Soc_file.Parse_error { file; _ } ->
    checkb "of_string stays anonymous" true (file = None)

(* A file past the reader's cap is refused whole, not read. *)
let test_file_too_long () =
  let path = Filename.temp_file "msoc" ".soc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "SocName big\n";
      output_string oc (String.make Msoc_itc02.Scan.max_bytes '\n'));
  match Soc_file.load path with
  | _ -> Alcotest.fail "loaded a file past the cap"
  | exception Sys_error m -> checkb ("names the cap: " ^ m) true (contains m "longer than")

let test_file_load_save () =
  let path = Filename.temp_file "msoc" ".soc" in
  let soc = Synthetic.d281s () in
  Soc_file.save path soc;
  let back = Soc_file.load path in
  Sys.remove path;
  checkb "load(save(x)) = x" true (back.Types.cores = soc.Types.cores)

(* --- Synthetic --- *)

let test_synthetic_deterministic () =
  let a = Synthetic.p93791s () and b = Synthetic.p93791s () in
  checkb "same SOC every call" true (a = b)

let test_synthetic_seed_changes () =
  let a = Synthetic.generate ~seed:1 ~name:"x" Synthetic.default_profile in
  let b = Synthetic.generate ~seed:2 ~name:"x" Synthetic.default_profile in
  checkb "different seeds differ" true (a <> b)

let test_synthetic_profile () =
  let soc = Synthetic.p93791s () in
  checki "32 cores" 32 (List.length soc.Types.cores);
  checkb "chains bounded" true
    (List.for_all
       (fun c -> List.length c.Types.scan_chains <= 46)
       soc.Types.cores)

let test_synthetic_area_calibration () =
  (* The generator promises the total test area within ~1% of the
     profile target (DESIGN.md: calibrates the makespan curve). *)
  let soc = Synthetic.p93791s () in
  let area (c : Types.core) =
    c.Types.patterns
    * (Types.scan_cells c + ((c.Types.inputs + c.Types.outputs) / 2) + c.Types.bidirs)
  in
  let total = List.fold_left (fun acc c -> acc + area c) 0 soc.Types.cores in
  let target = Synthetic.default_profile.Synthetic.target_area in
  let err = Float.abs (float_of_int (total - target)) /. float_of_int target in
  checkb "total area within 2% of target" true (err < 0.02)

let test_synthetic_d281s () =
  let soc = Synthetic.d281s () in
  checki "8 cores" 8 (List.length soc.Types.cores);
  checkb "ids 1..8" true
    (List.map (fun c -> c.Types.id) soc.Types.cores = List.init 8 (fun i -> i + 1))

(* A printer refuses a name its reader would not read back as one
   token, in both dialects, naming the name. *)
let test_unreadable_names () =
  let core name =
    Types.core ~id:1 ~name ~inputs:1 ~outputs:1 ~bidirs:0 ~scan_chains:[] ~patterns:1
  in
  List.iter
    (fun name ->
      let refused what print =
        match print () with
        | _ -> Alcotest.failf "%s: printed the name %S" what name
        | exception Invalid_argument m ->
          checkb (Printf.sprintf "%s: %S names %S" what m name) true
            (contains m (Printf.sprintf "%S" name))
      in
      refused "SOC" (fun () -> Soc_file.to_string (Types.soc ~name ~cores:[]));
      refused "core" (fun () -> Soc_file.to_string (Types.soc ~name:"s" ~cores:[ core name ])))
    [ ""; "a b"; "a\tb"; "a\nb"; "a#b"; "#" ]

let qcheck_tests =
  let open QCheck in
  let name_gen =
    Gen.(string_size ~gen:(oneof [ char_range 'a' 'z'; oneofl [ '_'; '/'; '.'; ':'; '\r'; '7' ] ])
           (int_range 1 6))
  in
  let core_gen id =
    let open Gen in
    let* name = name_gen in
    let* inputs = int_range 0 300 in
    let* outputs = int_range 0 300 in
    let* bidirs = int_range 0 80 in
    let* chains = list_size (int_range 0 12) (int_range 1 500) in
    let* patterns = int_range 1 5000 in
    return (Types.core ~id ~name ~inputs ~outputs ~bidirs ~scan_chains:chains ~patterns)
  in
  let soc_gen =
    let open Gen in
    let* n = int_range 0 8 in
    let* ids = shuffle_l (List.init n (fun i -> (3 * i) + 1)) in
    let* cores = flatten_l (List.map core_gen ids) in
    let* name = name_gen in
    return (Types.soc ~name ~cores)
  in
  let full_gen =
    let open Gen in
    let module F = Msoc_itc02.Full in
    let test index =
      let* scan_use = bool and* tam_use = bool and* patterns = int_range 1 5000 in
      return { F.index; scan_use; tam_use; patterns }
    in
    let module_ id level =
      let* name = name_gen and* inputs = int_range 0 300 and* outputs = int_range 0 300 in
      let* bidirs = int_range 0 80 and* scan_chains = list_size (int_range 0 6) (int_range 1 500) in
      let* k = int_range 1 4 in
      let* tests = flatten_l (List.init k (fun i -> test (i + 1))) in
      return { F.id; level; name; inputs; outputs; bidirs; scan_chains; tests }
    in
    (* each module at most one level below the one before it *)
    let rec levels prev n =
      if n = 0 then return []
      else
        let* l = int_range (min prev 1) (prev + 1) in
        map (List.cons l) (levels l (n - 1))
    in
    let* n = int_range 1 6 in
    let* first = int_range 0 1 in
    let* levels = levels first (n - 1) in
    let* modules = flatten_l (List.mapi (fun i l -> module_ (first + i) l) (first :: levels)) in
    let* name = name_gen in
    return { F.name; modules }
  in
  [
    Test.make ~name:"soc file round-trips whole SOCs" ~count:300
      (make ~print:Soc_file.to_string soc_gen)
      (fun soc -> roundtrip soc = soc);
    Test.make ~name:"hierarchical file round-trips whole SOCs" ~count:300
      (make ~print:Fixtures.full_to_string full_gen)
      (fun t -> Msoc_itc02.Full.of_string (Fixtures.full_to_string t) = t);
    Test.make ~name:"test_data_volume positive and monotone in patterns" ~count:200
      (make (core_gen 1))
      (fun core ->
        let more = { core with Types.patterns = core.Types.patterns + 1 } in
        Types.test_data_volume core > 0
        && Types.test_data_volume more > Types.test_data_volume core);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "itc02.types",
      [
        Alcotest.test_case "derived quantities" `Quick test_core_derived;
        Alcotest.test_case "core validation" `Quick test_core_validation;
        Alcotest.test_case "soc validation" `Quick test_soc_validation;
        Alcotest.test_case "combinational core" `Quick test_combinational_core;
      ] );
    ( "itc02.file",
      [
        Alcotest.test_case "round-trip" `Quick test_file_roundtrip;
        Alcotest.test_case "round-trip synthetic" `Quick test_file_roundtrip_synthetic;
        Alcotest.test_case "comments and blanks" `Quick test_file_comments_and_blanks;
        Alcotest.test_case "parse errors" `Quick test_file_errors;
        Alcotest.test_case "parse errors name the file" `Quick
          test_file_error_names_file;
        Alcotest.test_case "load/save" `Quick test_file_load_save;
        Alcotest.test_case "a file past the cap" `Quick test_file_too_long;
        Alcotest.test_case "printers refuse unreadable names" `Quick test_unreadable_names;
      ] );
    ( "itc02.synthetic",
      [
        Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
        Alcotest.test_case "seed changes output" `Quick test_synthetic_seed_changes;
        Alcotest.test_case "profile respected" `Quick test_synthetic_profile;
        Alcotest.test_case "area calibration" `Quick test_synthetic_area_calibration;
        Alcotest.test_case "d281s" `Quick test_synthetic_d281s;
      ] );
    ("itc02.properties", qcheck_tests);
  ]
