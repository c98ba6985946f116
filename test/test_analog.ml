(* Tests for Msoc_analog: Table 2 catalog, sharing combinations,
   Equation 1 area costs and the analog test-time lower bounds —
   including the exact values the paper publishes. *)

module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area
module Bounds = Msoc_analog.Bounds

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let combo labels =
  (* Build a Sharing.t from label groups, e.g. [["A";"C"]; ["B"]; ...];
     unlisted cores are added as singletons. *)
  let named = List.map (List.map (fun l -> Catalog.find ~label:l)) labels in
  let listed = List.concat labels in
  let rest =
    Catalog.all
    |> List.filter (fun c -> not (List.mem c.Spec.label listed))
    |> List.map (fun c -> [ c ])
  in
  Sharing.make (named @ rest)

(* --- Spec --- *)

let test_spec_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "negative f_low" (fun () ->
      Spec.test ~name:"t" ~f_low_hz:(-1.0) ~f_high_hz:1.0 ~f_sample_hz:10.0
        ~cycles:1 ~tam_width:1 ~resolution_bits:8);
  expect_invalid "band above fs" (fun () ->
      Spec.test ~name:"t" ~f_low_hz:1.0 ~f_high_hz:20.0 ~f_sample_hz:10.0 ~cycles:1
        ~tam_width:1 ~resolution_bits:8);
  expect_invalid "zero cycles" (fun () ->
      Spec.test ~name:"t" ~f_low_hz:1.0 ~f_high_hz:2.0 ~f_sample_hz:10.0 ~cycles:0
        ~tam_width:1 ~resolution_bits:8);
  expect_invalid "17 bits" (fun () ->
      Spec.test ~name:"t" ~f_low_hz:1.0 ~f_high_hz:2.0 ~f_sample_hz:10.0 ~cycles:1
        ~tam_width:1 ~resolution_bits:17);
  expect_invalid "empty core" (fun () -> Spec.core ~label:"X" ~name:"x" ~tests:[])

let test_requirement_merge () =
  let r1 = { Spec.bits = 8; f_sample_max_hz = 1.0e6; width = 2 } in
  let r2 = { Spec.bits = 10; f_sample_max_hz = 5.0e5; width = 4 } in
  let m = Spec.merge_requirements r1 r2 in
  checki "bits" 10 m.Spec.bits;
  checkf 1.0 "fs" 1.0e6 m.Spec.f_sample_max_hz;
  checki "width" 4 m.Spec.width

let test_compatibility_rule () =
  let fast_core =
    Spec.core ~label:"F" ~name:"fast"
      ~tests:
        [
          Spec.test ~name:"t" ~f_low_hz:1.0e6 ~f_high_hz:1.0e6 ~f_sample_hz:100.0e6
            ~cycles:10 ~tam_width:1 ~resolution_bits:6;
        ]
  in
  let precise_core =
    Spec.core ~label:"P" ~name:"precise"
      ~tests:
        [
          Spec.test ~name:"t" ~f_low_hz:100.0 ~f_high_hz:100.0 ~f_sample_hz:10.0e3
            ~cycles:10 ~tam_width:1 ~resolution_bits:14;
        ]
  in
  checkb "fast vs precise forbidden" false (Spec.compatible fast_core precise_core);
  checkb "symmetric" false (Spec.compatible precise_core fast_core);
  checkb "fast vs fast fine" true (Spec.compatible fast_core fast_core);
  (* A relaxed policy admits the pair. *)
  let lax = { Spec.fast_hz = 1.0e12; high_res_bits = 16 } in
  checkb "lax policy admits" true (Spec.compatible ~policy:lax fast_core precise_core)

(* --- Catalog: Table 2 ground truth --- *)

let test_catalog_core_times () =
  checki "core A" 135_969 (Spec.core_time Catalog.core_a);
  checki "core B" 135_969 (Spec.core_time Catalog.core_b);
  checki "core C" 299_785 (Spec.core_time Catalog.core_c);
  checki "core D" 56_490 (Spec.core_time Catalog.core_d);
  checki "core E" 7_900 (Spec.core_time Catalog.core_e)

let test_catalog_total () = checki "Σ = 636,113" 636_113 Catalog.total_time

let test_catalog_widths () =
  checki "A needs 4 wires" 4 (Spec.core_width Catalog.core_a);
  checki "C needs 1 wire" 1 (Spec.core_width Catalog.core_c);
  checki "D needs 10 wires" 10 (Spec.core_width Catalog.core_d);
  checki "E needs 5 wires" 5 (Spec.core_width Catalog.core_e)

let test_catalog_test_counts () =
  checki "A has 6 tests" 6 (List.length Catalog.core_a.Spec.tests);
  checki "C has 3 tests" 3 (List.length Catalog.core_c.Spec.tests);
  checki "D has 3 tests" 3 (List.length Catalog.core_d.Spec.tests);
  checki "E has 2 tests" 2 (List.length Catalog.core_e.Spec.tests)

let test_catalog_a_b_identical () =
  checkb "A and B identical" true (Spec.same_tests Catalog.core_a Catalog.core_b);
  checkb "A and C differ" false (Spec.same_tests Catalog.core_a Catalog.core_c)

let test_catalog_all_pairwise_compatible () =
  (* Table 1 enumerates every combination, so A..E must be pairwise
     compatible under the default policy. *)
  Msoc_util.Combinat.pairs Catalog.all
  |> List.iter (fun (a, b) ->
         checkb
           (Printf.sprintf "%s-%s compatible" a.Spec.label b.Spec.label)
           true (Spec.compatible a b))

let test_catalog_find () =
  checkb "find D" true ((Catalog.find ~label:"D").Spec.label = "D");
  match Catalog.find ~label:"Z" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "found nonexistent core"

(* --- Sharing --- *)

let test_sharing_counts () =
  checki "paper enumerates 26" 26 (List.length (Sharing.paper_combinations Catalog.all));
  checki "36 distinct partitions" 36 (List.length (Sharing.all_combinations Catalog.all))

let test_sharing_no_duplicate_equivalents () =
  (* {A,C} and {B,C} are the same combination because A ≡ B. *)
  let combos = Sharing.paper_combinations Catalog.all in
  let ac = combo [ [ "A"; "C" ] ] and bc = combo [ [ "B"; "C" ] ] in
  let count c = List.length (List.filter (Sharing.equal c) combos) in
  checki "one of {A,C}/{B,C}" 1 (count ac + count bc)

let test_sharing_signatures () =
  let c = combo [ [ "A"; "B"; "E" ]; [ "C"; "D" ] ] in
  Alcotest.(check (list int)) "signature 3+2" [ 3; 2 ] (Sharing.degree_signature c);
  checki "2 wrappers" 2 (Sharing.wrappers c);
  Alcotest.(check string) "2 shared groups" "{A,B,E}{C,D}" (Sharing.short_name c)

let test_sharing_paper_set_shape () =
  let combos = Sharing.paper_combinations Catalog.all in
  let by_sig =
    Msoc_util.Combinat.group_by
      (fun c -> List.filter (fun n -> n >= 2) (Sharing.degree_signature c))
      combos
  in
  let size s =
    match List.assoc_opt s by_sig with Some l -> List.length l | None -> 0
  in
  checki "7 pairs" 7 (size [ 2 ]);
  checki "7 triples" 7 (size [ 3 ]);
  checki "4 quads" 4 (size [ 4 ]);
  checki "7 splits" 7 (size [ 3; 2 ]);
  checki "1 full" 1 (size [ 5 ])

let test_sharing_names () =
  Alcotest.(check string) "short name" "{C,D}" (Sharing.short_name (combo [ [ "C"; "D" ] ]));
  Alcotest.(check string) "no sharing" "none"
    (Sharing.short_name (Sharing.no_sharing Catalog.all));
  Alcotest.(check string) "full name lists singletons" "{A}{B}{C}{D}{E}"
    (Sharing.full_name (Sharing.no_sharing Catalog.all))

let test_sharing_make_validation () =
  (match Sharing.make [ [] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty group accepted");
  match Sharing.make [ [ Catalog.core_a ]; [ Catalog.core_a ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_sharing_feasibility_filter () =
  checkb "catalog full sharing feasible" true
    (Sharing.is_feasible (Sharing.full_sharing Catalog.all))

(* --- Bounds: paper Table 1's normalized T_LB column --- *)

let test_bounds_exact_paper_values () =
  (* Normalized lower bounds the DATE'05 paper publishes in Table 1. *)
  let cases =
    [
      ([ [ "A"; "C" ] ], 68.5);
      ([ [ "A"; "B"; "C" ] ], 89.9 (* paper prints 89.8 *));
      ([ [ "A"; "B"; "C"; "E" ] ], 91.1);
      ([ [ "A"; "B"; "C"; "D" ] ], 98.8 (* paper prints 98.7 *));
      ([ [ "A"; "B"; "C"; "D"; "E" ] ], 100.0);
      ([ [ "A"; "B"; "C" ]; [ "D"; "E" ] ], 89.9);
    ]
  in
  List.iter
    (fun (groups, expected) ->
      let c = combo groups in
      checkf 0.06
        (Printf.sprintf "T_LB of %s" (Sharing.short_name c))
        expected
        (Bounds.normalized_lower_bound c))
    cases

let test_bounds_monotone_under_merging () =
  (* Merging two wrapper groups can only raise (or keep) the bound. *)
  let before = combo [ [ "A"; "B" ]; [ "C"; "D" ] ] in
  let after = combo [ [ "A"; "B"; "C"; "D" ] ] in
  checkb "merge raises LB" true
    (Bounds.lower_bound after >= Bounds.lower_bound before)

let test_bounds_full_sharing_is_total () =
  checki "full sharing = total time" Catalog.total_time
    (Bounds.lower_bound (Sharing.full_sharing Catalog.all))

let test_bounds_no_sharing_is_max_core () =
  checki "no sharing = slowest core" 299_785
    (Bounds.lower_bound (Sharing.no_sharing Catalog.all))

(* --- Area / Equation 1 --- *)

let test_area_no_sharing_is_100 () =
  checkf 1e-9 "C_A(no sharing) = 100" 100.0 (Area.cost_ca (Sharing.no_sharing Catalog.all))

let test_area_sharing_reduces_cost () =
  let pair = combo [ [ "A"; "B" ] ] in
  checkb "C_A < 100 with one pair shared" true (Area.cost_ca pair < 100.0);
  let full = Sharing.full_sharing Catalog.all in
  checkb "full sharing cheapest of chain" true
    (Area.cost_ca full < Area.cost_ca pair)

let test_area_routing_overhead () =
  let m = Area.default_model in
  checkf 1e-9 "solo wrapper no routing" 0.0
    (Area.routing_overhead_pct m [ Catalog.core_a ]);
  checkf 1e-9 "pair 12%" 12.0
    (Area.routing_overhead_pct m [ Catalog.core_a; Catalog.core_b ]);
  checkf 1e-9 "five cores 48%" 48.0 (Area.routing_overhead_pct m Catalog.all)

let test_area_routing_can_exceed_no_sharing () =
  (* With an extreme routing factor sharing stops paying: the
     "exceeds the overhead of the no-sharing case" exclusion of §3. *)
  let model = { Area.default_model with Area.routing = Area.Uniform 0.99 } in
  let full = Sharing.full_sharing Catalog.all in
  checkb "k=0.99 can exceed 100" true (Area.cost_ca ~model full > 42.0);
  let pair = combo [ [ "D"; "E" ] ] in
  checkb "pair with huge k unacceptable" true
    (Area.cost_ca ~model pair > 99.0 || not (Area.acceptable ~model pair))

let test_area_max_individual_vs_merged () =
  let merged_model = { Area.default_model with Area.a_max_rule = Area.Merged_requirement } in
  let c = combo [ [ "C"; "D" ] ] in
  (* C brings 10 bits at low speed, D brings 8 bits at 78 MHz: the
     merged wrapper (10 bits AND 78 MHz) costs at least the max
     individual. *)
  checkb "merged >= max individual" true
    (Area.cost_ca ~model:merged_model c >= Area.cost_ca c -. 1e-9)

let test_area_group_area_is_max () =
  let m = Area.default_model in
  let group = [ Catalog.core_c; Catalog.core_e ] in
  checkf 1e-9 "group area = max member"
    (Float.max (Area.wrapper_area_of_core m Catalog.core_c)
       (Area.wrapper_area_of_core m Catalog.core_e))
    (Area.group_area m group)

let test_area_acceptable_default_catalog () =
  (* With k = 0.12 every paper combination stays below no-sharing. *)
  Sharing.paper_combinations Catalog.all
  |> List.iter (fun c ->
         checkb (Sharing.short_name c) true (Area.acceptable c))

let qcheck_tests =
  let open QCheck in
  let combo_arb =
    make
      (let open Gen in
       let* idx = int_range 0 25 in
       return (List.nth (Sharing.paper_combinations Catalog.all) idx))
  in
  [
    Test.make ~name:"C_A positive and below 200" ~count:100 combo_arb
      (fun c ->
        let v = Area.cost_ca c in
        v > 0.0 && v < 200.0);
    Test.make ~name:"normalized T_LB within (0, 100]" ~count:100 combo_arb
      (fun c ->
        let v = Bounds.normalized_lower_bound c in
        v > 0.0 && v <= 100.0 +. 1e-9);
    Test.make ~name:"lower bound >= slowest member core" ~count:100 combo_arb
      (fun c ->
        Bounds.lower_bound c
        >= List.fold_left
             (fun acc g -> List.fold_left (fun a core -> max a (Spec.core_time core)) acc g)
             0 c.Sharing.groups);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "analog.spec",
      [
        Alcotest.test_case "validation" `Quick test_spec_validation;
        Alcotest.test_case "requirement merge" `Quick test_requirement_merge;
        Alcotest.test_case "compatibility rule" `Quick test_compatibility_rule;
      ] );
    ( "analog.catalog",
      [
        Alcotest.test_case "core times (Table 2)" `Quick test_catalog_core_times;
        Alcotest.test_case "total 636,113" `Quick test_catalog_total;
        Alcotest.test_case "TAM widths" `Quick test_catalog_widths;
        Alcotest.test_case "test counts" `Quick test_catalog_test_counts;
        Alcotest.test_case "A and B identical" `Quick test_catalog_a_b_identical;
        Alcotest.test_case "pairwise compatible" `Quick test_catalog_all_pairwise_compatible;
        Alcotest.test_case "find" `Quick test_catalog_find;
      ] );
    ( "analog.sharing",
      [
        Alcotest.test_case "counts (26 / 36)" `Quick test_sharing_counts;
        Alcotest.test_case "no duplicate equivalents" `Quick test_sharing_no_duplicate_equivalents;
        Alcotest.test_case "signatures" `Quick test_sharing_signatures;
        Alcotest.test_case "paper set shape" `Quick test_sharing_paper_set_shape;
        Alcotest.test_case "names" `Quick test_sharing_names;
        Alcotest.test_case "make validation" `Quick test_sharing_make_validation;
        Alcotest.test_case "feasibility" `Quick test_sharing_feasibility_filter;
      ] );
    ( "analog.bounds",
      [
        Alcotest.test_case "paper Table 1 values" `Quick test_bounds_exact_paper_values;
        Alcotest.test_case "monotone under merging" `Quick test_bounds_monotone_under_merging;
        Alcotest.test_case "full sharing = total" `Quick test_bounds_full_sharing_is_total;
        Alcotest.test_case "no sharing = slowest core" `Quick test_bounds_no_sharing_is_max_core;
      ] );
    ( "analog.area",
      [
        Alcotest.test_case "no sharing = 100" `Quick test_area_no_sharing_is_100;
        Alcotest.test_case "sharing reduces cost" `Quick test_area_sharing_reduces_cost;
        Alcotest.test_case "routing overhead" `Quick test_area_routing_overhead;
        Alcotest.test_case "routing can exceed no-sharing" `Quick test_area_routing_can_exceed_no_sharing;
        Alcotest.test_case "merged vs max rule" `Quick test_area_max_individual_vs_merged;
        Alcotest.test_case "group area is max" `Quick test_area_group_area_is_max;
        Alcotest.test_case "catalog combos acceptable" `Quick test_area_acceptable_default_catalog;
      ] );
    ("analog.properties", qcheck_tests);
  ]
