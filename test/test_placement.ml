(* Tests for placement-aware routing (Msoc_analog.Placement +
   Area.Placed) — the paper's stated future work. *)

module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area
module Placement = Msoc_analog.Placement

let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let combo labels =
  let named = List.map (List.map (fun l -> Catalog.find ~label:l)) labels in
  let listed = List.concat labels in
  let rest =
    Catalog.all
    |> List.filter (fun c -> not (List.mem c.Spec.label listed))
    |> List.map (fun c -> [ c ])
  in
  Sharing.make (named @ rest)

(* The routing overhead a placement charges a group: (n - 1) x 100 x
   k_per_mm x the group's mean pairwise distance, k_per_mm = 0.04 by
   default. *)
let rho placement labels =
  Area.routing_overhead_pct (Placement.area_model placement)
    (List.map (fun l -> Catalog.find ~label:l) labels)

let test_placement_basics () =
  let p = Placement.create [ ("A", (0.0, 0.0)); ("B", (3.0, 4.0)) ] in
  checkf 1e-9 "3-4-5 distance" 20.0 (rho p [ "A"; "B" ]);
  (match rho p [ "A"; "C" ] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown label found");
  match Placement.create [ ("A", (0.0, 0.0)); ("A", (1.0, 1.0)) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_mean_pairwise_distance () =
  let p =
    Placement.create [ ("A", (0.0, 0.0)); ("B", (2.0, 0.0)); ("C", (1.0, 0.0)) ]
  in
  (* pairs: AB=2, AC=1, BC=1 -> mean 4/3 *)
  checkf 1e-9 "mean" (2.0 *. 4.0 *. 4.0 /. 3.0) (rho p [ "A"; "B"; "C" ]);
  checkf 1e-9 "singleton" 0.0 (rho p [ "A" ])

let test_spread_floorplan () =
  let p = Placement.spread ~die_mm:10.0 Catalog.all in
  (* every core placed, apart, on a circle of diameter 7 mm *)
  List.iter
    (fun (a, b) ->
      let r = rho p [ a; b ] in
      checkb "inside die" true (r > 0.0 && r <= 4.0 *. 7.0 +. 1e-9))
    (Msoc_util.Combinat.pairs (List.map (fun c -> c.Spec.label) Catalog.all))

let test_clustered_floorplan () =
  let p =
    Placement.clustered ~die_mm:10.0 ~groups:[ [ "A"; "B" ]; [ "D"; "E" ] ] Catalog.all
  in
  let close = rho p [ "A"; "B" ] in
  let far = rho p [ "A"; "D" ] in
  checkb "cluster members adjacent" true (close <= 4.0);
  checkb "clusters separated" true (far > 3.0 *. close);
  match Placement.clustered ~die_mm:10.0 ~groups:[ [ "Z" ] ] Catalog.all with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown grouped label accepted"

let test_placed_routing_scales_with_distance () =
  let near = Placement.create [ ("A", (0.0, 0.0)); ("B", (1.0, 0.0)) ] in
  let far = Placement.create [ ("A", (0.0, 0.0)); ("B", (8.0, 0.0)) ] in
  let rho placement = rho placement [ "A"; "B" ] in
  checkb "8x distance -> 8x overhead" true
    (Msoc_util.Numeric.close ~rel:1e-9 (rho far) (8.0 *. rho near));
  (* default calibration: 3 mm apart matches the paper's uniform k=0.12 *)
  let three = Placement.create [ ("A", (0.0, 0.0)); ("B", (3.0, 0.0)) ] in
  checkf 1e-9 "3mm = uniform k" 12.0 (rho three)

let test_placement_changes_grouping_cost () =
  (* {A,B} sharing is cheap when A and B are neighbors, expensive when
     they sit across the die. *)
  let cohabit =
    Placement.clustered ~die_mm:10.0 ~groups:[ [ "A"; "B" ] ] Catalog.all
  in
  let apart =
    Placement.create
      [ ("A", (0.5, 0.5)); ("B", (9.5, 9.5)); ("C", (5.0, 5.0));
        ("D", (0.5, 9.5)); ("E", (9.5, 0.5)) ]
  in
  let ab = combo [ [ "A"; "B" ] ] in
  let cost placement = Area.cost_ca ~model:(Placement.area_model placement) ab in
  checkb "apart costs more" true (cost apart > cost cohabit);
  (* extreme separation can push sharing past the no-sharing cost *)
  checkb "cohabiting stays acceptable" true
    (Area.acceptable ~model:(Placement.area_model cohabit) ab)

let test_placement_aware_optimizer_prefers_neighbors () =
  (* Full planner run on p93791m with A,B and D,E clustered: with the
     area weight dominant, the chosen sharing must not pair cores from
     different clusters more eagerly than cluster-mates. *)
  let placement =
    Placement.clustered ~die_mm:12.0 ~groups:[ [ "A"; "B" ]; [ "D"; "E" ] ]
      Catalog.all
  in
  let problem =
    Msoc_testplan.Problem.make
      ~area_model:(Placement.area_model ~k_per_mm:0.2 placement)
      ~soc:(Msoc_itc02.Synthetic.d281s ())
      ~analog_cores:[ Catalog.core_a; Catalog.core_b; Catalog.core_d; Catalog.core_e ]
      ~tam_width:24 ~weight_time:0.1 ()
  in
  let plan =
    Msoc_testplan.Plan.run ~search:Msoc_testplan.Plan.Exhaustive_search problem
  in
  let chosen = Msoc_testplan.Plan.sharing plan in
  (* every shared group must stay within one cluster *)
  let within_cluster group =
    let labels = List.map (fun c -> c.Spec.label) group in
    List.for_all (fun l -> List.mem l [ "A"; "B" ]) labels
    || List.for_all (fun l -> List.mem l [ "D"; "E" ]) labels
  in
  List.iter
    (fun g ->
      if List.length g >= 2 then
        checkb
          (Printf.sprintf "group {%s} stays in cluster"
             (String.concat "," (List.map (fun c -> c.Spec.label) g)))
          true (within_cluster g))
    chosen.Sharing.groups

let suites =
  [
    ( "placement",
      [
        Alcotest.test_case "basics" `Quick test_placement_basics;
        Alcotest.test_case "mean pairwise distance" `Quick test_mean_pairwise_distance;
        Alcotest.test_case "spread floorplan" `Quick test_spread_floorplan;
        Alcotest.test_case "clustered floorplan" `Quick test_clustered_floorplan;
        Alcotest.test_case "routing scales with distance" `Quick
          test_placed_routing_scales_with_distance;
        Alcotest.test_case "grouping cost" `Quick test_placement_changes_grouping_cost;
        Alcotest.test_case "optimizer prefers neighbors" `Quick
          test_placement_aware_optimizer_prefers_neighbors;
      ] );
  ]
