(* Tests for the extended analog catalog: the compatibility rule must
   actually bite (F vs G), and planning with eight cores must remain
   correct and tractable through the heuristic. *)

module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Ext = Catalog_ext
module Sharing = Msoc_analog.Sharing
module Problem = Msoc_testplan.Problem
module Plan = Msoc_testplan.Plan

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_ext_shape () =
  checki "8 cores" 8 (List.length Ext.extended);
  let labels = List.map (fun c -> c.Spec.label) Ext.extended in
  checki "distinct labels" 8 (List.length (List.sort_uniq compare labels))

let test_f_g_incompatible () =
  checkb "PLL vs sigma-delta forbidden" false (Spec.compatible Ext.core_f Ext.core_g);
  (* and with the paper's fast cores too: G is high-res *)
  checkb "G vs D forbidden" false (Spec.compatible Ext.core_g Catalog.core_d);
  checkb "G vs E forbidden" false (Spec.compatible Ext.core_g Catalog.core_e)

let test_h_shares_with_everyone () =
  List.iter
    (fun c ->
      checkb
        (Printf.sprintf "H vs %s" c.Spec.label)
        true
        (Spec.compatible Ext.core_h c))
    Ext.extended

let test_feasibility_filter_prunes () =
  let all = Sharing.paper_combinations Ext.extended in
  let feasible = List.filter (fun c -> Sharing.is_feasible c) all in
  checkb "some combinations pruned" true (List.length feasible < List.length all);
  (* no feasible combination may group F and G *)
  List.iter
    (fun combo ->
      List.iter
        (fun group ->
          let labels = List.map (fun c -> c.Spec.label) group in
          checkb "F and G never together" false
            (List.mem "F" labels && List.mem "G" labels))
        combo.Sharing.groups)
    feasible

let test_extended_planning () =
  let problem =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ()) ~analog_cores:Ext.extended
      ~tam_width:24 ~weight_time:0.5 ()
  in
  let plan = Plan.run problem in
  checki "valid schedule" 0
    (List.length
       (Msoc_tam.Schedule.check plan.Plan.best.Msoc_testplan.Evaluate.schedule));
  (* the chosen combination must respect the compatibility rule *)
  checkb "chosen combination feasible" true
    (Sharing.is_feasible (Plan.sharing plan));
  (* all 8 cores tested: 20 paper tests + 5 extension tests *)
  let analog_placements =
    plan.Plan.best.Msoc_testplan.Evaluate.schedule.Msoc_tam.Schedule.placements
    |> List.filter (fun (p : Msoc_tam.Schedule.placement) ->
           p.Msoc_tam.Schedule.job.Msoc_tam.Job.exclusion <> None)
  in
  checki "25 analog tests scheduled" 25 (List.length analog_placements)

let test_extended_heuristic_tractable () =
  let problem =
    Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ()) ~analog_cores:Ext.extended
      ~tam_width:24 ~weight_time:0.5 ()
  in
  let prepared = Msoc_testplan.Evaluate.prepare problem in
  let heur = Msoc_testplan.Cost_optimizer.run prepared in
  checkb "far fewer evaluations than candidates" true
    (heur.Msoc_testplan.Cost_optimizer.evaluations
    < heur.Msoc_testplan.Cost_optimizer.considered)

let suites =
  [
    ( "catalog_ext",
      [
        Alcotest.test_case "shape" `Quick test_ext_shape;
        Alcotest.test_case "F-G incompatible" `Quick test_f_g_incompatible;
        Alcotest.test_case "H universal" `Quick test_h_shares_with_everyone;
        Alcotest.test_case "feasibility pruning" `Quick test_feasibility_filter_prunes;
        Alcotest.test_case "extended planning" `Slow test_extended_planning;
        Alcotest.test_case "heuristic tractable" `Slow test_extended_heuristic_tractable;
      ] );
  ]
