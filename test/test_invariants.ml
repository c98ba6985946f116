(* Cross-cutting algebraic invariants: identities that tie the cost
   model, the sharing algebra and the scheduling layer together. *)

module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area
module Bounds = Msoc_analog.Bounds
module Pareto = Msoc_wrapper.Pareto
module Design = Msoc_wrapper.Design
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let close = Msoc_util.Numeric.close

(* --- sharing algebra --- *)

let test_partitions_cover_exactly () =
  List.iter
    (fun combo ->
      let labels =
        List.concat_map (List.map (fun c -> c.Spec.label)) combo.Sharing.groups
        |> List.sort compare
      in
      Alcotest.(check (list string))
        (Sharing.full_name combo)
        [ "A"; "B"; "C"; "D"; "E" ]
        labels)
    (Sharing.all_combinations Catalog.all)

let test_paper_subset_of_all () =
  let all = Sharing.all_combinations Catalog.all in
  List.iter
    (fun combo ->
      checkb (Sharing.short_name combo) true
        (List.exists (Sharing.equal combo) all))
    (Sharing.paper_combinations Catalog.all)

let test_sum_of_wrapper_usages_is_total () =
  (* For any partition, the wrapper usages sum to the same total: the
     analog test time is conserved, only its distribution changes. *)
  List.iter
    (fun combo ->
      let sum =
        List.fold_left (fun acc g -> acc + Bounds.wrapper_usage g) 0
          combo.Sharing.groups
      in
      checki (Sharing.full_name combo) Catalog.total_time sum)
    (Sharing.all_combinations Catalog.all)

let test_lower_bound_between_mean_and_total () =
  (* max of parts >= total / #parts, and <= total *)
  List.iter
    (fun combo ->
      let lb = Bounds.lower_bound combo in
      let parts = List.length combo.Sharing.groups in
      checkb "lb >= total / parts" true (lb * parts >= Catalog.total_time);
      checkb "lb <= total" true (lb <= Catalog.total_time))
    (Sharing.all_combinations Catalog.all)

(* --- Equation 1 identities --- *)

let test_ca_of_singletons_is_100 () =
  (* any model: the no-sharing combination costs exactly 100 *)
  let merged = { Area.default_model with Area.a_max_rule = Area.Merged_requirement } in
  List.iter
    (fun model ->
      checkb "100" true
        (close ~rel:1e-12 (Area.cost_ca ~model (Sharing.no_sharing Catalog.all)) 100.0))
    [ Area.default_model; merged ]

let test_ca_zero_routing_factor_monotone () =
  (* with k = 0 (free routing), merging groups can only reduce C_A
     under the max-individual rule *)
  let model = { Area.default_model with Area.routing = Area.Uniform 0.0 } in
  let pair = Sharing.make [ [ Catalog.core_a; Catalog.core_b ];
                            [ Catalog.core_c ]; [ Catalog.core_d ]; [ Catalog.core_e ] ] in
  let merged = Sharing.make [ [ Catalog.core_a; Catalog.core_b; Catalog.core_c ];
                              [ Catalog.core_d ]; [ Catalog.core_e ] ] in
  checkb "merge cheaper at k=0" true
    (Area.cost_ca ~model merged <= Area.cost_ca ~model pair);
  checkb "pair cheaper than none at k=0" true
    (Area.cost_ca ~model pair < 100.0)

let test_ca_merged_rule_dominates_max_rule () =
  let max_rule = Area.default_model in
  let merged_rule = { max_rule with Area.a_max_rule = Area.Merged_requirement } in
  List.iter
    (fun combo ->
      checkb (Sharing.short_name combo) true
        (Area.cost_ca ~model:merged_rule combo
        >= Area.cost_ca ~model:max_rule combo -. 1e-9))
    (Sharing.paper_combinations Catalog.all)

(* --- staircase / job consistency --- *)

let test_job_time_equals_design_time () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  List.iter
    (fun core ->
      let j = Job.of_core core ~max_width:16 in
      let direct = Design.run (Design.kernel core ~max_width:16) ~width:16 in
      (* the staircase gives the best time over all widths <= 16,
         which is at least as good as the width-16 design *)
      checkb core.Msoc_itc02.Types.name true
        (Pareto.time_at j.Job.staircase ~width:16 <= direct))
    soc.Msoc_itc02.Types.cores

let test_schedule_busy_cycles_conserved () =
  (* busy wire-cycles (efficiency × width × makespan) = Σ width·time
     regardless of packing decisions *)
  let prepared = Evaluate.prepare (Fixtures.d281m ~tam_width:24 ()) in
  let problem = Evaluate.problem prepared in
  List.iter
    (fun combo ->
      let e = Evaluate.evaluate prepared combo in
      let expected =
        e.Evaluate.schedule.Schedule.placements
        |> List.fold_left
             (fun acc (p : Schedule.placement) ->
               acc + (p.Schedule.width * p.Schedule.time))
             0
      in
      let s = e.Evaluate.schedule in
      checkb (Sharing.short_name combo) true
        (Msoc_util.Numeric.close (Schedule.efficiency s)
           (float_of_int expected
           /. float_of_int (s.Schedule.total_width * Schedule.makespan s))))
    (Msoc_testplan.Problem.combinations problem)

let test_evaluation_count_identity () =
  (* heuristic bookkeeping: evaluations = #groups + Σ (|surviving| - 1) *)
  let prepared = Evaluate.prepare (Msoc_testplan.Instances.p93791m ~tam_width:40 ()) in
  let r = Msoc_testplan.Cost_optimizer.run prepared in
  let candidates = Msoc_testplan.Problem.combinations (Evaluate.problem prepared) in
  let groups =
    Msoc_util.Combinat.group_by Sharing.degree_signature candidates
  in
  let surviving_sizes =
    r.Msoc_testplan.Cost_optimizer.surviving_groups
    |> List.map (fun s -> List.length (List.assoc s groups))
  in
  checki "N = groups + extras"
    (List.length groups
    + List.fold_left (fun acc n -> acc + n - 1) 0 surviving_sizes)
    r.Msoc_testplan.Cost_optimizer.evaluations

let test_plan_cost_recomputable () =
  let plan = Plan.run (Fixtures.d281m ~weight_time:0.3 ~tam_width:24 ()) in
  let p = plan.Plan.problem in
  let e = plan.Plan.best in
  let c_t =
    100.0 *. float_of_int e.Evaluate.makespan
    /. float_of_int plan.Plan.reference_makespan
  in
  let c_a = Area.cost_ca ~model:p.Msoc_testplan.Problem.area_model (Plan.sharing plan) in
  checkb "cost = 0.3 C_T + 0.7 C_A" true
    (close ~rel:1e-9 e.Evaluate.cost ((0.3 *. c_t) +. (0.7 *. c_a)))

let suites =
  [
    ( "invariants.sharing",
      [
        Alcotest.test_case "partitions cover exactly" `Quick test_partitions_cover_exactly;
        Alcotest.test_case "paper subset of all" `Quick test_paper_subset_of_all;
        Alcotest.test_case "usage sums conserved" `Quick test_sum_of_wrapper_usages_is_total;
        Alcotest.test_case "LB between mean and total" `Quick test_lower_bound_between_mean_and_total;
      ] );
    ( "invariants.area",
      [
        Alcotest.test_case "singletons cost 100" `Quick test_ca_of_singletons_is_100;
        Alcotest.test_case "k=0 merge monotone" `Quick test_ca_zero_routing_factor_monotone;
        Alcotest.test_case "merged rule dominates" `Quick test_ca_merged_rule_dominates_max_rule;
      ] );
    ( "invariants.scheduling",
      [
        Alcotest.test_case "job vs design time" `Quick test_job_time_equals_design_time;
        Alcotest.test_case "busy cycles conserved" `Quick test_schedule_busy_cycles_conserved;
        Alcotest.test_case "evaluation count identity" `Slow test_evaluation_count_identity;
        Alcotest.test_case "plan cost recomputable" `Quick test_plan_cost_recomputable;
      ] );
  ]
