(* Tests for Msoc_testplan: problem validation, evaluation/cost model,
   exhaustive vs Cost_Optimizer, and end-to-end planning. *)

module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Exhaustive = Msoc_testplan.Exhaustive
module Cost_optimizer = Msoc_testplan.Cost_optimizer
module Plan = Msoc_testplan.Plan
module Instances = Msoc_testplan.Instances
module Report = Msoc_testplan.Report
module Sharing = Msoc_analog.Sharing
module Catalog = Msoc_analog.Catalog
module Schedule = Msoc_tam.Schedule

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

(* A small instance keeps the suite fast; p93791m is exercised by the
   integration suite. *)
let small_problem ?(weight_time = 0.5) ?(tam_width = 24) () =
  Fixtures.d281m ~weight_time ~tam_width ()

let prepared = lazy (Evaluate.prepare (small_problem ()))

(* --- Problem --- *)

let test_problem_validation () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "weight 1.5" (fun () ->
      Problem.make ~soc ~analog_cores:Catalog.all ~tam_width:32 ~weight_time:1.5 ());
  expect_invalid "zero width" (fun () ->
      Problem.make ~soc ~analog_cores:Catalog.all ~tam_width:0 ~weight_time:0.5 ());
  expect_invalid "width above max_tam_width" (fun () ->
      Problem.make ~soc ~analog_cores:Catalog.all ~tam_width:1025 ~weight_time:0.5 ());
  ignore (Problem.make ~soc ~analog_cores:Catalog.all ~tam_width:1024 ~weight_time:0.5 ());
  expect_invalid "no analog cores" (fun () ->
      Problem.make ~soc ~analog_cores:[] ~tam_width:32 ~weight_time:0.5 ());
  (* core D needs 10 wires *)
  expect_invalid "analog wider than TAM" (fun () ->
      Problem.make ~soc ~analog_cores:[ Catalog.core_d ] ~tam_width:8 ~weight_time:0.5 ())

(* NaN fails every comparison, so a range check written as
   [w < 0 || w > 1] lets it through; Plan.run then dies on it. *)
let test_problem_weight_range () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let make weight_time =
    Problem.make ~soc ~analog_cores:Catalog.all ~tam_width:32 ~weight_time ()
  in
  List.iter
    (fun w ->
      Alcotest.check_raises (Printf.sprintf "weight %g" w)
        (Invalid_argument "Problem.make: weight_time out of [0, 1]") (fun () ->
          ignore (make w)))
    [ Float.nan; -0.1; 1.1 ];
  List.iter
    (fun w ->
      checkf 0.0 (Printf.sprintf "weight %g kept" w) w (make w).Problem.weight_time)
    [ 0.0; 1.0 ]

let test_problem_weights_complement () =
  let p = small_problem ~weight_time:0.3 () in
  checkf 1e-9 "w_A = 1 - w_T" 0.7 p.Problem.weight_area

let test_problem_combinations_filtered () =
  let p = small_problem () in
  let combos = Problem.combinations p in
  checkb "non-empty" true (combos <> []);
  List.iter
    (fun c ->
      checkb "feasible" true (Sharing.is_feasible c);
      checkb "acceptable area" true (Msoc_analog.Area.acceptable c))
    combos

let test_problem_cde_combination_count () =
  (* 3 analog cores (C, D, E): partitions with one shared group of
     size 2 or 3: C(3,2) + 1 = 4. *)
  let p = small_problem () in
  checki "4 paper combinations for 3 cores" 4 (List.length (Problem.combinations p));
  (* all partitions of 3 distinct cores: Bell(3) = 5 *)
  checki "5 total partitions" 5 (List.length (Problem.all_combinations p))

(* --- Evaluate --- *)

let test_evaluate_full_sharing_is_reference () =
  let prep = Lazy.force prepared in
  let full = Sharing.full_sharing (Evaluate.problem prep).Problem.analog_cores in
  let e = Evaluate.evaluate prep full in
  checkf 1e-6 "C_T(full sharing) = 100" 100.0 e.Evaluate.c_t;
  checki "makespan = reference" (Evaluate.reference_makespan prep) e.Evaluate.makespan

let test_evaluate_schedules_are_valid () =
  let prep = Lazy.force prepared in
  List.iter
    (fun c ->
      let e = Evaluate.evaluate prep c in
      checki
        (Printf.sprintf "valid schedule for %s" (Sharing.short_name c))
        0
        (List.length (Schedule.check e.Evaluate.schedule)))
    (Problem.combinations (Evaluate.problem prep))

let test_evaluate_cost_is_weighted_sum () =
  let prep = Lazy.force prepared in
  let c = List.nth (Problem.combinations (Evaluate.problem prep)) 0 in
  let e = Evaluate.evaluate prep c in
  let p = Evaluate.problem prep in
  checkf 1e-9 "C = w_T C_T + w_A C_A"
    ((p.Problem.weight_time *. e.Evaluate.c_t) +. (p.Problem.weight_area *. e.Evaluate.c_a))
    e.Evaluate.cost

let test_evaluate_job_counts () =
  let prep = Lazy.force prepared in
  let p = Evaluate.problem prep in
  let combo = Sharing.no_sharing p.Problem.analog_cores in
  let jobs = Evaluate.jobs_for prep combo in
  let digital = List.length p.Problem.soc.Msoc_itc02.Types.cores in
  let analog_tests =
    List.fold_left
      (fun acc c -> acc + List.length c.Msoc_analog.Spec.tests)
      0 p.Problem.analog_cores
  in
  checki "one job per digital core and analog test" (digital + analog_tests)
    (List.length jobs)

let test_evaluate_exclusion_groups_match_sharing () =
  let prep = Lazy.force prepared in
  let p = Evaluate.problem prep in
  let combo = Sharing.full_sharing p.Problem.analog_cores in
  let jobs = Evaluate.jobs_for prep combo in
  let groups =
    List.filter_map (fun j -> j.Msoc_tam.Job.exclusion) jobs
    |> List.sort_uniq compare
  in
  checki "single exclusion group under full sharing" 1 (List.length groups)

let test_preliminary_cost_cheap_and_sane () =
  let prep = Lazy.force prepared in
  List.iter
    (fun c ->
      let pre = Evaluate.preliminary_cost prep c in
      let full = (Evaluate.evaluate prep c).Evaluate.cost in
      checkb "pre in (0, 200)" true (pre > 0.0 && pre < 200.0);
      (* The preliminary cost replaces the scheduled makespan with the
         analog lower bound, so it under-estimates the time share: it
         must not exceed the full cost (modulo normalization slack). *)
      checkb "pre <= full + 25" true (pre <= full +. 25.0))
    (Problem.combinations (Evaluate.problem prep))

(* --- Exhaustive --- *)

let test_exhaustive_evaluates_all () =
  let prep = Lazy.force prepared in
  let r = Exhaustive.run prep in
  checki "all combinations" (List.length (Problem.combinations (Evaluate.problem prep)))
    r.Exhaustive.evaluations;
  checkb "best is min" true
    (List.for_all
       (fun e -> e.Evaluate.cost >= r.Exhaustive.best.Evaluate.cost)
       r.Exhaustive.all)

let test_exhaustive_custom_candidates () =
  let prep = Lazy.force prepared in
  let p = Evaluate.problem prep in
  let only = [ Sharing.full_sharing p.Problem.analog_cores ] in
  let r = Exhaustive.run ~combinations:only prep in
  checki "one evaluation" 1 r.Exhaustive.evaluations

(* --- Cost_optimizer --- *)

let test_heuristic_fewer_evaluations () =
  let prep = Lazy.force prepared in
  let exh = Exhaustive.run prep in
  let heur = Cost_optimizer.run prep in
  checkb "strictly fewer evaluations" true
    (heur.Cost_optimizer.evaluations < exh.Exhaustive.evaluations);
  checki "considered everything" exh.Exhaustive.evaluations heur.Cost_optimizer.considered

let test_heuristic_near_optimal () =
  (* The paper: optimal in all but one of 15 cases. Assert a 5% bound
     across widths and weights on the small instance. *)
  List.iter
    (fun (w, wt) ->
      let prep = Evaluate.prepare (small_problem ~tam_width:w ~weight_time:wt ()) in
      let exh = Exhaustive.run prep in
      let heur = Cost_optimizer.run prep in
      let gap =
        (heur.Cost_optimizer.best.Evaluate.cost -. exh.Exhaustive.best.Evaluate.cost)
        /. exh.Exhaustive.best.Evaluate.cost
      in
      checkb
        (Printf.sprintf "gap %.3f%% at W=%d w_T=%.2f" (100.0 *. gap) w wt)
        true (gap <= 0.05))
    [ (16, 0.5); (24, 0.5); (24, 0.25); (24, 0.75); (32, 0.5) ]

let test_heuristic_delta_relaxation_recovers_optimum () =
  (* With delta large enough nothing is pruned, so the heuristic
     matches the exhaustive optimum exactly. *)
  let prep = Lazy.force prepared in
  let exh = Exhaustive.run prep in
  let heur = Cost_optimizer.run ~delta:1000.0 prep in
  checkf 1e-9 "same optimum" exh.Exhaustive.best.Evaluate.cost
    heur.Cost_optimizer.best.Evaluate.cost;
  checki "same work as exhaustive" exh.Exhaustive.evaluations
    heur.Cost_optimizer.evaluations

let test_heuristic_delta_monotone_evaluations () =
  let prep = Lazy.force prepared in
  let evals d = (Cost_optimizer.run ~delta:d prep).Cost_optimizer.evaluations in
  checkb "more delta, no fewer evaluations" true
    (evals 0.0 <= evals 5.0 && evals 5.0 <= evals 50.0)

let test_heuristic_rejects_negative_delta () =
  let prep = Lazy.force prepared in
  match Cost_optimizer.run ~delta:(-1.0) prep with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delta accepted"

let test_heuristic_reduction_pct () =
  let prep = Lazy.force prepared in
  let exh = Exhaustive.run prep in
  let heur = Cost_optimizer.run prep in
  let pct = Cost_optimizer.evaluation_reduction_pct heur ~exhaustive:exh in
  checkb "0 <= reduction < 100" true (pct >= 0.0 && pct < 100.0)

(* --- Plan / Report --- *)

let test_plan_end_to_end () =
  let plan = Plan.run (small_problem ()) in
  checkb "positive makespan" true (Plan.makespan plan > 0);
  checki "valid schedule" 0
    (List.length (Schedule.check plan.Plan.best.Evaluate.schedule));
  checkb "sharing selected from candidates" true
    (List.exists
       (Sharing.equal (Plan.sharing plan))
       (Problem.combinations plan.Plan.problem))

let test_plan_exhaustive_matches_direct () =
  let problem = small_problem () in
  let plan = Plan.run ~search:Plan.Exhaustive_search problem in
  let direct = Exhaustive.run (Evaluate.prepare problem) in
  checkf 1e-9 "same cost" direct.Exhaustive.best.Evaluate.cost
    plan.Plan.best.Evaluate.cost

let test_plan_digital_operating_points () =
  let plan = Plan.run (small_problem ()) in
  (* the wrapper design the plan commits to: each digital core's
     placement *)
  let digital = List.map (fun (c : Msoc_itc02.Types.core) -> c.Msoc_itc02.Types.name) plan.Plan.problem.Problem.soc.Msoc_itc02.Types.cores in
  let points =
    List.filter_map
      (fun (p : Msoc_tam.Schedule.placement) ->
        let label = p.Msoc_tam.Schedule.job.Msoc_tam.Job.label in
        if List.mem label digital then Some (label, p.Msoc_tam.Schedule.width, p.Msoc_tam.Schedule.time)
        else None)
      plan.Plan.best.Evaluate.schedule.Msoc_tam.Schedule.placements
  in
  checki "one per digital core" 8 (List.length points);
  List.iter
    (fun (_, width, time) ->
      checkb "sane point" true (width >= 1 && width <= 24 && time > 0))
    points

let test_weights_steer_choice () =
  (* Pure-time weighting picks a faster architecture than pure-area
     weighting; pure-area picks at least as cheap a C_A. *)
  let plan_time = Plan.run (small_problem ~weight_time:1.0 ()) in
  let plan_area = Plan.run (small_problem ~weight_time:0.0 ()) in
  checkb "time-weighted is no slower" true
    (Plan.makespan plan_time <= Plan.makespan plan_area);
  checkb "area-weighted C_A no worse" true
    (plan_area.Plan.best.Evaluate.c_a <= plan_time.Plan.best.Evaluate.c_a +. 1e-9)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_report_strings () =
  let plan = Plan.run (small_problem ()) in
  let summary = Report.summary plan in
  checkb "summary mentions SOC" true (contains summary "d281s");
  checkb "wrapper table non-empty" true (String.length (Report.wrapper_table plan) > 0);
  checkb "schedule table has rows" true
    (List.length (String.split_on_char '\n' (Report.schedule_table plan)) > 10)

(* --- Instances --- *)

let test_instances_scaled_analog () =
  let cores = Instances.scaled_analog ~n:8 in
  checki "8 cores" 8 (List.length cores);
  let labels = List.map (fun c -> c.Msoc_analog.Spec.label) cores in
  checki "labels distinct" 8 (List.length (List.sort_uniq compare labels));
  (* the copies are perturbed, not identical *)
  let base = List.nth cores 0 and copy = List.nth cores 5 in
  checkb "copy differs from template" false
    (Msoc_analog.Spec.same_tests base copy)

let test_instances_p93791m_shape () =
  let p = Instances.p93791m ~tam_width:32 () in
  checki "32 digital cores" 32 (List.length p.Problem.soc.Msoc_itc02.Types.cores);
  checki "5 analog cores" 5 (List.length p.Problem.analog_cores);
  checki "26 candidate combinations" 26 (List.length (Problem.combinations p))

let suites =
  [
    ( "testplan.problem",
      [
        Alcotest.test_case "validation" `Quick test_problem_validation;
        Alcotest.test_case "weight_time range" `Quick test_problem_weight_range;
        Alcotest.test_case "weights complement" `Quick test_problem_weights_complement;
        Alcotest.test_case "combinations filtered" `Quick test_problem_combinations_filtered;
        Alcotest.test_case "combination counts" `Quick test_problem_cde_combination_count;
      ] );
    ( "testplan.evaluate",
      [
        Alcotest.test_case "full sharing is reference" `Quick test_evaluate_full_sharing_is_reference;
        Alcotest.test_case "schedules valid" `Quick test_evaluate_schedules_are_valid;
        Alcotest.test_case "cost is weighted sum" `Quick test_evaluate_cost_is_weighted_sum;
        Alcotest.test_case "job counts" `Quick test_evaluate_job_counts;
        Alcotest.test_case "exclusion groups" `Quick test_evaluate_exclusion_groups_match_sharing;
        Alcotest.test_case "preliminary cost" `Quick test_preliminary_cost_cheap_and_sane;
      ] );
    ( "testplan.exhaustive",
      [
        Alcotest.test_case "evaluates all" `Quick test_exhaustive_evaluates_all;
        Alcotest.test_case "custom candidates" `Quick test_exhaustive_custom_candidates;
      ] );
    ( "testplan.heuristic",
      [
        Alcotest.test_case "fewer evaluations" `Quick test_heuristic_fewer_evaluations;
        Alcotest.test_case "near optimal" `Slow test_heuristic_near_optimal;
        Alcotest.test_case "delta relaxation" `Quick test_heuristic_delta_relaxation_recovers_optimum;
        Alcotest.test_case "delta monotone" `Quick test_heuristic_delta_monotone_evaluations;
        Alcotest.test_case "negative delta" `Quick test_heuristic_rejects_negative_delta;
        Alcotest.test_case "reduction pct" `Quick test_heuristic_reduction_pct;
      ] );
    ( "testplan.plan",
      [
        Alcotest.test_case "end to end" `Quick test_plan_end_to_end;
        Alcotest.test_case "exhaustive matches direct" `Quick test_plan_exhaustive_matches_direct;
        Alcotest.test_case "digital operating points" `Quick test_plan_digital_operating_points;
        Alcotest.test_case "weights steer choice" `Quick test_weights_steer_choice;
        Alcotest.test_case "report strings" `Quick test_report_strings;
      ] );
    ( "testplan.instances",
      [
        Alcotest.test_case "scaled analog" `Quick test_instances_scaled_analog;
        Alcotest.test_case "p93791m shape" `Quick test_instances_p93791m_shape;
      ] );
  ]
