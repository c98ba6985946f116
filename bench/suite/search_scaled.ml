(* search-scaled: the anytime search strategies past the enumeration
   guard. Each op plans p93791s with n scaled analog cores
   ({!Msoc_testplan.Instances.scaled_analog}, n in 11..18: Bell(11) is
   the first count past the 200k enumeration guard) under an evaluation
   budget of 24 and no time limit, so every result is deterministic.

   One round is one op per n. Round r gives n the TAM width
   W = {24, 32, 40}[(n + r) mod 3] and alternates branch-and-bound and
   seeded annealing on the parity of n + r, so six rounds (a default
   run) cover every (n, W, strategy) triple. The ops' weights are the
   {!Measure.grid} points, paired with the ops by a fixed permutation;
   the seed picks the annealing seeds and orders each round. *)

open Msoc_testplan
module Strategy = Msoc_search.Strategy
module Budget = Msoc_search.Budget
module Stats = Msoc_search.Stats
module Diagnostic = Msoc_check.Diagnostic
module Registry = Msoc_tam.Packer_registry

let cores = [| 11; 12; 13; 14; 15; 16; 17; 18 |]
let smoke_cores = [| 11; 12 |]
let widths = [| 24; 32; 40 |]
let max_evals = 24

(* Rounds of eight ops in a default run: 48 ops. *)
let default_rounds = 6

type op = {
  n : int;
  width : int;
  weight_time : float;
  kind : Strategy.kind;
  problem : Problem.t;
}

(* Set-up builds every op's instance and confirms it is past the
   enumeration guard: exhaustive search and the paper's heuristic must
   refuse it. *)
let instance ~n ~width ~weight_time =
  let problem =
    Instances.with_analog ~weight_time ~tam_width:width
      ~analog_cores:(Instances.scaled_analog ~n) ()
  in
  match Problem.combinations problem with
  | _ -> failwith (Printf.sprintf "n = %d is within the enumeration guard" n)
  | exception Problem.Combination_overflow _ -> problem

type result = {
  outcome : Strategy.outcome;
  plan : Plan.t;
  prepared : Evaluate.prepared;
  json : string;
  tam : Workload.tam;
}

(* What a checked op keeps: its prepared structure is dropped. *)
type kept = { k_outcome : Strategy.outcome; k_plan : Plan.t; k_json : string; k_tam : Workload.tam }

let make_ops ctx ~rounds =
  let rng = Msoc_util.Rng.create ~seed:ctx.Workload.seed in
  let cores = if ctx.Workload.smoke then smoke_cores else cores in
  let weights =
    Measure.shuffled (Msoc_util.Rng.create ~seed:0) (Measure.grid (rounds * Array.length cores))
  in
  Array.concat
    (List.init rounds (fun r ->
         Measure.shuffled rng
           (Array.mapi
              (fun i n ->
                let kind =
                  if (n + r) mod 2 = 0 then Strategy.Bnb
                  else Strategy.Anneal { seed = 1 + Msoc_util.Rng.int rng ~bound:1_000_000 }
                in
                let width = widths.((n + r) mod Array.length widths) in
                let weight_time = weights.((r * Array.length cores) + i) in
                { n; width; weight_time; kind; problem = instance ~n ~width ~weight_time })
              cores)))

(* The op's calls into each layer, in order. *)
let stages op =
  let prepared =
    Trace.span "testplan.prepare" (fun () -> Evaluate.prepare op.problem)
  in
  let outcome =
    Trace.span "search.run" (fun () ->
        Strategy.run ~budget:(Budget.make ~max_evals ()) op.kind prepared)
  in
  let plan =
    Trace.span "testplan.plan" (fun () ->
        Strategy.plan_of_outcome prepared outcome)
  in
  let json =
    Trace.span "testplan.export" (fun () ->
        Export.to_string (Export.plan_json plan))
  in
  (outcome, plan, prepared, json)

let run op =
  let (outcome, plan, prepared, json), tam = Workload.counting_tam (fun () -> stages op) in
  { outcome; plan; prepared; json; tam }

(* Strategy.run has already re-verified the plan (it raises otherwise);
   this re-checks what it returned, and brackets its cost: never above
   the no-sharing baseline every strategy evaluates (a schedule-memo hit
   here), never below the admissible lower bound. *)
let check op r =
  let stats = r.outcome.Strategy.stats in
  let cost = r.plan.Plan.best.Evaluate.cost in
  let cores = op.problem.Problem.analog_cores in
  let baseline =
    (Evaluate.evaluate r.prepared (Msoc_analog.Sharing.no_sharing cores)).Evaluate.cost
  in
  let floor =
    Msoc_search.Bound.lower_bound (Msoc_search.Bound.create r.prepared) ~groups:[]
      ~unassigned:cores
  in
  if Diagnostic.has_errors r.outcome.Strategy.diagnostics then
    Error (Diagnostic.render_text (Diagnostic.errors r.outcome.Strategy.diagnostics))
  else if not (Float.is_finite cost) then Error "non-finite cost"
  else if stats.Stats.evaluations < 1 then Error "no evaluation"
  else if cost > baseline +. 1e-9 then
    Error (Printf.sprintf "cost %.6f above the no-sharing baseline %.6f" cost baseline)
  else if cost < floor -. 1e-9 then
    Error (Printf.sprintf "cost %.6f below the admissible bound %.6f" cost floor)
  else
    match Export.parse r.json with
    | Ok _ -> Ok { k_outcome = r.outcome; k_plan = r.plan; k_json = r.json; k_tam = r.tam }
    | Error e -> Error ("plan JSON does not parse: " ^ e)

let probe op r =
  Trace.span "wrapper.staircase" (fun () ->
      List.iter
        (fun core ->
          ignore (Msoc_wrapper.Pareto.staircase core ~max_width:op.width))
        (Msoc_itc02.Synthetic.p93791s ()).Msoc_itc02.Types.cores);
  let jobs = Evaluate.jobs_for r.prepared r.plan.Plan.best.Evaluate.combination in
  ignore
    (Trace.span "tam.pack" (fun () ->
         Registry.pack Registry.default ~width:op.width jobs))

let run_workload ctx =
  let rounds = Workload.rounds ctx ~default:default_rounds in
  let setup () = make_ops ctx ~rounds in
  let ops = setup () in
  let ((untraced, traced) as passes) =
    Workload.passes ctx ~setup ~ops ~run ~check ~probe
  in
  let n = Array.length ops in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i op ->
      match untraced.Workload.results.(i) with
      | None -> ()
      | Some r ->
        Printf.bprintf buf "%d %d %s %s %s\n" op.n op.width
          (Strategy.name op.kind)
          (Measure.digest_float op.weight_time)
          r.k_json)
    ops;
  let oks = Workload.ok_results untraced in
  let sum rs f = List.fold_left (fun acc r -> acc +. f r) 0.0 rs in
  let stat f r = float_of_int (f r.k_outcome.Strategy.stats) in
  let evals_per_op =
    Measure.per (List.length oks) (sum oks (stat (fun s -> s.Stats.evaluations)))
  in
  let cost_mean =
    Measure.per (List.length oks) (sum oks (fun r -> r.k_plan.Plan.best.Evaluate.cost))
  in
  let layer_metrics =
    match traced with
    | None -> []
    | Some t ->
      let oks = Workload.ok_results t in
      let total f = sum oks f in
      let per_op f = Measure.per (List.length oks) (total f) in
      let ms name = Trace.per_op_ms name ~ops:(Array.length t.Workload.lat_ms) in
      let to_best r =
        let s = r.k_outcome.Strategy.stats in
        match List.rev s.Stats.incumbent_trace with
        | last :: _ ->
          Measure.ratio (float_of_int last.Stats.at_eval)
            (float_of_int s.Stats.evaluations)
        | [] -> 1.0
      in
      Workload.
        [
          metric "wrapper.staircase_ms" "ms" (ms "wrapper.staircase");
          metric "tam.pack_ms" "ms" (ms "tam.pack");
          metric "testplan.prepare_ms" "ms" (ms "testplan.prepare");
          metric "testplan.plan_ms" "ms" (ms "testplan.plan");
          metric "testplan.export_ms" "ms" (ms "testplan.export");
          metric "testplan.evals_per_op" "count" evals_per_op;
          metric "testplan.plan_cost_mean" "cost" cost_mean;
          metric "search.run_ms" "ms" (ms "search.run");
          metric "search.nodes_expanded_per_op" "count"
            (per_op (stat (fun s -> s.Stats.nodes_expanded)));
          metric "search.prune_ratio" "ratio"
            (Measure.ratio
               (total (stat (fun s -> s.Stats.nodes_pruned)))
               (total
                  (stat (fun s -> s.Stats.nodes_pruned + s.Stats.nodes_expanded))));
          metric "search.moves_per_op" "count"
            (per_op (stat (fun s -> s.Stats.moves)));
          metric "search.accept_ratio" "ratio"
            (Measure.ratio
               (total (stat (fun s -> s.Stats.accepted_moves)))
               (total (stat (fun s -> s.Stats.moves))));
          metric "search.memo_hit_ratio" "ratio"
            (Measure.ratio
               (total (stat (fun s -> s.Stats.cache_hits)))
               (total (stat (fun s -> s.Stats.cache_hits + s.Stats.cache_misses))));
          metric "search.evals_to_best_ratio" "ratio" (per_op to_best);
        ]
      @ Workload.tam_metrics (List.map (fun r -> r.k_tam) oks)
      @ Workload.gc_metrics untraced.Workload.gc ~ops:n
      @ Workload.trace_metrics untraced t
  in
  {
    Workload.attempted = Workload.attempted passes;
    failed = Workload.failed passes;
    end_to_end = Workload.end_to_end untraced;
    per_layer = layer_metrics;
    digest = Workload.digest_of buf;
    params =
      [
        ("ops", Export.Int n);
        ( "analog_cores",
          Export.List
            (List.map (fun c -> Export.Int c)
               (List.sort_uniq compare (Array.to_list (Array.map (fun o -> o.n) ops)))) );
        ("widths", Export.List (Array.to_list (Array.map (fun w -> Export.Int w) widths)));
        ("strategies", Export.String "bnb / anneal alternating");
        ("max_evals", Export.Int max_evals);
        ("evals_per_op", Export.Float evals_per_op);
        ("plan_cost_mean", Export.Float cost_mean);
      ];
  }
