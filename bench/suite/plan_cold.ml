(* plan-cold: the one-shot CLI path ([msoc_plan plan --verify --json]),
   fully cold, on the paper's instance — p93791s plus analog cores A-E.

   One round is one op per TAM width W in {16, 24, ..., 64}. Over R
   rounds every width runs once at each of the R weights of
   {!Measure.grid}; the seed assigns the weights to rounds and orders
   each round. Set-up loads the SOC file and builds every op's problem,
   so a bad input fails before anything is timed. After the timed
   passes, the exhaustive search runs once per width and is re-priced
   at every op's weight ({!Msoc_testplan.Evaluate.reweight}): each op's
   optimum, against which its plan's quality is checked. *)

open Msoc_testplan
module Verify = Msoc_check.Verify
module Diagnostic = Msoc_check.Diagnostic
module Registry = Msoc_tam.Packer_registry

let widths = [| 16; 24; 32; 40; 48; 56; 64 |]
let smoke_widths = [| 16; 24; 32 |]

(* Rounds of seven ops in a default run: 35 ops. *)
let default_rounds = 5

type op = { width : int; weight_time : float }

type result = {
  plan : Plan.t;
  prepared : Evaluate.prepared;
  diagnostics : Diagnostic.t list;
  json : string;
  tam : Workload.tam;
}

(* What a checked op keeps: its prepared structure is dropped. *)
type kept = { k_plan : Plan.t; k_json : string; k_tam : Workload.tam; memo : Evaluate.cache_stats }

let soc_path ctx = Filename.concat ctx.Workload.root "data/p93791s.soc"

let make_ops ctx ~rounds =
  let rng = Msoc_util.Rng.create ~seed:ctx.Workload.seed in
  let widths = if ctx.Workload.smoke then smoke_widths else widths in
  let weights = Array.map (fun _ -> Measure.shuffled rng (Measure.grid rounds)) widths in
  Array.concat
    (List.init rounds (fun r ->
         Measure.shuffled rng
           (Array.mapi
              (fun i width -> { width; weight_time = weights.(i).(r) })
              widths)))

let problem_of soc op =
  Problem.make ~soc ~analog_cores:Msoc_analog.Catalog.all ~tam_width:op.width
    ~weight_time:op.weight_time ()

(* Exhaustive optimum of every op, one exhaustive search per width, and
   the evaluations one such search takes (Table 4's N_exh). *)
let optima ctx ops =
  let soc = Msoc_itc02.Soc_file.load (soc_path ctx) in
  let optimum = Hashtbl.create 64 and exhaustive_evals = ref 0 in
  Array.iter
    (fun width ->
      match List.filter (fun o -> o.width = width) (Array.to_list ops) with
      | [] -> ()
      | first :: _ as at_width ->
        let base = Evaluate.prepare (problem_of soc first) in
        exhaustive_evals := (Exhaustive.run base).Exhaustive.evaluations;
        List.iter
          (fun o ->
            Hashtbl.replace optimum o
              (Exhaustive.run (Evaluate.reweight base (problem_of soc o)))
                .Exhaustive.best.Evaluate.cost)
          at_width)
    widths;
  (Hashtbl.find optimum, !exhaustive_evals)

(* The op's calls into each layer, in order. *)
let stages ctx op =
  let soc =
    Trace.span "itc02.load" (fun () -> Msoc_itc02.Soc_file.load (soc_path ctx))
  in
  let problem = Trace.span "testplan.problem" (fun () -> problem_of soc op) in
  let prepared =
    Trace.span "testplan.prepare" (fun () -> Evaluate.prepare problem)
  in
  let plan =
    Trace.span "testplan.plan" (fun () ->
        Plan.run_prepared ~search:(Plan.Heuristic { delta = 0.0 }) prepared)
  in
  let diagnostics = Trace.span "check.verify" (fun () -> Verify.plan plan) in
  let json =
    Trace.span "testplan.export" (fun () ->
        Export.to_string (Export.plan_json plan))
  in
  (plan, prepared, diagnostics, json)

let run ctx op =
  let (plan, prepared, diagnostics, json), tam =
    Workload.counting_tam (fun () -> stages ctx op)
  in
  { plan; prepared; diagnostics; json; tam }

(* Error diagnostics over every verified op; anything but 0 is a bug. *)
let error_diagnostics = ref 0

let check _ r =
  let cost = r.plan.Plan.best.Evaluate.cost in
  error_diagnostics := !error_diagnostics + List.length (Diagnostic.errors r.diagnostics);
  if Diagnostic.has_errors r.diagnostics then
    Error (Diagnostic.render_text (Diagnostic.errors r.diagnostics))
  else if not (Float.is_finite cost) then Error "non-finite cost"
  else
    match Export.parse r.json with
    | Ok _ ->
      Ok { k_plan = r.plan; k_json = r.json; k_tam = r.tam; memo = Evaluate.cache_stats r.prepared }
    | Error e -> Error ("plan JSON does not parse: " ^ e)

(* Traced-only probes, beside the op: one staircase pass over every
   digital core (the op designs them in prepare and again in verify),
   and one certified pack of the winning job set. *)
let probe ctx op r =
  let soc = Msoc_itc02.Soc_file.load (soc_path ctx) in
  Trace.span "wrapper.staircase" (fun () ->
      List.iter
        (fun core ->
          ignore (Msoc_wrapper.Pareto.staircase core ~max_width:op.width))
        soc.Msoc_itc02.Types.cores);
  let jobs = Evaluate.jobs_for r.prepared r.plan.Plan.best.Evaluate.combination in
  ignore
    (Trace.span "tam.pack" (fun () ->
         Registry.pack Registry.default ~width:op.width jobs))

(* A plan may cost more than its optimum by at most this share. On these
   ops the heuristic was never more than 0.99% above it when the
   benchmark was defined (the paper: near-optimal). *)
let max_gap = 0.02

(* Plan quality, per op: no heuristic plan costs less than the exhaustive
   optimum or more than [max_gap] above it, and Cost_Optimizer evaluates
   fewer combinations than the exhaustive search (Table 4). An op that
   breaks either counts as failed. *)
let quality_failures optimum exhaustive_evals ops (p : kept Workload.pass) =
  let bad = ref 0 in
  Array.iteri
    (fun i op ->
      match p.Workload.results.(i) with
      | Some k ->
        let cost = k.k_plan.Plan.best.Evaluate.cost and evals = k.k_plan.Plan.evaluations in
        let fail fmt =
          incr bad;
          Printf.eprintf ("plan-cold: W=%d w_T=%g: " ^^ fmt ^^ "\n%!") op.width op.weight_time
        in
        if cost < optimum op -. 1e-9 then
          fail "cost %.6f is below the exhaustive optimum %.6f" cost (optimum op)
        else if cost > optimum op *. (1.0 +. max_gap) then
          fail "cost %.6f is more than %g%% above the optimum %.6f" cost (100.0 *. max_gap)
            (optimum op)
        else if evals >= exhaustive_evals then
          fail "%d evaluations, the exhaustive search needs %d" evals exhaustive_evals
      | None -> ())
    ops;
  !bad

let run_workload ctx =
  let rounds = Workload.rounds ctx ~default:default_rounds in
  let setup () =
    let ops = make_ops ctx ~rounds in
    let soc = Msoc_itc02.Soc_file.load (soc_path ctx) in
    Array.iter (fun op -> ignore (problem_of soc op)) ops;
    ops
  in
  let ops = setup () in
  let ((untraced, traced) as passes) =
    Workload.passes ctx ~setup ~ops ~run:(run ctx) ~check ~probe:(probe ctx)
  in
  (* before the optima, so peak RSS is the ops' own *)
  let end_to_end = Workload.end_to_end untraced in
  let optimum, exhaustive_evals = optima ctx ops in
  let quality_failed =
    quality_failures optimum exhaustive_evals ops untraced
    + Option.fold ~none:0 ~some:(quality_failures optimum exhaustive_evals ops) traced
  in
  let n = Array.length ops in
  let buf = Buffer.create 4096 in
  let costs = ref [] and gaps = ref [] and evals = ref [] in
  Array.iteri
    (fun i op ->
      match untraced.Workload.results.(i) with
      | None -> ()
      | Some k ->
        let cost = k.k_plan.Plan.best.Evaluate.cost in
        costs := cost :: !costs;
        gaps := (100.0 *. (cost -. optimum op) /. optimum op) :: !gaps;
        evals := float_of_int k.k_plan.Plan.evaluations :: !evals;
        Printf.bprintf buf "%d %s %s %s\n" op.width
          (Measure.digest_float op.weight_time)
          (Measure.digest_float (optimum op))
          k.k_json)
    ops;
  let mean l = Measure.mean (Array.of_list l) in
  let layer_metrics =
    match traced with
    | None -> []
    | Some t ->
      let oks = Workload.ok_results t in
      let hits, misses =
        List.fold_left
          (fun (h, m) k -> (h + k.memo.Evaluate.hits, m + k.memo.Evaluate.misses))
          (0, 0) oks
      in
      let ms name = Trace.per_op_ms name ~ops:(Array.length t.Workload.lat_ms) in
      Workload.
        [
          metric "itc02.load_ms" "ms" (ms "itc02.load");
          metric "wrapper.staircase_ms" "ms" (ms "wrapper.staircase");
          metric "tam.pack_ms" "ms" (ms "tam.pack");
          metric "testplan.prepare_ms" "ms" (ms "testplan.prepare");
          metric "testplan.plan_ms" "ms" (ms "testplan.plan");
          metric "testplan.export_ms" "ms" (ms "testplan.export");
          metric "testplan.memo_hit_ratio" "ratio"
            (Measure.ratio (float_of_int hits) (float_of_int (hits + misses)));
          metric "testplan.exhaustive_evals" "count" (float_of_int exhaustive_evals);
          metric "testplan.evals_per_op" "count" (mean !evals);
          metric "testplan.cost_gap_pct" "%" (mean !gaps);
          metric "testplan.plan_cost_mean" "cost" (mean !costs);
          metric "check.verify_ms" "ms" (ms "check.verify");
          metric "check.error_diagnostics" "count" (float_of_int !error_diagnostics);
        ]
      @ Workload.tam_metrics (List.map (fun k -> k.k_tam) oks)
      @ Workload.gc_metrics untraced.Workload.gc ~ops:n
      @ Workload.trace_metrics untraced t
  in
  {
    Workload.attempted = Workload.attempted passes;
    failed = Workload.failed passes + quality_failed;
    end_to_end;
    per_layer = layer_metrics;
    digest = Workload.digest_of buf;
    params =
      [
        ("ops", Export.Int n);
        ( "widths",
          Export.List
            (List.map (fun w -> Export.Int w)
               (List.sort_uniq compare
                  (Array.to_list (Array.map (fun o -> o.width) ops)))) );
        ("search", Export.String "heuristic delta=0");
        ("exhaustive_evals", Export.Int exhaustive_evals);
        ("evals_per_op", Export.Float (mean !evals));
        ("cost_gap_pct", Export.Float (mean !gaps));
        ("plan_cost_mean", Export.Float (mean !costs));
      ];
  }
