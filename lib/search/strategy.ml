module Sharing = Msoc_analog.Sharing
module Evaluate = Msoc_testplan.Evaluate
module Problem = Msoc_testplan.Problem
module Plan = Msoc_testplan.Plan
module Export = Msoc_testplan.Export
module Exhaustive = Msoc_testplan.Exhaustive
module Cost_optimizer = Msoc_testplan.Cost_optimizer
module Verify = Msoc_check.Verify
module Diagnostic = Msoc_check.Diagnostic

type kind =
  | Exhaustive
  | Repr of { delta : float }
  | Bnb
  | Anneal of { seed : int }
  | Portfolio of { seeds : int list }

let name = function
  | Exhaustive -> "exhaustive"
  | Repr _ -> "repr"
  | Bnb -> "bnb"
  | Anneal _ -> "anneal"
  | Portfolio _ -> "portfolio"

let names = [ "exhaustive"; "repr"; "bnb"; "anneal"; "portfolio" ]

let of_name ?(delta = 0.0) ?(seed = 1) ?(seeds = [ 1; 2; 3 ]) s =
  match String.lowercase_ascii (String.trim s) with
  | "exhaustive" -> Some Exhaustive
  | "repr" | "heuristic" -> Some (Repr { delta })
  | "bnb" | "branch-and-bound" -> Some Bnb
  | "anneal" | "sa" -> Some (Anneal { seed })
  | "portfolio" -> Some (Portfolio { seeds })
  | _ -> None

let kind_json kind =
  let tag = ("strategy", Export.String (name kind)) in
  match kind with
  | Exhaustive | Bnb -> Export.Object [ tag ]
  | Repr { delta } -> Export.Object [ tag; ("delta", Export.Float delta) ]
  | Anneal { seed } -> Export.Object [ tag; ("seed", Export.Int seed) ]
  | Portfolio { seeds } ->
    Export.Object
      [ tag; ("seeds", Export.List (List.map (fun s -> Export.Int s) seeds)) ]

let request_json ?max_evals ?time_limit_ms kind =
  let budget_fields =
    (match max_evals with
    | None -> []
    | Some n -> [ ("max_evals", Export.Int n) ])
    @
    match time_limit_ms with
    | None -> []
    | Some ms -> [ ("time_limit_ms", Export.Float ms) ]
  in
  match (kind_json kind, budget_fields) with
  | json, [] -> json
  | Export.Object fields, _ ->
    Export.Object (fields @ [ ("budget", Export.Object budget_fields) ])
  | json, _ -> json

type outcome = {
  strategy : kind;
  best : Evaluate.evaluation;
  stats : Stats.t;
  optimal : bool;
  members : Portfolio.member_result list;
  diagnostics : Diagnostic.t list;
}

exception Verification_failed of string

let run ?pool ?(budget = Budget.unlimited) kind prepared =
  let problem = Evaluate.problem prepared in
  let t0 = Msoc_util.Clock.now () in
  let cache0 = Evaluate.cache_stats prepared in
  let enumeration_stats ~evaluations ~considered =
    let cache1 = Evaluate.cache_stats prepared in
    {
      Stats.zero with
      Stats.evaluations;
      considered;
      cache_hits = cache1.Evaluate.hits - cache0.Evaluate.hits;
      cache_misses = cache1.Evaluate.misses - cache0.Evaluate.misses;
      wall_ms = (Msoc_util.Clock.now () -. t0) *. 1000.0;
    }
  in
  let best, stats, optimal, members =
    match kind with
    | Exhaustive ->
      let candidates = Problem.all_combinations problem in
      let r = Exhaustive.run ~combinations:candidates ?pool prepared in
      ( r.Exhaustive.best,
        enumeration_stats ~evaluations:r.Exhaustive.evaluations
          ~considered:(List.length candidates),
        true,
        [] )
    | Repr { delta } ->
      let candidates = Problem.all_combinations problem in
      let r = Cost_optimizer.run ~delta ~combinations:candidates ?pool prepared in
      ( r.Cost_optimizer.best,
        enumeration_stats ~evaluations:r.Cost_optimizer.evaluations
          ~considered:r.Cost_optimizer.considered,
        false,
        [] )
    | Bnb ->
      let r = Bnb.run ~budget prepared in
      (r.Bnb.best, r.Bnb.stats, r.Bnb.optimal, [])
    | Anneal { seed } ->
      let r = Anneal.run ~budget ~seed prepared in
      (r.Anneal.best, r.Anneal.stats, false, [])
    | Portfolio { seeds } ->
      let r = Portfolio.run ?pool ~budget ~seeds problem in
      (r.Portfolio.best, r.Portfolio.stats, r.Portfolio.optimal,
       r.Portfolio.members)
  in
  let diagnostics =
    Verify.evaluation ~problem
      ~reference_makespan:(Evaluate.reference_makespan prepared) best
  in
  if Diagnostic.has_errors diagnostics then
    raise
      (Verification_failed
         (Printf.sprintf
            "Strategy.run: %s produced a plan that fails verification — %s"
            (name kind)
            (String.concat "; "
               (List.map Diagnostic.to_string (Diagnostic.errors diagnostics)))));
  { strategy = kind; best; stats; optimal; members; diagnostics }

let plan_of_outcome prepared outcome =
  {
    Plan.problem = Evaluate.problem prepared;
    best = outcome.best;
    evaluations = outcome.stats.Stats.evaluations;
    considered = outcome.stats.Stats.considered;
    reference_makespan = Evaluate.reference_makespan prepared;
  }

let outcome_json outcome =
  let member_json (m : Portfolio.member_result) =
    Export.Object
      [
        ("member", Export.String m.Portfolio.member);
        ("cost", Export.Float m.Portfolio.cost);
        ("optimal", Export.Bool m.Portfolio.optimal);
        ("stats", Stats.to_json m.Portfolio.stats);
      ]
  in
  Export.Object
    ([
       ("strategy", Export.String (name outcome.strategy));
       ("optimal", Export.Bool outcome.optimal);
       ("cost", Export.Float outcome.best.Evaluate.cost);
       ("c_t", Export.Float outcome.best.Evaluate.c_t);
       ("c_a", Export.Float outcome.best.Evaluate.c_a);
       ("makespan", Export.Int outcome.best.Evaluate.makespan);
       ( "sharing",
         Export.String (Sharing.full_name outcome.best.Evaluate.combination) );
       ("stats", Stats.to_json outcome.stats);
     ]
    @
    match outcome.members with
    | [] -> []
    | ms -> [ ("members", Export.List (List.map member_json ms)) ])
