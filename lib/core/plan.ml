type search = Exhaustive_search | Heuristic of { delta : float }

type t = {
  problem : Problem.t;
  best : Evaluate.evaluation;
  evaluations : int;
  considered : int;
  reference_makespan : int;
}

let run_prepared ?(search = Heuristic { delta = 0.0 }) ?pool prepared =
  let problem = Evaluate.problem prepared in
  let combinations = Problem.combinations problem in
  let considered = List.length combinations in
  let best, evaluations =
    match search with
    | Exhaustive_search ->
      let r = Exhaustive.run ~combinations ?pool prepared in
      (r.Exhaustive.best, r.Exhaustive.evaluations)
    | Heuristic { delta } ->
      let r = Cost_optimizer.run ~delta ~combinations ?pool prepared in
      (r.Cost_optimizer.best, r.Cost_optimizer.evaluations)
  in
  {
    problem;
    best;
    evaluations;
    considered;
    reference_makespan = Evaluate.reference_makespan prepared;
  }

let run ?search ?pool ?packer problem =
  run_prepared ?search ?pool (Evaluate.prepare ?packer problem)

let makespan t = t.best.Evaluate.makespan

let sharing t = t.best.Evaluate.combination
