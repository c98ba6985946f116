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

let polish t =
  let prepared = Evaluate.prepare t.problem in
  let jobs = Evaluate.jobs_for prepared t.best.Evaluate.combination in
  let optimized =
    Msoc_tam.Packer.pack_optimized ~width:t.problem.Problem.tam_width jobs
  in
  if
    Msoc_tam.Schedule.makespan optimized
    < Msoc_tam.Schedule.makespan t.best.Evaluate.schedule
  then optimized
  else t.best.Evaluate.schedule

let digital_operating_points t =
  let digital_names =
    List.map
      (fun (c : Msoc_itc02.Types.core) -> c.Msoc_itc02.Types.name)
      t.problem.Problem.soc.Msoc_itc02.Types.cores
  in
  t.best.Evaluate.schedule.Msoc_tam.Schedule.placements
  |> List.filter_map (fun (p : Msoc_tam.Schedule.placement) ->
         let label = p.Msoc_tam.Schedule.job.Msoc_tam.Job.label in
         if List.mem label digital_names then
           Some (label, p.Msoc_tam.Schedule.width, p.Msoc_tam.Schedule.time)
         else None)
