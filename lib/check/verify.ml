module Evaluate = Msoc_testplan.Evaluate
module Plan = Msoc_testplan.Plan

let evaluation ~problem ~reference_makespan (ev : Evaluate.evaluation) =
  let expected = Evaluate.jobs_for_problem problem ev.Evaluate.combination in
  Schedule_check.run ~expected ~reported_makespan:ev.Evaluate.makespan
    ev.Evaluate.schedule
  @ Cost_check.evaluation ~problem ~reference_makespan ev

let plan (p : Plan.t) =
  evaluation ~problem:p.Plan.problem
    ~reference_makespan:p.Plan.reference_makespan p.Plan.best
