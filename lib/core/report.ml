module Table = Msoc_util.Ascii_table
module Spec = Msoc_analog.Spec
module Sharing = Msoc_analog.Sharing
module Schedule = Msoc_tam.Schedule

let summary (plan : Plan.t) =
  let p = plan.Plan.problem in
  let e = plan.Plan.best in
  Printf.sprintf
    "SOC %s + %d analog cores | W=%d  w_T=%.2f w_A=%.2f\n\
     chosen sharing: %s (%d wrappers)\n\
     cost C=%.1f (C_T=%.1f, C_A=%.1f) | makespan %s cycles (reference %s)\n\
     search: %d/%d combinations fully evaluated\n"
    p.Problem.soc.Msoc_itc02.Types.name
    (List.length p.Problem.analog_cores)
    p.Problem.tam_width p.Problem.weight_time p.Problem.weight_area
    (Sharing.short_name e.Evaluate.combination)
    (Sharing.wrappers e.Evaluate.combination)
    e.Evaluate.cost e.Evaluate.c_t e.Evaluate.c_a
    (Table.int_cell e.Evaluate.makespan)
    (Table.int_cell plan.Plan.reference_makespan)
    plan.Plan.evaluations plan.Plan.considered

let schedule_table (plan : Plan.t) =
  let columns =
    [
      Table.column "test";
      Table.column ~align:Table.Right "start";
      Table.column ~align:Table.Right "finish";
      Table.column ~align:Table.Right "width";
    ]
  in
  let rows =
    plan.Plan.best.Evaluate.schedule.Schedule.placements
    |> List.map (fun (p : Schedule.placement) ->
           [
             p.Schedule.job.Msoc_tam.Job.label;
             Table.int_cell p.Schedule.start;
             Table.int_cell (Schedule.finish p);
             string_of_int p.Schedule.width;
           ])
  in
  Table.render ~columns ~rows

let wrapper_table (plan : Plan.t) =
  let columns =
    [
      Table.column "wrapper";
      Table.column "cores";
      Table.column ~align:Table.Right "bits";
      Table.column ~align:Table.Right "max fs (MHz)";
      Table.column ~align:Table.Right "width";
      Table.column ~align:Table.Right "serial cycles";
    ]
  in
  let groups = (Plan.sharing plan).Sharing.groups in
  let rows =
    List.mapi
      (fun i group ->
        let requirement =
          match List.map Spec.requirement group with
          | [] -> assert false
          | r :: rest -> List.fold_left Spec.merge_requirements r rest
        in
        [
          string_of_int (i + 1);
          String.concat "," (List.map (fun c -> c.Spec.label) group);
          string_of_int requirement.Spec.bits;
          Printf.sprintf "%.1f" (requirement.Spec.f_sample_max_hz /. 1.0e6);
          string_of_int requirement.Spec.width;
          Table.int_cell (Msoc_analog.Bounds.wrapper_usage group);
        ])
      groups
  in
  Table.render ~columns ~rows

let console plan =
  String.concat "\n" [ summary plan; wrapper_table plan; schedule_table plan ]
