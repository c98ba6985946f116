module Pareto = Msoc_wrapper.Pareto

type t = { bus_widths : int array; bus_jobs : Job.t list array }

exception Infeasible of string

(* Jobs sharing an exclusion group are assigned as one unit. *)
type unit_ = { jobs : Job.t list; min_width : int }

let units_of_jobs jobs =
  let grouped, solo =
    List.partition (fun j -> j.Job.exclusion <> None) jobs
  in
  let groups =
    Msoc_util.Combinat.group_by
      (fun j -> Option.get j.Job.exclusion)
      grouped
    |> List.map snd
  in
  List.map (fun j -> [ j ]) solo @ groups
  |> List.map (fun js ->
         {
           jobs = js;
           min_width =
             Msoc_util.Numeric.max_int_list (List.map Job.min_width js);
         })

let job_time_at job ~bus_width =
  Pareto.time_at job.Job.staircase ~width:bus_width

let unit_time unit ~bus_width =
  Msoc_util.Numeric.sum_int
    (List.map (fun j -> job_time_at j ~bus_width) unit.jobs)

let makespan t =
  let bus_time b =
    Msoc_util.Numeric.sum_int
      (List.map (fun j -> job_time_at j ~bus_width:t.bus_widths.(b)) t.bus_jobs.(b))
  in
  let worst = ref 0 in
  for b = 0 to Array.length t.bus_widths - 1 do
    worst := max !worst (bus_time b)
  done;
  !worst

let design ~width ~buses jobs =
  if buses < 1 || buses > width then
    invalid_arg "Fixed_partition.design: need 1 <= buses <= width";
  let units = units_of_jobs jobs in
  let widest_need =
    List.fold_left (fun acc u -> max acc u.min_width) 1 units
  in
  if widest_need > width then
    raise
      (Infeasible
         (Printf.sprintf "a job needs width %d > TAM width %d" widest_need width));
  (* Bus 0 is guaranteed to host the widest job; the rest split what
     remains evenly (dropping buses that would get zero wires). *)
  let base = width / buses in
  let bus0 = max (base + (width mod buses)) widest_need in
  let rest = width - bus0 in
  let others = min (buses - 1) rest in
  let bus_widths =
    Array.of_list
      (bus0
      :: List.init others (fun i ->
             (rest / others) + if i < rest mod others then 1 else 0))
  in
  let n = Array.length bus_widths in
  let bus_jobs = Array.make n [] in
  let bus_load = Array.make n 0 in
  let order =
    List.sort
      (fun a b ->
        compare (unit_time b ~bus_width:width) (unit_time a ~bus_width:width))
      units
  in
  let assign unit =
    let best = ref (-1) in
    for b = n - 1 downto 0 do
      if bus_widths.(b) >= unit.min_width then
        let projected = bus_load.(b) + unit_time unit ~bus_width:bus_widths.(b) in
        if !best < 0
           || projected
              < bus_load.(!best) + unit_time unit ~bus_width:bus_widths.(!best)
        then best := b
    done;
    if !best < 0 then
      raise (Infeasible "no bus wide enough for a job");
    bus_jobs.(!best) <- bus_jobs.(!best) @ unit.jobs;
    bus_load.(!best) <- bus_load.(!best) + unit_time unit ~bus_width:bus_widths.(!best)
  in
  List.iter assign order;
  { bus_widths; bus_jobs }

let optimize ?(max_buses = 6) ~width jobs =
  let candidates =
    List.init (min max_buses width) (fun i ->
        match design ~width ~buses:(i + 1) jobs with
        | t -> Some t
        | exception Infeasible _ -> None)
    |> List.filter_map Fun.id
  in
  match candidates with
  | [] -> raise (Infeasible "no feasible bus count")
  | t :: rest ->
    List.fold_left
      (fun best t -> if makespan t < makespan best then t else best)
      t rest
