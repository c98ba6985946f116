(* An axis point is infeasible when either the problem cannot be
   constructed ([Problem.make] rejects a width below an analog core's
   TAM need) or the packer proves the job set cannot fit
   ([Packer.Infeasible] — e.g. a width validation deferred to pack
   time). Both mean "this point does not meet the constraints", never
   "crash the sweep". *)
let plan_at ?search ?pool ?packer problem_of_axis axis =
  match Plan.run ?search ?pool ?packer (problem_of_axis axis) with
  | plan -> Some plan
  | exception (Invalid_argument _ | Msoc_tam.Packer.Infeasible _) -> None

let weight_sweep ?search ?pool ?packer ~weights problem_of_weight =
  (* A packed schedule depends only on the sharing groups and the
     problem structure, never on (w_T, w_A) — so consecutive weight
     points whose problems differ only in the weights share one
     [Evaluate.prepare] and its schedule cache. Across the whole sweep
     the engine then performs at most one pack per distinct sharing
     combination; each weight point only re-prices the cached
     schedules. *)
  let shared = ref None in
  let prepared_for problem =
    match !shared with
    | Some p when Problem.same_structure (Evaluate.problem p) problem ->
      Some (Evaluate.reweight p problem)
    | _ -> (
      match Evaluate.prepare ?packer problem with
      | p ->
        shared := Some p;
        Some p
      | exception (Invalid_argument _ | Msoc_tam.Packer.Infeasible _) -> None)
  in
  let plan w =
    match problem_of_weight w with
    | exception (Invalid_argument _ | Msoc_tam.Packer.Infeasible _) -> None
    | problem -> (
      match prepared_for problem with
      | None -> None
      | Some prepared -> (
        match Plan.run_prepared ?search ?pool prepared with
        | plan -> Some plan
        | exception (Invalid_argument _ | Msoc_tam.Packer.Infeasible _) -> None))
  in
  List.filter_map (fun w -> Option.map (fun plan -> (w, plan)) (plan w)) weights

let width_sweep ?search ?pool ?packer ~widths problem_of_width =
  List.filter_map
    (fun w ->
      Option.map
        (fun plan -> (w, plan))
        (plan_at ?search ?pool ?packer problem_of_width w))
    widths
