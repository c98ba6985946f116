module Evaluate = Msoc_testplan.Evaluate

type member_result = {
  member : string;
  cost : float;
  optimal : bool;
  stats : Stats.t;
}

type result = {
  best : Evaluate.evaluation;
  stats : Stats.t;
  optimal : bool;
  members : member_result list;
}

type member_spec = Bnb_member | Anneal_member of int

let run ?pool ?(budget = Budget.unlimited) ?(seeds = [ 1; 2; 3 ]) problem =
  if seeds = [] then invalid_arg "Portfolio.run: seeds must be non-empty";
  let t0 = Msoc_util.Clock.now () in
  let specs = Bnb_member :: List.map (fun s -> Anneal_member s) seeds in
  (* An eval cap is dealt out in member order: each member gets
     [total / k] and the first [total mod k] one more, so the members
     together never exceed it. A member whose share is 0 does not run;
     branch-and-bound, first, always does. *)
  let specs =
    match budget.Budget.max_evals with
    | None -> List.map (fun spec -> (spec, budget)) specs
    | Some total ->
      let k = List.length specs in
      List.mapi (fun i spec -> (i, spec, (total / k) + Bool.to_int (i < total mod k))) specs
      |> List.filter_map (fun (i, spec, share) ->
             if share = 0 && i > 0 then None
             else Some (spec, { budget with Budget.max_evals = Some share }))
  in
  (* Each member prepares privately: the schedule memo inside a
     prepared value is not domain-safe, so racing members must not
     share one. Costs one reference pack per member. *)
  let run_member (spec, budget) =
    let prepared = Evaluate.prepare problem in
    match spec with
    | Bnb_member ->
      let r = Bnb.run ~budget prepared in
      ("bnb", r.Bnb.best, r.Bnb.optimal, r.Bnb.stats)
    | Anneal_member seed ->
      let r = Anneal.run ~budget ~seed prepared in
      (Printf.sprintf "anneal:%d" seed, r.Anneal.best, false, r.Anneal.stats)
  in
  let outcomes =
    match pool with
    | Some pool -> Msoc_util.Pool.map pool run_member specs
    | None -> List.map run_member specs
  in
  let best, optimal =
    List.fold_left
      (fun (best, opt) (_, e, o, _) ->
        let best =
          match best with
          | Some (b : Evaluate.evaluation) when b.Evaluate.cost <= e.Evaluate.cost
            ->
            Some b
          | Some _ | None -> Some e
        in
        (best, opt || o))
      (None, false) outcomes
  in
  let best = match best with Some e -> e | None -> assert false in
  let members =
    List.map
      (fun (member, e, o, s) ->
        { member; cost = e.Evaluate.cost; optimal = o; stats = s })
      outcomes
  in
  let stats =
    {
      (Stats.merge (List.map (fun (_, _, _, s) -> s) outcomes)) with
      Stats.wall_ms = (Msoc_util.Clock.now () -. t0) *. 1000.0;
    }
  in
  { best; stats; optimal; members }
