module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area
module Evaluate = Msoc_testplan.Evaluate
module Problem = Msoc_testplan.Problem

type result = { best : Evaluate.evaluation; stats : Stats.t; optimal : bool }

let run ?(budget = Budget.unlimited) prepared =
  let t0 = Msoc_util.Clock.now () in
  let cache0 = Evaluate.cache_stats prepared in
  let problem = Evaluate.problem prepared in
  let policy = problem.Problem.policy in
  let model = problem.Problem.area_model in
  let bound = Bound.create prepared in
  let { Bound.cores; time; compatible; order; floating; t_floor; _ } = bound in
  let area_floor = Option.is_some bound.Bound.join_floor in
  let all_cores = problem.Problem.analog_cores in
  let m = Array.length cores in
  (* longest.(i): the longest core among order.(i) .. order.(m-1). *)
  let longest = Array.make (m + 1) 0 in
  for i = m - 1 downto 0 do
    longest.(i) <- max time.(order.(i)) longest.(i + 1)
  done;
  (* The partial partition, in place: groups 0 .. k-1 in the order they
     were opened, each with its members newest first, its serial time
     and (with an area floor) its Eq. 1 term. Sums over the groups run
     newest first, k-1 down to 0: float addition does not reassociate,
     and test/test_search_ref.ml pins that order. *)
  let k = ref 0 in
  let members = Array.make m [] in
  let usage = Array.make m 0 in
  let contrib = Array.make m 0.0 in
  let refresh g =
    if area_floor then contrib.(g) <- Bound.contrib bound members.(g)
  in
  (* Child [g] adds core c to group g; child [!k] opens a new group. *)
  let apply g c =
    if g = !k then incr k;
    members.(g) <- c :: members.(g);
    usage.(g) <- usage.(g) + time.(c);
    refresh g
  in
  let undo g c =
    members.(g) <- List.tl members.(g);
    usage.(g) <- usage.(g) - time.(c);
    if members.(g) = [] then decr k else refresh g
  in
  let child_bound i =
    let t_lb = ref (max t_floor longest.(i + 1)) in
    let assigned = ref 0.0 in
    for g = !k - 1 downto 0 do
      t_lb := max !t_lb usage.(g);
      assigned := !assigned +. contrib.(g)
    done;
    Bound.floor bound ~t_lb:!t_lb ~area:(!assigned +. floating.(i + 1))
  in
  let evals = ref 0 in
  let expanded = ref 0 in
  let pruned = ref 0 in
  let dedup = ref 0 in
  let evaluated = Hashtbl.create 97 in
  let best = ref None in
  let trace = ref [] in
  let interrupted = ref false in
  let budget_hit () =
    !interrupted
    ||
    if Budget.exhausted budget ~evals:!evals then begin
      interrupted := true;
      true
    end
    else false
  in
  let key_of = Sharing.equivalence_key all_cores in
  let consider combination =
    let key = key_of combination in
    if Hashtbl.mem evaluated key then incr dedup
    else begin
      Hashtbl.add evaluated key ();
      let e = Evaluate.evaluate prepared combination in
      incr evals;
      match !best with
      | Some (b : Evaluate.evaluation) when b.Evaluate.cost <= e.Evaluate.cost
        ->
        ()
      | Some _ | None ->
        best := Some e;
        trace :=
          {
            Stats.at_eval = !evals;
            cost = e.Evaluate.cost;
            sharing = Sharing.full_name e.Evaluate.combination;
          }
          :: !trace
    end
  in
  (* Incumbent seeds; no-sharing is unconditional so a result exists
     even when the deadline is already past. *)
  consider (Sharing.no_sharing all_cores);
  (let full = Sharing.full_sharing all_cores in
   if
     (not (budget_hit ()))
     && Sharing.is_feasible ~policy full
     && Area.acceptable ~model full
   then consider full);
  let rec go i =
    if budget_hit () then ()
    else if i = m then begin
      let groups =
        List.init !k (fun j -> List.map (fun c -> cores.(c)) members.(!k - 1 - j))
      in
      let candidate = Sharing.make groups in
      if Area.acceptable ~model candidate then consider candidate
    end
    else begin
      incr expanded;
      let c = order.(i) in
      (* Children — joins into the newest group first, then the new
         group — are priced in place and undone; the stable sort keeps
         that order among equal bounds. *)
      let children = ref [] in
      let price g =
        apply g c;
        children := (child_bound i, g) :: !children;
        undo g c
      in
      for g = !k - 1 downto 0 do
        if List.for_all (fun d -> compatible.(c).(d)) members.(g) then price g
      done;
      price !k;
      List.iter
        (fun (lb, g) ->
          if budget_hit () then ()
          else
            match !best with
            | Some (b : Evaluate.evaluation) when lb >= b.Evaluate.cost ->
              incr pruned
            | Some _ | None ->
              apply g c;
              go (i + 1);
              undo g c)
        (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !children))
    end
  in
  go 0;
  let best =
    match !best with
    | Some e -> e
    | None -> assert false (* no-sharing seed always evaluates *)
  in
  let cache1 = Evaluate.cache_stats prepared in
  let stats =
    {
      Stats.zero with
      Stats.evaluations = !evals;
      considered = !evals + !dedup;
      nodes_expanded = !expanded;
      nodes_pruned = !pruned;
      dedup_skips = !dedup;
      cache_hits = cache1.Evaluate.hits - cache0.Evaluate.hits;
      cache_misses = cache1.Evaluate.misses - cache0.Evaluate.misses;
      wall_ms = (Msoc_util.Clock.now () -. t0) *. 1000.0;
      incumbent_trace = List.rev !trace;
    }
  in
  { best; stats; optimal = not !interrupted }
