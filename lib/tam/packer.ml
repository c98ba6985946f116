module Pareto = Msoc_wrapper.Pareto

exception Infeasible of string

(* Sorted, disjoint busy intervals [start, finish). *)
module Intervals = struct
  type t = (int * int) list

  let empty : t = []

  let to_list t = t

  let free_during t ~start ~finish =
    List.for_all (fun (s, f) -> finish <= s || f <= start) t

  (* Insert a busy window, merging with a touching neighbour on either
     side so the list keeps one entry per maximal busy stretch — the
     candidate-start lists built from interval ends then stay bounded
     by the number of idle gaps instead of growing with every
     placement. Callers only add windows that passed [free_during], so
     the new window never overlaps an existing entry. *)
  let add t ~start ~finish =
    let rec insert = function
      | [] -> [ (start, finish) ]
      | (s, f) :: rest when f < start -> (s, f) :: insert rest
      | (s, f) :: rest when f = start -> absorb s finish rest
      | rest -> absorb start finish rest
    and absorb s f = function
      | (s2, f2) :: rest when s2 = f -> (s, f2) :: rest
      | rest -> (s, f) :: rest
    in
    insert t

  let ends_after t ~time =
    List.filter_map (fun (_, f) -> if f >= time then Some f else None) t
end

module Smap = Map.Make (String)

(* Persistent packing state: one snapshot per placed job, so the
   incremental engine ([prepare] / [repack_with_order]) can resume
   from any prefix of a previous order without replaying it. The wire
   array is copied on write (strip widths are small); everything else
   is already a persistent structure. *)
type pstate = {
  p_wires : Intervals.t array;  (* never mutated: copy-on-write *)
  p_groups : (int * Intervals.t) list;
  (* committed placements as (start, finish, power) for the budget *)
  p_powered : (int * int * int) list;
  p_power_budget : int option;
  (* label -> finish time of already-scheduled jobs *)
  p_finished : int Smap.t;
  (* label -> busy interval of the placed job with that label *)
  p_placed : (int * int) Smap.t;
  (* label of a FUTURE job -> intervals already reserved against it by
     placed jobs that declared the conflict *)
  p_reserved : (int * int) list Smap.t;
}

let initial_state ?power_budget ~width () =
  {
    p_wires = Array.make width Intervals.empty;
    p_groups = [];
    p_powered = [];
    p_power_budget = power_budget;
    p_finished = Smap.empty;
    p_placed = Smap.empty;
    p_reserved = Smap.empty;
  }

let group_intervals st = function
  | None -> Intervals.empty
  | Some g -> Option.value (List.assoc_opt g st.p_groups) ~default:Intervals.empty

(* Blocked windows of a job: the busy intervals of placed jobs it
   declared a conflict with, plus those reserved against it by placed
   jobs that declared one with it. Any order, possibly repeated. *)
let conflict_intervals st job =
  let declared =
    List.filter_map (fun l -> Smap.find_opt l st.p_placed) job.Job.conflicts
  in
  let reserved =
    Option.value (Smap.find_opt job.Job.label st.p_reserved) ~default:[]
  in
  declared @ reserved

(* The idle run of a resource at [start] is 0 when it is busy at
   [start], otherwise the distance to its next busy instant ([max_int]
   when it stays idle). Every job time t is > 0, so the resource is
   free throughout [start, start + t) exactly when t <= its run.
   [idle_run] reads sorted, disjoint stretches, where the first one
   ending after [start] decides; [window_run] reads windows in any
   order. *)
let rec idle_run ivs ~start =
  match ivs with
  | [] -> max_int
  | (_, f) :: rest when f <= start -> idle_run rest ~start
  | (s, _) :: _ -> if s <= start then 0 else s - start

let window_run windows ~start =
  List.fold_left
    (fun run (s, f) ->
      if s <= start && start < f then 0
      else if start < s then min run (s - start)
      else run)
    max_int windows

(* The committed load is piecewise constant and rises only where a
   placement starts, so the budget first breaks at [start] or at a
   later placement start. *)
let power_run st ~start ~power =
  match st.p_power_budget with
  | Some budget when power > 0 ->
    let over instant =
      List.fold_left
        (fun acc (s, f, p) -> if s <= instant && instant < f then acc + p else acc)
        power st.p_powered
      > budget
    in
    if over start then 0
    else
      List.fold_left
        (fun run (s, _, _) ->
          if start < s && s - start < run && over s then s - start else run)
        max_int st.p_powered
  | Some _ | None -> max_int

(* The earliest feasible start of any operating point is [floor] or
   the end of some wire, group, power or blocked window at or after
   it: these candidates, ascending and distinct. *)
let candidate_starts st ~floor ~group ~blocked =
  let add acc f = if f >= floor then f :: acc else acc in
  let add_ends acc ivs = List.fold_left (fun acc (_, f) -> add acc f) acc ivs in
  let ends =
    Array.fold_left
      (fun acc wire -> add_ends acc (Intervals.to_list wire))
      (add_ends (floor :: add_ends [] blocked) group)
      st.p_wires
  in
  List.sort_uniq Int.compare
    (List.fold_left (fun acc (_, f, _) -> add acc f) ends st.p_powered)

(* Among the wires free during the window, keep the [w] whose previous
   busy interval ends latest (least idle created in front of the job). *)
let choose_wires st ~start ~w free_wires =
  let slack wire =
    let prev_end =
      List.fold_left
        (fun acc (_, f) -> if f <= start then max acc f else acc)
        0 st.p_wires.(wire)
    in
    start - prev_end
  in
  let ranked =
    List.map (fun wire -> (slack wire, wire)) free_wires
    |> List.sort compare
  in
  List.filteri (fun i _ -> i < w) ranked |> List.map snd

module Iset = Set.Make (Int)

(* Reorder so that predecessors come before their dependents while
   otherwise preserving the priority order: a label-keyed Kahn
   topological sort that, at every step, emits the ready job earliest
   in the input order — exactly the sequence the old O(n²)
   partition-and-rescan loop produced, in O(n + e) set operations. *)
let respect_precedences order =
  match order with
  | [] -> []
  | _ ->
    let jobs = Array.of_list order in
    let n = Array.length jobs in
    let index = Hashtbl.create (2 * n) in
    Array.iteri
      (fun i j ->
        if Hashtbl.mem index j.Job.label then
          raise
            (Infeasible (Printf.sprintf "duplicate job label: %s" j.Job.label));
        Hashtbl.add index j.Job.label i)
      jobs;
    let indegree = Array.make n 0 in
    let successors = Array.make n [] in
    Array.iteri
      (fun i j ->
        List.iter
          (fun pred ->
            (* Self-loops and unknown predecessors keep the job's
               indegree positive forever: it lands in the blocked set
               below, like any cycle member. *)
            indegree.(i) <- indegree.(i) + 1;
            match Hashtbl.find_opt index pred with
            | Some p when p <> i -> successors.(p) <- i :: successors.(p)
            | Some _ | None -> ())
          j.Job.predecessors)
      jobs;
    let ready = ref Iset.empty in
    Array.iteri
      (fun i _ -> if indegree.(i) = 0 then ready := Iset.add i !ready)
      jobs;
    let result = ref [] in
    let emitted = ref 0 in
    while not (Iset.is_empty !ready) do
      let i = Iset.min_elt !ready in
      ready := Iset.remove i !ready;
      result := jobs.(i) :: !result;
      incr emitted;
      List.iter
        (fun s ->
          indegree.(s) <- indegree.(s) - 1;
          if indegree.(s) = 0 then ready := Iset.add s !ready)
        successors.(i)
    done;
    if !emitted < n then begin
      let blocked = ref [] in
      for i = n - 1 downto 0 do
        if indegree.(i) > 0 then blocked := jobs.(i).Job.label :: !blocked
      done;
      raise
        (Infeasible
           (Printf.sprintf "precedence cycle or unknown predecessor among: %s"
              (String.concat ", " !blocked)))
    end;
    List.rev !result

(* Place one job on the earliest feasible window, returning the grown
   state alongside the placement. Pure in [st]: the incremental engine
   checkpoints these states per position. *)
let place ~width st job =
  let points =
    Pareto.points job.Job.staircase
    |> List.filter (fun (p : Pareto.point) -> p.width <= width)
  in
  if points = [] then
    (* [pack] pre-checks this, but guard the internal entry point
       too: silently packing an out-of-bounds rectangle would defeat
       every capacity invariant downstream. *)
    raise
      (Infeasible
         (Printf.sprintf
            "job %s has no operating point at width <= %d (narrowest needs %d wires)"
            job.Job.label width (Job.min_width job)));
  let floor =
    List.fold_left
      (fun acc pred ->
        match Smap.find_opt pred st.p_finished with
        | Some f -> max acc f
        | None -> acc (* respect_precedences guarantees presence *))
      0 job.Job.predecessors
  in
  let blocked = conflict_intervals st job in
  let group = Intervals.to_list (group_intervals st job.Job.exclusion) in
  (* Every wire's idle run at the start being swept. *)
  let runs = Array.make width 0 in
  let fits (p : Pareto.point) =
    let rec count i n =
      n >= p.width
      || (i < width && count (i + 1) (if runs.(i) >= p.time then n + 1 else n))
    in
    count 0 0
  in
  (* One ascending sweep over the candidate starts resolves every
     point at its earliest feasible start: at each start, a point
     (w, t) fits when the group, conflict and power runs are all >= t
     and at least w wire runs are. [best] is the least (finish, width)
     resolved so far, as (finish, point, start) — the earliest finish,
     ties to fewer wires; a point that can no longer beat it closes
     untried. *)
  let rec sweep best open_points = function
    | [] -> best
    | _ when open_points = [] -> best
    | start :: later ->
      let cap =
        min (idle_run group ~start)
          (min (window_run blocked ~start) (power_run st ~start ~power:job.Job.power))
      in
      if cap = 0 then sweep best open_points later
      else begin
        Array.iteri
          (fun i wire -> runs.(i) <- idle_run (Intervals.to_list wire) ~start)
          st.p_wires;
        let best, still_open =
          List.fold_left
            (fun (best, still_open) (p : Pareto.point) ->
              let finish = start + p.time in
              match best with
              | Some (bf, (bp : Pareto.point), _)
                when finish > bf || (finish = bf && p.width >= bp.width) ->
                (best, still_open)
              | Some _ | None ->
                if p.time <= cap && fits p then (Some (finish, p, start), still_open)
                else (best, p :: still_open))
            (best, []) open_points
        in
        sweep best still_open later
      end
  in
  let finish, point, start =
    match sweep None points (candidate_starts st ~floor ~group ~blocked) with
    | Some best -> best
    | None ->
      raise
        (Infeasible
           (Printf.sprintf "job %s found no feasible start on the strip" job.Job.label))
  in
  let free_wires =
    List.filter
      (fun i -> Intervals.free_during st.p_wires.(i) ~start ~finish)
      (List.init width Fun.id)
  in
  let wires = choose_wires st ~start ~w:point.Pareto.width free_wires in
  let p_wires = Array.copy st.p_wires in
  List.iter
    (fun wire -> p_wires.(wire) <- Intervals.add p_wires.(wire) ~start ~finish)
    wires;
  let p_groups =
    match job.Job.exclusion with
    | Some g ->
      (g, Intervals.add (group_intervals st (Some g)) ~start ~finish)
      :: List.remove_assoc g st.p_groups
    | None -> st.p_groups
  in
  let p_powered =
    if job.Job.power > 0 then (start, finish, job.Job.power) :: st.p_powered
    else st.p_powered
  in
  let p_reserved =
    List.fold_left
      (fun acc other ->
        let existing = Option.value (Smap.find_opt other acc) ~default:[] in
        Smap.add other ((start, finish) :: existing) acc)
      st.p_reserved job.Job.conflicts
  in
  let st' =
    {
      st with
      p_wires;
      p_groups;
      p_powered;
      p_finished = Smap.add job.Job.label finish st.p_finished;
      p_placed = Smap.add job.Job.label (start, finish) st.p_placed;
      p_reserved;
    }
  in
  (st', { Schedule.job; start; width = point.Pareto.width; time = point.Pareto.time; wires })

(* Process-wide interval-state accounting. [full_rebuilds] counts
   packs that build the per-wire interval state from scratch (every
   [pack_in_order], plus any engine repack whose cached prefix is
   empty); [jobs_reused] counts placements served from an engine's
   checkpoints instead of being replayed. Atomics so pool workers and
   benches can read deltas from any domain. *)
type repack_stats = {
  repacks : int;
  full_rebuilds : int;
  jobs_reused : int;
  jobs_placed : int;
}

let stats_zero = { repacks = 0; full_rebuilds = 0; jobs_reused = 0; jobs_placed = 0 }

let total_repacks = Atomic.make 0
let total_full_rebuilds = Atomic.make 0
let total_jobs_reused = Atomic.make 0
let total_jobs_placed = Atomic.make 0

let repack_totals () =
  {
    repacks = Atomic.get total_repacks;
    full_rebuilds = Atomic.get total_full_rebuilds;
    jobs_reused = Atomic.get total_jobs_reused;
    jobs_placed = Atomic.get total_jobs_placed;
  }

let schedule_of_placements ?power_budget ~width placements_rev =
  let placements =
    List.sort (fun a b -> compare a.Schedule.start b.Schedule.start) placements_rev
  in
  { Schedule.total_width = width; power_budget; placements }

let pack_in_order ?power_budget ~width order =
  Atomic.incr total_full_rebuilds;
  ignore (Atomic.fetch_and_add total_jobs_placed (List.length order));
  let _, placements_rev =
    List.fold_left
      (fun (st, acc) job ->
        let st', p = place ~width st job in
        (st', p :: acc))
      (initial_state ?power_budget ~width (), [])
      order
  in
  schedule_of_placements ?power_budget ~width placements_rev

(* A job bound to an exclusion group inherits the group's total serial
   time as its urgency: the group is in effect one long serial job and
   must start early, even though each member test is short. *)
let group_urgency jobs =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match j.Job.exclusion with
      | Some g ->
        let current = Option.value (Hashtbl.find_opt totals g) ~default:0 in
        Hashtbl.replace totals g (current + Job.min_time j)
      | None -> ())
    jobs;
  fun j ->
    match j.Job.exclusion with
    | Some g -> Hashtbl.find totals g
    | None -> Job.min_time j

let validate_strip ?power_budget ~width () =
  if width <= 0 then invalid_arg "Packer.pack: width must be positive";
  match power_budget with
  | Some b when b <= 0 -> invalid_arg "Packer.pack: power_budget must be positive"
  | Some _ | None -> ()

let validate_jobs ?power_budget ~width jobs =
  List.iter
    (fun j ->
      if Job.min_width j > width then
        raise
          (Infeasible
             (Printf.sprintf "job %s needs width %d > TAM width %d" j.Job.label
                (Job.min_width j) width));
      match power_budget with
      | Some b when j.Job.power > b ->
        raise
          (Infeasible
             (Printf.sprintf "job %s needs power %d > budget %d" j.Job.label
                j.Job.power b))
      | Some _ | None -> ())
    jobs

(* Greedy list scheduling is sensitive to the job order, so the
   default packer tries a few natural priority rules and keeps the
   best schedule: longest (group-aware) first, largest area first, and
   widest first (which wins when one wide bottleneck rectangle must
   nest under the narrow analog chains). *)
let priority_orders jobs =
  let urgency = group_urgency jobs in
  let by key = List.sort (fun a b -> compare (key b) (key a)) jobs in
  [
    by (fun j -> (urgency j, Job.min_time j));
    by (fun j -> (Job.area j, urgency j));
    by (fun j -> (Job.min_width j, urgency j));
  ]

let pack_with_orders ?power_budget ~width ~orders jobs =
  validate_strip ?power_budget ~width ();
  validate_jobs ?power_budget ~width jobs;
  let schedules =
    List.map
      (fun order -> pack_in_order ?power_budget ~width (respect_precedences order))
      (orders jobs)
  in
  match schedules with
  | [] -> invalid_arg "Packer.pack_with_orders: orders produced no priority order"
  | s :: rest ->
    List.fold_left
      (fun best s ->
        if Schedule.makespan s < Schedule.makespan best then s else best)
      s rest

let pack ?power_budget ~width jobs =
  pack_with_orders ?power_budget ~width ~orders:priority_orders jobs

(* [front] is newest-first: the most recently promoted label must lead
   the repack order, so it gets the smallest rank. *)
let promotion_order ~front jobs =
  let ranks = List.mapi (fun i l -> (l, i)) front in
  let rank j =
    match List.assoc_opt j.Job.label ranks with
    | Some i -> i
    | None -> List.length front
  in
  let urgency = group_urgency jobs in
  List.sort
    (fun a b ->
      match compare (rank a) (rank b) with
      | 0 -> compare (urgency b, Job.min_time b) (urgency a, Job.min_time a)
      | c -> c)
    jobs

(* Promote the job that currently finishes last to the front of the
   priority order and repack; repeat while it helps. The critical job
   is the one whose placement freedom matters most, so scheduling it
   first usually removes the overhang. *)
let pack_optimized ?power_budget ?(rounds = 8) ~width jobs =
  let initial = pack ?power_budget ~width jobs in
  let rec refine best order_front remaining =
    if remaining = 0 then best
    else
      let critical =
        List.fold_left
          (fun acc (p : Schedule.placement) ->
            match acc with
            | Some (best_p : Schedule.placement)
              when Schedule.finish best_p >= Schedule.finish p ->
              acc
            | _ -> Some p)
          None best.Schedule.placements
      in
      match critical with
      | None -> best
      | Some p ->
        let label = p.Schedule.job.Job.label in
        if List.mem label order_front then best
        else begin
          let order_front = label :: order_front in
          let order =
            respect_precedences (promotion_order ~front:order_front jobs)
          in
          let candidate = pack_in_order ?power_budget ~width order in
          let best =
            if Schedule.makespan candidate < Schedule.makespan best then candidate
            else best
          in
          refine best order_front (remaining - 1)
        end
  in
  refine initial [] rounds

(* --- incremental repacking ------------------------------------------- *)

(* The engine caches the last effective order together with one state
   checkpoint per position: [e_states.(i)] is the state before placing
   [e_order.(i)] (so [e_states.(0)] is the empty strip). A repack
   diffs the new effective order against the cached one and replays
   only the suffix after the longest common prefix — an annealer's
   transposition at positions (i, j) keeps min(i, j) placements for
   free. NOT thread-safe: one engine per domain. *)
type prepared = {
  e_width : int;
  e_power_budget : int option;
  mutable e_order : Job.t array;
  mutable e_states : pstate array;
  mutable e_placements : Schedule.placement array;
  mutable e_stats : repack_stats;
}

let prepare ?power_budget ~width () =
  if width <= 0 then invalid_arg "Packer.prepare: width must be positive";
  (match power_budget with
  | Some b when b <= 0 -> invalid_arg "Packer.prepare: power_budget must be positive"
  | Some _ | None -> ());
  {
    e_width = width;
    e_power_budget = power_budget;
    e_order = [||];
    e_states = [| initial_state ?power_budget ~width () |];
    e_placements = [||];
    e_stats = stats_zero;
  }

let repack_stats e = e.e_stats

let repack_with_order e jobs =
  validate_jobs ?power_budget:e.e_power_budget ~width:e.e_width jobs;
  let order = Array.of_list (respect_precedences jobs) in
  let n = Array.length order in
  let prev = e.e_order in
  let limit = min n (Array.length prev) in
  let k = ref 0 in
  (* Jobs are pure data (label, staircase points, constraint lists),
     so structural equality is the right prefix test; the physical
     check just short-circuits the common case. *)
  while !k < limit && (order.(!k) == prev.(!k) || order.(!k) = prev.(!k)) do
    incr k
  done;
  let k = !k in
  let states = Array.make (n + 1) e.e_states.(0) in
  Array.blit e.e_states 0 states 0 (k + 1);
  let st = ref states.(k) in
  let replayed = ref [] in
  for i = k to n - 1 do
    let st', pl = place ~width:e.e_width !st order.(i) in
    states.(i + 1) <- st';
    replayed := pl :: !replayed;
    st := st'
  done;
  let placements =
    Array.append (Array.sub e.e_placements 0 k) (Array.of_list (List.rev !replayed))
  in
  e.e_order <- order;
  e.e_states <- states;
  e.e_placements <- placements;
  e.e_stats <-
    {
      repacks = e.e_stats.repacks + 1;
      full_rebuilds = (e.e_stats.full_rebuilds + if k = 0 && n > 0 then 1 else 0);
      jobs_reused = e.e_stats.jobs_reused + k;
      jobs_placed = e.e_stats.jobs_placed + (n - k);
    };
  Atomic.incr total_repacks;
  if k = 0 && n > 0 then Atomic.incr total_full_rebuilds;
  ignore (Atomic.fetch_and_add total_jobs_reused k);
  ignore (Atomic.fetch_and_add total_jobs_placed (n - k));
  let placements_rev = Array.fold_left (fun acc p -> p :: acc) [] placements in
  schedule_of_placements ?power_budget:e.e_power_budget ~width:e.e_width
    placements_rev

let anneal ?power_budget ?(seed = 1) ?(iterations = 150) ~width jobs =
  let best = ref (pack_optimized ?power_budget ~width jobs) in
  if jobs = [] then !best
  else begin
    let rng = Msoc_util.Rng.create ~seed in
    let urgency = group_urgency jobs in
    (* current state: an explicit priority order (array of jobs) *)
    let order =
      Array.of_list
        (List.sort
           (fun a b -> compare (urgency b, Job.min_time b) (urgency a, Job.min_time a))
           jobs)
    in
    let n = Array.length order in
    (* One engine across all transpositions: a swap at (i, j) replays
       only from position min(i, j), instead of rebuilding the whole
       per-wire interval state as the old per-move pack did. *)
    let engine = prepare ?power_budget ~width () in
    let pack_order () = repack_with_order engine (Array.to_list order) in
    let current = ref (Schedule.makespan (pack_order ())) in
    let span0 = float_of_int !current in
    let temperature k =
      (* geometric cooling from 2% of the initial makespan *)
      0.02 *. span0 *. Float.pow 0.97 (float_of_int k)
    in
    for k = 1 to iterations do
      if n >= 2 then begin
        let i = Msoc_util.Rng.int rng ~bound:n in
        let j = Msoc_util.Rng.int rng ~bound:n in
        if i <> j then begin
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp;
          let candidate = pack_order () in
          let span = Schedule.makespan candidate in
          let accept =
            span <= !current
            || Msoc_util.Rng.float rng ~bound:1.0
               < Float.exp (-.float_of_int (span - !current) /. Float.max 1.0 (temperature k))
          in
          if accept then begin
            current := span;
            if span < Schedule.makespan !best then best := candidate
          end
          else begin
            (* undo the transposition *)
            let tmp = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- tmp
          end
        end
      end
    done;
    !best
  end

let lower_bound ?power_budget ~width jobs =
  let area = List.fold_left (fun acc j -> acc + Job.area j) 0 jobs in
  let area_bound = Msoc_util.Numeric.ceil_div area width in
  let bottleneck = List.fold_left (fun acc j -> max acc (Job.min_time j)) 0 jobs in
  let group_times =
    List.filter_map (fun j -> Option.map (fun g -> (g, Job.min_time j)) j.Job.exclusion) jobs
    |> Msoc_util.Combinat.group_by fst
    |> List.map (fun (_, xs) -> Msoc_util.Numeric.sum_int (List.map snd xs))
  in
  let group_bound = List.fold_left max 0 group_times in
  let power_bound =
    match power_budget with
    | None -> 0
    | Some budget ->
      let energy =
        List.fold_left (fun acc j -> acc + (j.Job.power * Job.min_time j)) 0 jobs
      in
      Msoc_util.Numeric.ceil_div energy budget
  in
  max (max area_bound power_bound) (max bottleneck group_bound)
