module Pareto = Msoc_wrapper.Pareto

exception Infeasible of string

(* Sorted, disjoint busy stretches [start, finish) as one flat int
   array [|s0; f0; s1; f1; ...|], one pair per maximal busy stretch.
   An array is never mutated once built: [add] returns a fresh one.
   The packer keeps the wires that share one busy history array as one
   class, and a placement that takes part of a class splits it: the
   wires it leaves keep the old array. *)
module Intervals = struct
  type t = int array

  let empty : t = [||]

  let to_list t = List.init (Array.length t / 2) (fun i -> (t.(2 * i), t.(2 * i + 1)))

  (* Array index of the first stretch ending after [time] (the length
     when none does), by binary search over the sorted finishes. *)
  let rec search (t : t) ~time lo hi =
    if lo >= hi then 2 * lo
    else
      let mid = (lo + hi) / 2 in
      if t.((2 * mid) + 1) <= time then search t ~time (mid + 1) hi
      else search t ~time lo mid

  let first_after t ~time = search t ~time 0 (Array.length t / 2)

  let free_during t ~start ~finish =
    let c = first_after t ~time:start in
    c = Array.length t || finish <= t.(c)

  (* Insert a busy window, merging with a touching neighbour on either
     side so the array keeps one pair per maximal busy stretch. Callers
     only add windows that passed [free_during], so the new window
     never overlaps an existing stretch. *)
  let add t ~start ~finish =
    let len = Array.length t in
    let c = first_after t ~time:(start - 1) in
    let left = c < len && t.(c + 1) = start in
    let next = if left then c + 2 else c in
    let right = next < len && t.(next) = finish in
    let after = if right then next + 2 else next in
    let r = Array.make (len + 2 - (after - c)) start in
    for j = 0 to c - 1 do
      r.(j) <- t.(j)
    done;
    if left then r.(c) <- t.(c);
    r.(c + 1) <- (if right then t.(next + 1) else finish);
    for j = after to len - 1 do
      r.(j + c + 2 - after) <- t.(j)
    done;
    r

  let ends_after t ~time =
    List.filter_map (fun (_, f) -> if f >= time then Some f else None) (to_list t)
end

module Smap = Map.Make (String)

let group_intervals groups = function
  | None -> Intervals.empty
  | Some g -> Option.value (List.assoc_opt g groups) ~default:Intervals.empty

(* The idle run of a resource at [start] is 0 when it is busy at
   [start], otherwise the distance to its next busy instant ([max_int]
   when it stays idle). Every job time t is > 0, so the resource is
   free throughout [start, start + t) exactly when t <= its run.
   [window_run] reads windows in any order. *)
let rec window_run windows ~start run =
  match windows with
  | [] -> run
  | (s, f) :: rest ->
    if s <= start && start < f then 0
    else window_run rest ~start (if start < s then Int.min run (s - start) else run)

(* The committed load is piecewise constant and rises only where a
   placement starts, so the budget first breaks at [start] or at a
   later placement start. *)
let power_run power_budget powered ~start ~power =
  match power_budget with
  | Some budget when power > 0 ->
    let over instant =
      List.fold_left
        (fun acc (s, f, p) -> if s <= instant && instant < f then acc + p else acc)
        power powered
      > budget
    in
    if over start then 0
    else
      List.fold_left
        (fun run (s, _, _) ->
          if start < s && s - start < run && over s then s - start else run)
        max_int powered
  | Some _ | None -> max_int

module Iset = Set.Make (Int)

(* Reorder so that predecessors come before their dependents while
   otherwise preserving the priority order: a label-keyed Kahn
   topological sort that, at every step, emits the ready job earliest
   in the input order — exactly the sequence the old O(n²)
   partition-and-rescan loop produced, in O(n + e) set operations.
   When no job names a predecessor every job is ready from the start,
   so the order is the input itself. *)
let respect_precedences order =
  let index = Hashtbl.create 64 in
  List.iteri
    (fun i j ->
      if Hashtbl.mem index j.Job.label then
        raise (Infeasible (Printf.sprintf "duplicate job label: %s" j.Job.label));
      Hashtbl.add index j.Job.label i)
    order;
  if List.for_all (fun j -> j.Job.predecessors = []) order then order
  else
    let jobs = Array.of_list order in
    let n = Array.length jobs in
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

(* --- the placement kernel ------------------------------------------- *)

(* The wires of one order's strip and the sweep's scratch, written in
   place by every placement of the order, so [place] allocates no
   buffer.

   The wires are held as classes, and the sweep runs over classes, not
   wires. A class is the set of wires whose busy history is one
   physical array, counted by its number of wires: the empty strip is
   one class, and every placement keeps them current. Per class, the
   sweep keeps a cursor on the first busy stretch ending after the
   current start, that stretch's bounds and the end of the stretch
   before it, all in flat int arrays. *)
type sweep = {
  history : Intervals.t array;  (* per class: its busy history *)
  count : int array;  (* per class: its wires *)
  cursor : int array;  (* array index of the stretch at the cursor *)
  busy_from : int array;  (* its start; [max_int] when idle for good *)
  busy_until : int array;  (* its finish; [max_int] when idle for good *)
  idle_since : int array;  (* the previous stretch's finish, or 0 *)
  slack : int array;  (* idle slack in front of the best window, or -1 *)
  taken : int array;  (* wires the placement takes from it; 0 between placements *)
  moved : int array;  (* the class its taken wires move to *)
  runs : int array;  (* the finite idle runs at the current start *)
  run_wires : int array;  (* the wires of each finite run *)
  class_of : int array;  (* per wire: its class *)
  keys : int array;  (* the best window's free wires, keyed *)
  mutable classes : int;  (* classes in use *)
  mutable finite : int;  (* entries of [runs] in use *)
  mutable idle : int;  (* wires idle for good at the current start *)
  (* the best point so far; [best_finish = max_int] before the first *)
  mutable best_finish : int;
  mutable best_width : int;
  mutable best_start : int;
}

let sweep ~width =
  let slots () = Array.make width 0 in
  let count = slots () in
  count.(0) <- width;
  {
    history = Array.make width Intervals.empty;
    count;
    cursor = slots ();
    busy_from = slots ();
    busy_until = slots ();
    idle_since = slots ();
    slack = slots ();
    taken = slots ();
    moved = slots ();
    runs = slots ();
    run_wires = slots ();
    class_of = slots ();
    keys = slots ();
    classes = 1;
    finite = 0;
    idle = 0;
    best_finish = max_int;
    best_width = 0;
    best_start = 0;
  }

(* The packing state of one order, written in place by [place]. *)
type state = {
  sw : sweep;
  width : int;
  power_budget : int option;
  (* whether placements record their labels: some job of the order
     names a predecessor or a conflict *)
  track : bool;
  mutable groups : (int * Intervals.t) list;
  (* committed placements as (start, finish, power) for the budget *)
  mutable powered : (int * int * int) list;
  (* label -> busy interval of the placed job with that label, when
     [track] *)
  mutable placed : (int * int) Smap.t;
  (* label of a FUTURE job -> intervals already reserved against it by
     placed jobs that declared the conflict *)
  mutable reserved : (int * int) list Smap.t;
  (* the latest finish so far: the running makespan *)
  mutable makespan : int;
}

(* Blocked windows of a job: the busy intervals of placed jobs it
   declared a conflict with, plus those reserved against it by placed
   jobs that declared one with it. Any order, possibly repeated. *)
let conflict_intervals st job =
  let declared = List.filter_map (fun l -> Smap.find_opt l st.placed) job.Job.conflicts in
  let reserved = Option.value (Smap.find_opt job.Job.label st.reserved) ~default:[] in
  declared @ reserved

(* The least conflict-window or power-placement end after [start]. *)
let lower_end ~start (least : int) f = if start < f && f < least then f else least

let rec window_end windows ~start least =
  match windows with
  | [] -> least
  | (_, f) :: rest -> window_end rest ~start (lower_end ~start least f)

let rec power_end powered ~start least =
  match powered with
  | [] -> least
  | (_, f, _) :: rest -> power_end rest ~start (lower_end ~start least f)

(* Array index of the first stretch of [ivs] ending after [start], from
   cursor [c] on: the sweep's starts only grow. *)
let rec advance (ivs : Intervals.t) c ~start =
  if c < Array.length ivs && ivs.(c + 1) <= start then advance ivs (c + 2) ~start else c

(* Bring every class to [start]: a class whose stretch at the cursor
   has ended moves its cursor on. Counts the wires idle for good,
   collects the finite idle runs with their wires and returns the least
   stretch end after [start], the next start. *)
let scan_classes sw ~start =
  let next = ref max_int in
  sw.idle <- 0;
  sw.finite <- 0;
  for c = 0 to sw.classes - 1 do
    if sw.busy_until.(c) <= start then begin
      let ivs = sw.history.(c) in
      let k = advance ivs sw.cursor.(c) ~start in
      sw.cursor.(c) <- k;
      if k > 0 then sw.idle_since.(c) <- ivs.(k - 1);
      if k = Array.length ivs then begin
        sw.busy_from.(c) <- max_int;
        sw.busy_until.(c) <- max_int
      end
      else begin
        sw.busy_from.(c) <- ivs.(k);
        sw.busy_until.(c) <- ivs.(k + 1)
      end
    end;
    let until = sw.busy_until.(c) and from = sw.busy_from.(c) in
    if until < !next then next := until;
    if from = max_int then sw.idle <- sw.idle + sw.count.(c)
    else if from > start then begin
      sw.runs.(sw.finite) <- from - start;
      sw.run_wires.(sw.finite) <- sw.count.(c);
      sw.finite <- sw.finite + 1
    end
  done;
  !next

(* At least [p.width] wires are idle for [p.time] from the start. *)
let fits sw (p : Pareto.point) =
  let n = ref sw.idle in
  for j = 0 to sw.finite - 1 do
    if sw.runs.(j) >= p.time then n := !n + sw.run_wires.(j)
  done;
  !n >= p.width

(* Note, per class, the idle slack its previous busy stretch leaves in
   front of [start] when it is free over [start, finish), -1 when not. *)
let note_free_classes sw ~start ~finish =
  for c = 0 to sw.classes - 1 do
    sw.slack.(c) <- (if sw.busy_from.(c) >= finish then start - sw.idle_since.(c) else -1)
  done

(* Resolve the usable points at [start], where the group, conflict and
   power runs are all [cap]: a point that still beats the best (finish,
   width) becomes the best if it fits. Returns how many points stay
   open; a point that cannot beat the best never will. *)
let rec resolve sw ~width ~start ~cap open_points = function
  | (p : Pareto.point) :: rest when p.width <= width ->
    let finish = start + p.time in
    if finish < sw.best_finish || (finish = sw.best_finish && p.width < sw.best_width)
    then
      if p.time <= cap && fits sw p then begin
        sw.best_finish <- finish;
        sw.best_width <- p.width;
        sw.best_start <- start;
        note_free_classes sw ~start ~finish;
        resolve sw ~width ~start ~cap open_points rest
      end
      else resolve sw ~width ~start ~cap (open_points + 1) rest
    else resolve sw ~width ~start ~cap open_points rest
  | _ -> open_points

(* In-place ascending sort of [a.(0 .. n-1)]. *)
let insertion_sort (a : int array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* The [w] wires the best window takes: of the wires free over it,
   keyed slack * width + wire, the [w] least keys. *)
let choose_wires sw ~width w =
  let free = ref 0 in
  for i = 0 to width - 1 do
    let slack = sw.slack.(sw.class_of.(i)) in
    if slack >= 0 then begin
      sw.keys.(!free) <- (slack * width) + i;
      incr free
    end
  done;
  insertion_sort sw.keys !free;
  List.init w (fun j -> sw.keys.(j) mod width)

(* Add [start, finish) to the chosen wires. [Intervals.add] runs once
   per class the wires come from, at its first chosen wire. A class
   whose wires are all chosen moves to the grown history; one chosen in
   part splits, its chosen wires forming a new class. *)
let take_wires sw chosen ~start ~finish =
  List.iter
    (fun wire ->
      let c = sw.class_of.(wire) in
      sw.taken.(c) <- sw.taken.(c) + 1)
    chosen;
  List.iter
    (fun wire ->
      let c = sw.class_of.(wire) in
      let taken = sw.taken.(c) in
      if taken > 0 then begin
        sw.taken.(c) <- 0;
        let grown = Intervals.add sw.history.(c) ~start ~finish in
        if taken = sw.count.(c) then begin
          sw.history.(c) <- grown;
          sw.moved.(c) <- c
        end
        else begin
          let split = sw.classes in
          sw.classes <- split + 1;
          sw.history.(split) <- grown;
          sw.count.(split) <- taken;
          sw.count.(c) <- sw.count.(c) - taken;
          sw.moved.(c) <- split
        end
      end;
      sw.class_of.(wire) <- sw.moved.(c))
    chosen

(* Place one job on the earliest feasible window, writing it into [st],
   and return the placement.

   One ascending sweep over the job's candidate starts resolves every
   staircase point at once. The candidate starts are the precedence
   floor and every wire, group, conflict-window and power end after
   it: from each start the sweep moves to the least such end after it,
   reading each wire class and the group through one cursor each. At
   each start a class is busy, idle for good, or idle for a finite
   run; a point (w, t) fits when the group, conflict and power runs are
   all >= t and the wires idle for good plus the wires of the finite
   runs >= t number at least w. The best point is the least (finish,
   width); the sweep ends when no point can beat it. Of the wires free
   over the best window, the job takes the [w] with the least idle
   slack in front of it (the least keys slack * width + wire). *)
let place st job =
  let sw = st.sw and width = st.width in
  let points = Pareto.points job.Job.staircase in
  (* Widths rise along the staircase: the usable points are a prefix. *)
  let usable =
    List.fold_left
      (fun n (p : Pareto.point) -> if p.width <= width then n + 1 else n)
      0 points
  in
  if usable = 0 then
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
        match Smap.find_opt pred st.placed with
        | Some (_, f) -> Int.max acc f
        | None -> acc (* respect_precedences guarantees presence *))
      0 job.Job.predecessors
  in
  let blocked = conflict_intervals st job in
  let group = group_intervals st.groups job.Job.exclusion in
  for c = 0 to sw.classes - 1 do
    sw.cursor.(c) <- 0;
    sw.idle_since.(c) <- 0;
    sw.busy_until.(c) <- min_int (* moves every cursor at the first start *)
  done;
  sw.best_finish <- max_int;
  let rec go start group_cursor open_points =
    if open_points > 0 && start < max_int then begin
      let g = advance group group_cursor ~start in
      let idle_group = g = Array.length group in
      let next =
        Int.min
          (if idle_group then max_int else group.(g + 1))
          (Int.min (scan_classes sw ~start)
             (power_end st.powered ~start (window_end blocked ~start max_int)))
      in
      let cap =
        Int.min
          (if idle_group then max_int else Int.max 0 (group.(g) - start))
          (Int.min (window_run blocked ~start max_int)
             (power_run st.power_budget st.powered ~start ~power:job.Job.power))
      in
      go next g (if cap > 0 then resolve sw ~width ~start ~cap 0 points else open_points)
    end
  in
  go floor 0 usable;
  if sw.best_finish = max_int then
    raise
      (Infeasible
         (Printf.sprintf "job %s found no feasible start on the strip" job.Job.label));
  let start = sw.best_start and finish = sw.best_finish and w = sw.best_width in
  let chosen = choose_wires sw ~width w in
  take_wires sw chosen ~start ~finish;
  (match job.Job.exclusion with
  | Some g ->
    st.groups <- (g, Intervals.add group ~start ~finish) :: List.remove_assoc g st.groups
  | None -> ());
  if job.Job.power > 0 then st.powered <- (start, finish, job.Job.power) :: st.powered;
  st.reserved <-
    List.fold_left
      (fun acc other ->
        let existing = Option.value (Smap.find_opt other acc) ~default:[] in
        Smap.add other ((start, finish) :: existing) acc)
      st.reserved job.Job.conflicts;
  if st.track then st.placed <- Smap.add job.Job.label (start, finish) st.placed;
  st.makespan <- Int.max st.makespan finish;
  { Schedule.job; start; width = w; time = finish - start; wires = chosen }

(* Process-wide packing accounting, atomics so pool workers and benches
   can read deltas from any domain. [full_rebuilds] counts order packs,
   stopped or not; [jobs_placed] counts the placements computed, so an
   order stopped by the best-of-orders bound counts only the jobs it
   placed. *)
type totals = { full_rebuilds : int; jobs_reused : int; jobs_placed : int }

let total_full_rebuilds = Atomic.make 0
let total_jobs_placed = Atomic.make 0

let repack_totals () =
  {
    full_rebuilds = Atomic.get total_full_rebuilds;
    jobs_reused = 0;
    jobs_placed = Atomic.get total_jobs_placed;
  }

(* Pack one order on an empty strip, placing jobs until the order is
   placed or its running makespan reaches [bound]; [None] then. *)
let pack_in_order ?power_budget ~width ~bound order =
  let st =
    {
      sw = sweep ~width;
      width;
      power_budget;
      track =
        List.exists (fun j -> j.Job.predecessors <> [] || j.Job.conflicts <> []) order;
      groups = [];
      powered = [];
      placed = Smap.empty;
      reserved = Smap.empty;
      makespan = 0;
    }
  in
  let rec go placed = function
    | job :: rest when st.makespan < bound -> go (place st job :: placed) rest
    | _ -> placed
  in
  let placements = go [] order in
  Atomic.incr total_full_rebuilds;
  ignore (Atomic.fetch_and_add total_jobs_placed (List.length placements));
  if st.makespan < bound then
    Some
      {
        Schedule.total_width = width;
        power_budget;
        placements =
          List.sort (fun a b -> Int.compare a.Schedule.start b.Schedule.start) placements;
      }
  else None

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

(* A job's priority keys, computed once for all three rules. *)
type keys = { job : Job.t; urgency : int; time : int; area : int; width : int }

(* Greedy list scheduling is sensitive to the job order, so the
   default packer tries a few natural priority rules and keeps the
   best schedule: longest (group-aware) first, largest area first, and
   widest first (which wins when one wide bottleneck rectangle must
   nest under the narrow analog chains). Each rule is a stable sort of
   one keyed array, decreasing on a pair of keys. *)
let priority_orders jobs =
  let urgency = group_urgency jobs in
  let keyed =
    Array.of_list
      (List.map
         (fun job ->
           { job; urgency = urgency job; time = Job.min_time job; area = Job.area job;
             width = Job.min_width job })
         jobs)
  in
  let by first second =
    let sorted = Array.copy keyed in
    Array.stable_sort
      (fun a b ->
        match Int.compare (first b) (first a) with
        | 0 -> Int.compare (second b) (second a)
        | c -> c)
      sorted;
    Array.fold_right (fun k acc -> k.job :: acc) sorted []
  in
  [
    by (fun k -> k.urgency) (fun k -> k.time);
    by (fun k -> k.area) (fun k -> k.urgency);
    by (fun k -> k.width) (fun k -> k.urgency);
  ]

(* The first schedule with the strictly smallest makespan. Each order
   gives up once its running makespan reaches [bound]: the makespan of
   the best complete order so far. Placing more jobs never lowers a
   running makespan, and a tie keeps the earlier order, so an order
   that reaches the bound cannot win. *)
let best_of_orders ?power_budget ~width orders =
  List.fold_left
    (fun best order ->
      let bound = match best with Some s -> Schedule.makespan s | None -> max_int in
      match pack_in_order ?power_budget ~width ~bound (respect_precedences order) with
      | Some _ as s -> s
      | None -> best)
    None orders

let pack_with_orders ?power_budget ~width ~orders jobs =
  validate_strip ?power_budget ~width ();
  validate_jobs ?power_budget ~width jobs;
  match best_of_orders ?power_budget ~width (orders jobs) with
  | Some s -> s
  | None -> invalid_arg "Packer.pack_with_orders: orders produced no priority order"

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
   priority order and repack; repeat while it helps, at most 8 times.
   The critical job is the one whose placement freedom matters most,
   so scheduling it first usually removes the overhang. *)
let pack_optimized ?power_budget ~width jobs =
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
          let best =
            Option.value ~default:best
              (pack_in_order ?power_budget ~width ~bound:(Schedule.makespan best) order)
          in
          refine best order_front (remaining - 1)
        end
  in
  refine initial [] 8

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
    let pack_order () =
      pack_with_orders ?power_budget ~width ~orders:(fun _ -> [ Array.to_list order ]) jobs
    in
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
  validate_strip ?power_budget ~width ();
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
