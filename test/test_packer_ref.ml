(* Bit-identity of the placement kernel and the best-of-orders loop.

   [Ref] below is a direct placement scan on the list-based interval
   representation the packer used before its flat int arrays, copied
   verbatim: every staircase point runs its own scan, each rebuilding
   the candidate starts and re-walking every wire's intervals. It is
   the reference the one-sweep [Packer.place] must reproduce: every
   schedule structurally equal — starts, widths, times, wire lists and
   placement order.

   Four checks ride on it:
   - a QCheck property comparing [Packer.Intervals] with [Ref.Intervals]
     over random insertions that touch their neighbours on either side;
   - a QCheck property over generated strips with multi-point
     staircases, exclusion groups, tight power budgets, conflicts,
     acyclic precedences and small times (so busy intervals touch
     candidate windows on both sides), packing one order at a time;
   - a QCheck property on the same strips for the best-of-orders rule
     with its early stop;
   - a golden pin: an MD5 over a canonical text of every placement of
     every registry variant on three SOCs (plus catalog cores A–E),
     no and full sharing, W = 16, 24, …, 64.

   A fifth check has no reference: a golden MD5 over
   [Packer.pack_optimized] and [Packer.anneal] on the paper's two
   instances pins their repack-and-keep-the-best loops. It was taken
   when anneal's proposals still resumed from cached packing-state
   checkpoints; they now pack from an empty strip.

   The search-scale suite runs the same rules on the strips the search
   strategies pack: p93791s plus 6–14 scaled analog cores under random
   set partitions, with and without a converter self-test gating each
   group. A QCheck property compares every variant with the reference
   rule; a golden MD5 pins every schedule [Registry.pack] returns along
   a seeded walk of partitions at W = 24, 32 and 40. *)

module Types = Msoc_itc02.Types
module Synthetic = Msoc_itc02.Synthetic
module Pareto = Msoc_wrapper.Pareto
module Job = Msoc_tam.Job
module Schedule = Msoc_tam.Schedule
module Packer = Msoc_tam.Packer
module Registry = Msoc_tam.Packer_registry
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Instances = Msoc_testplan.Instances
module Sharing = Msoc_analog.Sharing
module Catalog = Msoc_analog.Catalog
module Rng = Msoc_util.Rng

module Ref = struct
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

  exception Infeasible = Packer.Infeasible

  type pstate = {
    p_wires : Intervals.t array;
    p_groups : (int * Intervals.t) list;
    p_powered : (int * int * int) list;
    p_power_budget : int option;
    p_finished : int Smap.t;
    p_placed : (int * int) Smap.t;
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

  let peak_power_within st ~start ~finish =
    let instants =
      start
      :: List.filter_map
           (fun (s, _, _) -> if start < s && s < finish then Some s else None)
           st.p_powered
    in
    let at instant =
      List.fold_left
        (fun acc (s, f, p) -> if s <= instant && instant < f then acc + p else acc)
        0 st.p_powered
    in
    List.fold_left (fun acc i -> max acc (at i)) 0 instants

  let conflict_intervals st job =
    let declared =
      List.filter_map (fun l -> Smap.find_opt l st.p_placed) job.Job.conflicts
    in
    let reserved =
      Option.value (Smap.find_opt job.Job.label st.p_reserved) ~default:[]
    in
    declared @ reserved

  let earliest_placement st ~total_width ~w ~time ~group ~power ~floor ~blocked =
    let giv = group_intervals st group in
    let candidates =
      let wire_ends =
        Array.to_list st.p_wires
        |> List.concat_map (fun iv -> Intervals.ends_after iv ~time:0)
      in
      let group_ends = Intervals.ends_after giv ~time:0 in
      let power_ends = List.map (fun (_, f, _) -> f) st.p_powered in
      let blocked_ends = List.map snd blocked in
      List.sort_uniq compare (floor :: (wire_ends @ group_ends @ power_ends @ blocked_ends))
      |> List.filter (fun s -> s >= floor)
    in
    let feasible_at start =
      let finish = start + time in
      if not (Intervals.free_during giv ~start ~finish) then None
      else if
        List.exists (fun (s, f) -> start < f && s < finish) blocked
      then None
      else if
        match st.p_power_budget with
        | Some budget when power > 0 ->
          peak_power_within st ~start ~finish + power > budget
        | Some _ | None -> false
      then None
      else begin
        let free = ref [] in
        let n = ref 0 in
        for i = total_width - 1 downto 0 do
          if Intervals.free_during st.p_wires.(i) ~start ~finish then begin
            free := i :: !free;
            incr n
          end
        done;
        if !n >= w then Some (start, !free) else None
      end
    in
    let rec scan = function
      | [] -> assert false (* past every busy end everything is idle *)
      | start :: rest -> (
        match feasible_at start with
        | Some (start, free_wires) -> (start, free_wires)
        | None -> scan rest)
    in
    scan candidates

  let choose_wires st ~start ~w free_wires =
    let slack wire =
      let prev_end =
        List.fold_left
          (fun acc (_, f) -> if f <= start then max acc f else acc)
          0
          (Intervals.to_list st.p_wires.(wire))
      in
      start - prev_end
    in
    let ranked =
      List.map (fun wire -> (slack wire, wire)) free_wires
      |> List.sort compare
    in
    List.filteri (fun i _ -> i < w) ranked |> List.map snd

  let place ~width st job =
    let points =
      Pareto.points job.Job.staircase
      |> List.filter (fun (p : Pareto.point) -> p.width <= width)
    in
    if points = [] then
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
    let candidate (p : Pareto.point) =
      let start, free_wires =
        earliest_placement st ~total_width:width ~w:p.width ~time:p.time
          ~group:job.Job.exclusion ~power:job.Job.power ~floor ~blocked
      in
      (start + p.time, p, start, free_wires)
    in
    let best =
      match List.map candidate points with
      | [] -> assert false (* guarded above *)
      | c :: rest ->
        List.fold_left
          (fun ((bf, bp, _, _) as b) ((f, p, _, _) as c) ->
            if f < bf || (f = bf && p.Pareto.width < bp.Pareto.width) then c else b)
          c rest
    in
    let _, point, start, free_wires = best in
    let wires = choose_wires st ~start ~w:point.Pareto.width free_wires in
    let finish = start + point.Pareto.time in
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

  let schedule_of_placements ?power_budget ~width placements_rev =
    let placements =
      List.sort (fun a b -> compare a.Schedule.start b.Schedule.start) placements_rev
    in
    { Schedule.total_width = width; power_budget; placements }

  let pack_in_order ?power_budget ~width order =
    let _, placements_rev =
      List.fold_left
        (fun (st, acc) job ->
          let st', p = place ~width st job in
          (st', p :: acc))
        (initial_state ?power_budget ~width (), [])
        order
    in
    schedule_of_placements ?power_budget ~width placements_rev

  (* Predecessors before their dependents, the priority order kept
     otherwise: emit the first job, in order, whose predecessors are
     all out, and rescan. *)
  let respect_precedences order =
    let rec go emitted acc = function
      | [] -> List.rev acc
      | pending -> (
        let ready j = List.for_all (fun p -> List.mem p emitted) j.Job.predecessors in
        match List.find_opt ready pending with
        | None -> raise (Packer.Infeasible "precedence cycle or unknown predecessor")
        | Some j -> go (j.Job.label :: emitted) (j :: acc) (List.filter (fun k -> k != j) pending))
    in
    go [] [] order
end

(* --- generated strips ------------------------------------------------ *)

type instance = {
  width : int;
  power_budget : int option;
  jobs : Job.t list;
  seed : int;  (* the instance's seed, for a property's own draws *)
}

(* Small cores and analog times on a coarse grid: busy stretches end
   and start on a few shared instants, so candidate windows regularly
   touch an interval on either side (a stretch ending at the start, the
   next one beginning at start + time). *)
let build_instance ~seed =
  let rng = Rng.create ~seed in
  let int_in lo hi = Rng.int_in rng ~lo ~hi in
  let chance k = Rng.int rng ~bound:k = 0 in
  let width = int_in 1 64 in
  let n = int_in 1 10 in
  let grid = if chance 2 then 1 else 5 in
  let groups = int_in 1 3 in
  let labels = Array.init n (fun i -> Printf.sprintf "j%d" i) in
  let base i =
    if chance 3 then
      Job.analog ~label:labels.(i)
        ~width:(int_in 1 (min width 12))
        ~time:(grid * int_in 1 8)
        ~group:(Rng.int rng ~bound:groups)
    else begin
      let chains = List.init (int_in 0 6) (fun _ -> int_in 1 12) in
      let core =
        Types.core ~id:(i + 1) ~name:labels.(i) ~inputs:(int_in 0 8)
          ~outputs:(int_in 0 8) ~bidirs:0 ~scan_chains:chains
          ~patterns:(int_in 1 6)
      in
      let j = Job.of_core core ~max_width:(int_in 1 64) in
      if chance 4 then { j with Job.exclusion = Some (Rng.int rng ~bound:groups) } else j
    end
  in
  let power_budget = if chance 2 then Some (int_in 1 6) else None in
  let pick_labels ~below =
    if below = 0 then []
    else List.sort_uniq compare (List.init (int_in 1 2) (fun _ -> labels.(Rng.int rng ~bound:below)))
  in
  let jobs =
    List.init n (fun i ->
        let j = base i in
        let j =
          let cap = Option.value power_budget ~default:6 in
          Job.with_power j (if chance 3 then 0 else int_in 1 cap)
        in
        let j =
          if chance 4 then Job.with_predecessors j (pick_labels ~below:i) else j
        in
        if chance 4 then
          Job.with_conflicts j
            (List.filter (fun l -> l <> labels.(i)) (pick_labels ~below:n))
        else j)
  in
  { width; power_budget; jobs; seed }

let print_instance inst =
  let job j =
    Printf.sprintf "%s[pts=%s grp=%s pw=%d pred=%s conf=%s]" j.Job.label
      (String.concat ";"
         (List.map
            (fun (p : Pareto.point) -> Printf.sprintf "%dx%d" p.width p.time)
            (Pareto.points j.Job.staircase)))
      (match j.Job.exclusion with Some g -> string_of_int g | None -> "-")
      j.Job.power
      (String.concat "," j.Job.predecessors)
      (String.concat "," j.Job.conflicts)
  in
  Printf.sprintf "W=%d budget=%s\n%s" inst.width
    (match inst.power_budget with Some b -> string_of_int b | None -> "none")
    (String.concat "\n" (List.map job inst.jobs))

let instance_arb =
  QCheck.make ~print:print_instance
    QCheck.Gen.(map (fun seed -> build_instance ~seed) (int_range 1 1_000_000_000))

let reference inst order =
  Ref.pack_in_order ?power_budget:inst.power_budget ~width:inst.width
    (Ref.respect_precedences order)

(* Every priority order of every registry variant, packed one order at
   a time through the generic entry point. *)
let one_shot_matches inst =
  List.for_all
    (fun (module P : Msoc_tam.Packer_intf.S) ->
      List.for_all
        (fun o ->
          Packer.pack_with_orders ?power_budget:inst.power_budget ~width:inst.width
            ~orders:(fun _ -> [ o ])
            inst.jobs
          = reference inst o)
        (P.orders inst.jobs))
    Registry.all

(* The best-of-orders rule without an early stop, through [Ref]: pack
   every order from scratch and keep the first strictly smaller
   makespan. *)
let reference_best inst orders =
  match List.map (reference inst) orders with
  | [] -> None
  | s :: rest ->
    Some
      (List.fold_left
         (fun best s ->
           if Schedule.makespan s < Schedule.makespan best then s else best)
         s rest)

(* Every variant's best of its orders equals the reference rule. *)
let best_of_orders_matches inst =
  List.for_all
    (fun (module P : Msoc_tam.Packer_intf.S) ->
      Some
        (Packer.pack_with_orders ?power_budget:inst.power_budget ~width:inst.width
           ~orders:P.orders inst.jobs)
      = reference_best inst (P.orders inst.jobs))
    Registry.all

(* Insertions on a coarse or a fine grid, each kept only when the
   window is free (the packer's precondition), so new windows often
   touch a stretch on one or both sides. *)
let intervals_match seed =
  let rng = Rng.create ~seed in
  let grid = if Rng.int rng ~bound:2 = 0 then 1 else 5 in
  let window () =
    let start = grid * Rng.int rng ~bound:12 in
    (start, start + (grid * Rng.int_in rng ~lo:1 ~hi:4))
  in
  let agree flat listed =
    Packer.Intervals.to_list flat = Ref.Intervals.to_list listed
    && List.for_all
         (fun _ ->
           let start, finish = window () in
           Packer.Intervals.free_during flat ~start ~finish
           = Ref.Intervals.free_during listed ~start ~finish
           && Packer.Intervals.ends_after flat ~time:start
              = Ref.Intervals.ends_after listed ~time:start)
         [ 1; 2; 3 ]
  in
  let rec grow flat listed k =
    k = 0
    ||
    let start, finish = window () in
    if Ref.Intervals.free_during listed ~start ~finish then
      let flat = Packer.Intervals.add flat ~start ~finish
      and listed = Ref.Intervals.add listed ~start ~finish in
      agree flat listed && grow flat listed (k - 1)
    else grow flat listed (k - 1)
  in
  grow Packer.Intervals.empty Ref.Intervals.empty 24

let qcheck_tests =
  [
    QCheck.Test.make ~name:"Intervals = list reference" ~count:500
      QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000_000))
      intervals_match;
    QCheck.Test.make ~name:"place = reference (one order at a time)" ~count:500
      instance_arb one_shot_matches;
    QCheck.Test.make ~name:"best of orders = reference rule" ~count:300 instance_arb
      best_of_orders_matches;
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

(* --- golden pin ------------------------------------------------------ *)

(* One line per placement, in placement order, under a header naming
   the case. *)
let canonical buf ~case (s : Schedule.t) =
  Buffer.add_string buf case;
  Buffer.add_char buf '\n';
  List.iter
    (fun (p : Schedule.placement) ->
      Printf.bprintf buf "%s %d %d %d %s\n" p.Schedule.job.Job.label p.start
        p.width p.time
        (String.concat "," (List.map string_of_int p.wires)))
    s.Schedule.placements

let golden_digest () =
  let socs =
    [
      ("p93791s", Msoc_itc02.Soc_file.load "../data/p93791s.soc");
      ("p22810s", Synthetic.p22810s ());
      ("d281s", Synthetic.d281s ());
    ]
  in
  let sharings =
    [ ("none", Sharing.no_sharing Catalog.all); ("full", Sharing.full_sharing Catalog.all) ]
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (soc_name, soc) ->
      List.iter
        (fun width ->
          let problem =
            Problem.make ~soc ~analog_cores:Catalog.all ~tam_width:width
              ~weight_time:0.5 ()
          in
          List.iter
            (fun (sharing_name, sharing) ->
              let jobs = Evaluate.jobs_for_problem problem sharing in
              List.iter
                (fun p ->
                  let case =
                    Printf.sprintf "# %s %s %s W%d" (Registry.name p) soc_name
                      sharing_name width
                  in
                  canonical buf ~case (Registry.pack p ~width jobs))
                Registry.all)
            sharings)
        [ 16; 24; 32; 40; 48; 56; 64 ])
    socs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden () =
  Alcotest.(check string)
    "placements of every variant, SOC, sharing and width"
    "4f043bbbe3c252f60f9e1d31fe76c314"
    (golden_digest ())

(* [Packer.pack_optimized] and [Packer.anneal] (seeds 1-3) on the two
   paper instances, no and full sharing, W = 16, 32 and 64, plus
   p93791m's no-sharing jobs under a power budget. *)
let optimized_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let pin ?power_budget ~case ~width jobs =
    canonical buf ~case:(case ^ " pack_optimized")
      (Packer.pack_optimized ?power_budget ~width jobs);
    List.iter
      (fun seed ->
        canonical buf
          ~case:(Printf.sprintf "%s anneal seed %d" case seed)
          (Packer.anneal ?power_budget ~seed ~width jobs))
      [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, instance) ->
      List.iter
        (fun width ->
          let problem : Problem.t = instance width in
          let analog = problem.Problem.analog_cores in
          List.iter
            (fun (sharing_name, sharing) ->
              pin
                ~case:(Printf.sprintf "# %s %s W%d" name sharing_name width)
                ~width
                (Evaluate.jobs_for_problem problem sharing))
            [ ("none", Sharing.no_sharing analog); ("full", Sharing.full_sharing analog) ])
        [ 16; 32; 64 ])
    [
      ("p93791m", fun tam_width -> Instances.p93791m ~tam_width ());
      ("d281m", fun tam_width -> Fixtures.d281m ~tam_width ());
    ];
  let problem = Instances.p93791m ~tam_width:32 () in
  let jobs =
    List.mapi
      (fun i j -> Job.with_power j (1 + (i mod 4)))
      (Evaluate.jobs_for_problem problem (Sharing.no_sharing problem.Problem.analog_cores))
  in
  pin ~power_budget:6 ~case:"# p93791m none W32 budget 6" ~width:32 jobs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_optimized_golden () =
  Alcotest.(check string)
    "pack_optimized and anneal schedules" "cc254e5f6425127789b9c8bab5a5f1aa"
    (optimized_digest ())

(* --- search-scale strips ----------------------------------------- *)

(* p93791s with [n] scaled analog cores at TAM width [width]; with
   [self_test], each sharing group's tests wait for its converter
   self-test (a predecessor). *)
let scaled_prepared ~n ~width ~self_test =
  Evaluate.prepare
    (Problem.make ~soc:(Synthetic.p93791s ()) ~analog_cores:(Instances.scaled_analog ~n)
       ~tam_width:width ~weight_time:0.5
       ?self_test:(if self_test then Some { Problem.hits_per_code = 4 } else None)
       ())

(* A set partition as a group index per core: [assign.(i)] in 0..n-1. *)
let random_assignment rng n =
  let groups = Rng.int_in rng ~lo:1 ~hi:n in
  Array.init n (fun _ -> Rng.int rng ~bound:groups)

(* A search-like move: one core joins another group or a new one. *)
let move rng assign =
  let n = Array.length assign in
  assign.(Rng.int rng ~bound:n) <- Rng.int rng ~bound:n

let sharing_of cores assign =
  Sharing.make
    (List.filter_map
       (fun g ->
         match List.filteri (fun i _ -> assign.(i) = g) cores with
         | [] -> None
         | group -> Some group)
       (List.init (Array.length assign) Fun.id))

type scaled = { n : int; s_width : int; self_test : bool; seed : int }

let scaled_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "n=%d W=%d self_test=%b seed=%d" c.n c.s_width c.self_test c.seed)
    QCheck.Gen.(
      map
        (fun (n, (s_width, (self_test, seed))) -> { n; s_width; self_test; seed })
        (pair (int_range 6 14)
           (pair (int_range 16 64) (pair bool (int_range 1 1_000_000_000)))))

(* Every variant's best of its orders equals the reference rule on a
   random partition. *)
let search_scale_matches c =
  let prepared = scaled_prepared ~n:c.n ~width:c.s_width ~self_test:c.self_test in
  let cores = (Evaluate.problem prepared).Problem.analog_cores in
  let assign = random_assignment (Rng.create ~seed:c.seed) c.n in
  best_of_orders_matches
    {
      width = c.s_width;
      power_budget = None;
      jobs = Evaluate.jobs_for prepared (sharing_of cores assign);
      seed = c.seed;
    }

(* Every schedule each variant packs along a seeded walk of 20
   partitions of p93791s + 14 scaled cores, the self-test gating on
   every other step. *)
let search_scale_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun width ->
      let plain = scaled_prepared ~n:14 ~width ~self_test:false
      and gated = scaled_prepared ~n:14 ~width ~self_test:true in
      let cores = (Evaluate.problem plain).Problem.analog_cores in
      let rng = Rng.create ~seed:width in
      let assign = random_assignment rng 14 in
      for step = 1 to 20 do
        let prepared = if step mod 2 = 0 then gated else plain in
        let jobs = Evaluate.jobs_for prepared (sharing_of cores assign) in
        List.iter
          (fun p ->
            let case = Printf.sprintf "# %s W%d step %d" (Registry.name p) width step in
            canonical buf ~case (Registry.pack p ~width jobs))
          Registry.all;
        move rng assign
      done)
    [ 24; 32; 40 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_search_scale_golden () =
  Alcotest.(check string)
    "schedules along a walk of p93791s + 14 scaled cores"
    "3646926e84be14a5dbb72914da08481b"
    (search_scale_digest ())

let suites =
  [
    ("packer-ref.property", qcheck_tests);
    ( "packer-ref.golden",
      [
        Alcotest.test_case "registry placements pinned" `Quick test_golden;
        Alcotest.test_case "anneal and pack_optimized pinned" `Quick
          test_optimized_golden;
      ] );
    ( "packer-ref.search-scale",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"best of orders = reference rule" ~count:16
             scaled_arb search_scale_matches);
        Alcotest.test_case "walk schedules pinned" `Quick test_search_scale_golden;
      ] );
  ]
