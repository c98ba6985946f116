(* Bit-identity of the search kernel.

   [Ref] below is the list-based branch-and-bound, annealer and bound
   the flat kernel replaced, copied verbatim: every group refresh
   rebuilds its core list and re-derives each member's requirement and
   wrapper area, every annealing state is built as a Sharing.t and
   named, and every child of a branch-and-bound node rebuilds the whole
   group list. It is the reference the table-driven [Bnb], [Anneal] and
   [Bound] must reproduce bit for bit.

   Two checks ride on it:
   - a QCheck property over small synthetic SOCs (2..10 analog cores
     with repeated requirements, clashing converters and identical
     test sets, under the paper's area model, merged-requirement sizing
     and placed routing): every branch-and-bound and annealing outcome
     — cost bits, sharing, optimality and every [Stats] field but
     [wall_ms] — equals the reference's, and so do the list API's
     [Bound.lower_bound] on a random partial state and the bound of
     every unassigned suffix priced from [Bound]'s tables;
   - a golden pin: an MD5 over the outcomes of both strategies on
     p93791s with 11..14 scaled analog cores at W = 24, 32 and 40, 24
     evaluations each. *)

module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Instances = Msoc_testplan.Instances
module Synthetic = Msoc_itc02.Synthetic
module Spec = Msoc_analog.Spec
module Area = Msoc_analog.Area
module Sharing = Msoc_analog.Sharing
module Placement = Msoc_analog.Placement
module Stats = Msoc_search.Stats
module Budget = Msoc_search.Budget
module Bound = Msoc_search.Bound
module Bnb = Msoc_search.Bnb
module Anneal = Msoc_search.Anneal
module Rng = Msoc_util.Rng

module Ref = struct
  module Bound = struct
    module Spec = Msoc_analog.Spec
    module Area = Msoc_analog.Area
    module Job = Msoc_tam.Job
    module Packer = Msoc_tam.Packer
    module Evaluate = Msoc_testplan.Evaluate
    module Problem = Msoc_testplan.Problem
    module Numeric = Msoc_util.Numeric

    type t = {
      problem : Problem.t;
      reference_makespan : int;
      t_floor : int;
      solo_total : float;
      solo_area : (string, float) Hashtbl.t;
      join_floor : float option;
          (** per-unassigned-core area floor cap [k·A_min]; [None] when the
              model shape gives no provable floor *)
    }

    let group_usage group =
      List.fold_left (fun acc c -> acc + Spec.core_time c) 0 group

    let group_contrib t group =
      let model = t.problem.Problem.area_model in
      (1.0 +. (Area.routing_overhead_pct model group /. 100.0))
      *. Area.group_area model group

    let create prepared =
      let problem = Evaluate.problem prepared in
      let model = problem.Problem.area_model in
      let cores = problem.Problem.analog_cores in
      let solo_area = Hashtbl.create 16 in
      List.iter
        (fun (c : Spec.core) ->
          Hashtbl.replace solo_area c.Spec.label (Area.wrapper_area_of_core model c))
        cores;
      let solo_total =
        List.fold_left
          (fun acc (c : Spec.core) -> acc +. Area.wrapper_area_of_core model c)
          0.0 cores
      in
      (* Every analog test as its own singleton job, no self-test: a valid
         relaxation of every partition's job set (merging only lengthens
         exclusion serials; self-tests only add work). *)
      let analog_singletons =
        List.concat
          (List.mapi
             (fun gi (c : Spec.core) ->
               List.map
                 (fun (test : Spec.test) ->
                   Job.analog
                     ~label:(Printf.sprintf "%s:%s" c.Spec.label test.Spec.name)
                     ~width:test.Spec.tam_width ~time:test.Spec.cycles ~group:gi)
                 c.Spec.tests)
             cores)
      in
      let t_floor =
        Packer.lower_bound ~width:problem.Problem.tam_width
          (Evaluate.digital_jobs prepared @ analog_singletons)
      in
      let join_floor =
        match (model.Area.routing, model.Area.a_max_rule) with
        | Area.Uniform k, Area.Max_individual ->
          let a_min =
            List.fold_left
              (fun acc (c : Spec.core) ->
                Float.min acc (Area.wrapper_area_of_core model c))
              infinity cores
          in
          Some (k *. a_min)
        | (Area.Uniform _ | Area.Placed _), _ -> None
      in
      {
        problem;
        reference_makespan = Evaluate.reference_makespan prepared;
        t_floor;
        solo_total;
        solo_area;
        join_floor;
      }

    let t_floor t = t.t_floor

    let reference_makespan t = t.reference_makespan

    let solo_total t = t.solo_total

    let solo_area t (c : Spec.core) =
      match Hashtbl.find_opt t.solo_area c.Spec.label with
      | Some a -> a
      | None -> Area.wrapper_area_of_core t.problem.Problem.area_model c

    let lower_bound t ~groups ~unassigned =
      let lb =
        List.fold_left (fun acc g -> max acc (group_usage g)) t.t_floor groups
      in
      let lb =
        List.fold_left
          (fun acc (c : Spec.core) -> max acc (Spec.core_time c))
          lb unassigned
      in
      let c_t =
        Numeric.percent_of_or ~default:0.0 (float_of_int lb)
          (float_of_int t.reference_makespan)
      in
      let c_a =
        match t.join_floor with
        | None -> 0.0
        | Some cap ->
          let assigned =
            List.fold_left (fun acc g -> acc +. group_contrib t g) 0.0 groups
          in
          let floating =
            List.fold_left
              (fun acc c -> acc +. Float.min (solo_area t c) cap)
              0.0 unassigned
          in
          Numeric.percent_of_or ~default:0.0 (assigned +. floating) t.solo_total
      in
      (t.problem.Problem.weight_time *. c_t)
      +. (t.problem.Problem.weight_area *. c_a)
  end

  module Anneal = struct
    module Spec = Msoc_analog.Spec
    module Sharing = Msoc_analog.Sharing
    module Area = Msoc_analog.Area
    module Evaluate = Msoc_testplan.Evaluate
    module Problem = Msoc_testplan.Problem
    module Numeric = Msoc_util.Numeric
    module Rng = Msoc_util.Rng

    type result = { best : Evaluate.evaluation; stats : Stats.t }

    let run ?(budget = Budget.unlimited) ?(seed = 1) ?iterations ?(top_k = 8)
        prepared =
      let t0 = Unix.gettimeofday () in
      let cache0 = Evaluate.cache_stats prepared in
      let problem = Evaluate.problem prepared in
      let policy = problem.Problem.policy in
      let model = problem.Problem.area_model in
      let bound = Bound.create prepared in
      let all_cores = problem.Problem.analog_cores in
      let cores = Array.of_list all_cores in
      let m = Array.length cores in
      let iterations =
        match iterations with Some n -> max 0 n | None -> max 2000 (250 * m)
      in
      let rng = Rng.create ~seed in
      (* State: gid.(i) is core i's group; group ids live in 0..m-1 with
         empty groups allowed, so a fresh group is always addressable. *)
      let gid = Array.init m Fun.id in
      let members = Array.init m (fun i -> [ i ]) in
      let usage = Array.make m 0 in
      let contrib = Array.make m 0.0 in
      let refresh g =
        match members.(g) with
        | [] ->
          usage.(g) <- 0;
          contrib.(g) <- 0.0
        | ms ->
          let cs = List.map (fun i -> cores.(i)) ms in
          usage.(g) <- Bound.group_usage cs;
          contrib.(g) <- Bound.group_contrib bound cs
      in
      for g = 0 to m - 1 do
        refresh g
      done;
      let energy () =
        let t_lb = Array.fold_left max (Bound.t_floor bound) usage in
        let c_t =
          Numeric.percent_of_or ~default:0.0 (float_of_int t_lb)
            (float_of_int (Bound.reference_makespan bound))
        in
        let c_a =
          Numeric.percent_of_or ~default:0.0
            (Array.fold_left ( +. ) 0.0 contrib)
            (Bound.solo_total bound)
        in
        (problem.Problem.weight_time *. c_t)
        +. (problem.Problem.weight_area *. c_a)
      in
      let compatible_into g i =
        List.for_all
          (fun j -> Spec.compatible ~policy cores.(i) cores.(j))
          members.(g)
      in
      let restore saved =
        List.iter
          (fun (g, ms) ->
            members.(g) <- ms;
            List.iter (fun i -> gid.(i) <- g) ms;
            refresh g)
          saved
      in
      let nonempty () =
        let acc = ref [] in
        for g = m - 1 downto 0 do
          if members.(g) <> [] then acc := g :: !acc
        done;
        !acc
      in
      (* Each proposal mutates in place and returns the snapshot needed to
         undo it, or None when the draw is a no-op / infeasible. *)
      let move_core () =
        if m < 2 then None
        else begin
          let i = Rng.int rng ~bound:m in
          let src = gid.(i) in
          let dst = Rng.int rng ~bound:m in
          if dst = src then None
          else if members.(dst) = [] && List.compare_length_with members.(src) 1 = 0
          then None (* singleton to fresh group: relabeling, not a move *)
          else if members.(dst) <> [] && not (compatible_into dst i) then None
          else begin
            let saved = [ (src, members.(src)); (dst, members.(dst)) ] in
            members.(src) <- List.filter (fun j -> j <> i) members.(src);
            members.(dst) <- i :: members.(dst);
            gid.(i) <- dst;
            refresh src;
            refresh dst;
            Some saved
          end
        end
      in
      let merge_groups () =
        match nonempty () with
        | [] | [ _ ] -> None
        | gs ->
          let arr = Array.of_list gs in
          let a = Rng.pick rng arr in
          let b = Rng.pick rng arr in
          if a = b then None
          else if
            not
              (List.for_all
                 (fun i ->
                   List.for_all
                     (fun j -> Spec.compatible ~policy cores.(i) cores.(j))
                     members.(b))
                 members.(a))
          then None
          else begin
            let saved = [ (a, members.(a)); (b, members.(b)) ] in
            let moved = members.(b) in
            members.(a) <- members.(a) @ moved;
            members.(b) <- [];
            List.iter (fun i -> gid.(i) <- a) moved;
            refresh a;
            refresh b;
            Some saved
          end
      in
      let split_group () =
        let candidates =
          List.filter
            (fun g -> List.compare_length_with members.(g) 2 >= 0)
            (nonempty ())
        in
        match candidates with
        | [] -> None
        | gs -> (
          let g = Rng.pick rng (Array.of_list gs) in
          let fresh = ref (-1) in
          (try
             for h = 0 to m - 1 do
               if members.(h) = [] then begin
                 fresh := h;
                 raise Exit
               end
             done
           with Exit -> ());
          if !fresh < 0 then None
          else
            let stay, leave = List.partition (fun _ -> Rng.bool rng) members.(g) in
            if stay = [] || leave = [] then None
            else begin
              let saved = [ (g, members.(g)); (!fresh, []) ] in
              members.(g) <- stay;
              members.(!fresh) <- leave;
              List.iter (fun i -> gid.(i) <- !fresh) leave;
              refresh g;
              refresh !fresh;
              Some saved
            end)
      in
      let current_sharing () =
        Sharing.make
          (List.filter_map
             (fun g ->
               match members.(g) with
               | [] -> None
               | ms -> Some (List.map (fun i -> cores.(i)) ms))
             (List.init m Fun.id))
      in
      (* Best distinct acceptable states by proxy energy, bounded to top_k.
         The proxy is a function of the partition alone, so a name seen
         once never needs reconsidering. *)
      let seen = Hashtbl.create 64 in
      let pool = ref [] in
      let note_state e =
        let s = current_sharing () in
        if Area.acceptable ~model s then begin
          let name = Sharing.full_name s in
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            let merged =
              List.merge
                (fun (e1, n1, _) (e2, n2, _) -> compare (e1, n1) (e2, n2))
                [ (e, name, s) ] !pool
            in
            pool := List.filteri (fun i _ -> i < top_k) merged
          end
        end
      in
      let e_init = energy () in
      note_state e_init;
      let t_start = Float.max 1.0 (0.10 *. e_init) in
      let alpha =
        if iterations <= 1 then 1.0
        else (0.01 ** (1.0 /. float_of_int (iterations - 1)))
      in
      let temp = ref t_start in
      let e_cur = ref e_init in
      let moves = ref 0 in
      let accepted = ref 0 in
      (try
         for it = 0 to iterations - 1 do
           if it land 31 = 0 && Budget.expired budget then raise Exit;
           incr moves;
           (match
              match Rng.int rng ~bound:3 with
              | 0 -> move_core ()
              | 1 -> merge_groups ()
              | _ -> split_group ()
            with
           | None -> ()
           | Some saved ->
             let e_new = energy () in
             let d = e_new -. !e_cur in
             if
               d <= 0.0
               || Rng.float rng ~bound:1.0 < Float.exp (-.d /. Float.max 1e-9 !temp)
             then begin
               incr accepted;
               e_cur := e_new;
               note_state e_new
             end
             else restore saved);
           temp := !temp *. alpha
         done
       with Exit -> ());
      (* Full evaluations: the no-sharing baseline unconditionally, then
         the pool cheapest-proxy first while the budget lasts. *)
      let evals = ref 0 in
      let best = ref None in
      let trace = ref [] in
      let eval_combination s =
        let e = Evaluate.evaluate prepared s in
        incr evals;
        match !best with
        | Some (b : Evaluate.evaluation) when b.Evaluate.cost <= e.Evaluate.cost ->
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
      in
      let no_sharing = Sharing.no_sharing all_cores in
      eval_combination no_sharing;
      let no_sharing_name = Sharing.full_name no_sharing in
      List.iter
        (fun (_, name, s) ->
          if name <> no_sharing_name && not (Budget.exhausted budget ~evals:!evals)
          then eval_combination s)
        !pool;
      let best =
        match !best with Some e -> e | None -> assert false
      in
      let cache1 = Evaluate.cache_stats prepared in
      let stats =
        {
          Stats.zero with
          Stats.evaluations = !evals;
          considered = !evals;
          moves = !moves;
          accepted_moves = !accepted;
          cache_hits = cache1.Evaluate.hits - cache0.Evaluate.hits;
          cache_misses = cache1.Evaluate.misses - cache0.Evaluate.misses;
          wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
          incumbent_trace = List.rev !trace;
        }
      in
      { best; stats }
  end

  module Bnb = struct
    module Spec = Msoc_analog.Spec
    module Sharing = Msoc_analog.Sharing
    module Area = Msoc_analog.Area
    module Evaluate = Msoc_testplan.Evaluate
    module Problem = Msoc_testplan.Problem

    type result = { best : Evaluate.evaluation; stats : Stats.t; optimal : bool }

    let run ?(budget = Budget.unlimited) prepared =
      let t0 = Unix.gettimeofday () in
      let cache0 = Evaluate.cache_stats prepared in
      let problem = Evaluate.problem prepared in
      let policy = problem.Problem.policy in
      let model = problem.Problem.area_model in
      let bound = Bound.create prepared in
      let all_cores = problem.Problem.analog_cores in
      (* Longest core first: the time floor tightens as early as possible,
         so bad subtrees die near the root. Label tie-break keeps the tree
         (and hence every counter) deterministic. *)
      let cores =
        List.sort
          (fun (a : Spec.core) b ->
            match compare (Spec.core_time b) (Spec.core_time a) with
            | 0 -> compare a.Spec.label b.Spec.label
            | c -> c)
          all_cores
        |> Array.of_list
      in
      let m = Array.length cores in
      let suffixes = Array.make (m + 1) [] in
      for i = m - 1 downto 0 do
        suffixes.(i) <- cores.(i) :: suffixes.(i + 1)
      done;
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
      let consider combination =
        let key = Sharing.equivalence_key all_cores combination in
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
      let rec go groups i =
        if budget_hit () then ()
        else if i = m then begin
          let candidate = Sharing.make groups in
          if Area.acceptable ~model candidate then consider candidate
        end
        else begin
          incr expanded;
          let c = cores.(i) in
          let unassigned = suffixes.(i + 1) in
          let joins =
            List.mapi
              (fun idx g ->
                if List.for_all (fun d -> Spec.compatible ~policy c d) g then
                  Some (List.mapi (fun j g' -> if j = idx then c :: g' else g') groups)
                else None)
              groups
            |> List.filter_map Fun.id
          in
          let children = joins @ [ [ c ] :: groups ] in
          let scored =
            List.map
              (fun gs -> (Bound.lower_bound bound ~groups:gs ~unassigned, gs))
              children
            |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
          in
          List.iter
            (fun (lb, gs) ->
              if budget_hit () then ()
              else
                match !best with
                | Some (b : Evaluate.evaluation) when lb >= b.Evaluate.cost ->
                  incr pruned
                | Some _ | None -> go gs (i + 1))
            scored
        end
      in
      go [] 0;
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
          wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
          incumbent_trace = List.rev !trace;
        }
      in
      { best; stats; optimal = not !interrupted }
  end
end

(* --- canonical outcome text ----------------------------------------- *)

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let stats_text
    {
      Stats.evaluations;
      considered;
      nodes_expanded;
      nodes_pruned;
      dedup_skips;
      moves;
      accepted_moves;
      cache_hits;
      cache_misses;
      wall_ms = _;
      incumbent_trace;
    } =
  Printf.sprintf
    "evals %d considered %d expanded %d pruned %d dedup %d moves %d accepted %d \
     hits %d misses %d trace [%s]"
    evaluations considered nodes_expanded nodes_pruned dedup_skips moves
    accepted_moves cache_hits cache_misses
    (String.concat "; "
       (List.map
          (fun (p : Stats.trace_point) ->
            Printf.sprintf "%d %s %s" p.Stats.at_eval (bits p.Stats.cost)
              p.Stats.sharing)
          incumbent_trace))

let outcome_text (best : Evaluate.evaluation) ~optimal stats =
  Printf.sprintf "cost %s sharing %s optimal %b %s" (bits best.Evaluate.cost)
    (Sharing.full_name best.Evaluate.combination)
    optimal (stats_text stats)

let budget_of = function
  | None -> Budget.unlimited
  | Some n -> Budget.make ~max_evals:n ()

(* Each run gets its own prepared structure: the schedule memo's hit
   and miss counts are part of the outcome. *)
let bnb_text problem max_evals =
  let r = Bnb.run ~budget:(budget_of max_evals) (Evaluate.prepare problem) in
  outcome_text r.Bnb.best ~optimal:r.Bnb.optimal r.Bnb.stats

let ref_bnb_text problem max_evals =
  let r = Ref.Bnb.run ~budget:(budget_of max_evals) (Evaluate.prepare problem) in
  outcome_text r.Ref.Bnb.best ~optimal:r.Ref.Bnb.optimal r.Ref.Bnb.stats

let anneal_text problem ~max_evals ~seed ?iterations ?top_k () =
  let r =
    Anneal.run ~budget:(budget_of max_evals) ~seed ?iterations ?top_k
      (Evaluate.prepare problem)
  in
  outcome_text r.Anneal.best ~optimal:false r.Anneal.stats

let ref_anneal_text problem ~max_evals ~seed ?iterations ?top_k () =
  let r =
    Ref.Anneal.run ~budget:(budget_of max_evals) ~seed ?iterations ?top_k
      (Evaluate.prepare problem)
  in
  outcome_text r.Ref.Anneal.best ~optimal:false r.Ref.Anneal.stats

(* --- generated instances ------------------------------------------- *)

(* Converter profiles (bits, sampling rate, TAM width). Cores drawn from
   a few profiles share solo wrapper areas, so many proposals change
   the proxy energy by exactly nothing and the walk's acceptance turns
   on the last bit of its sums. The 40 MHz profile clashes with every
   >= 12-bit one under the default policy, and the 30 MHz 12-bit one
   with itself. *)
let profiles =
  [| (8, 10.0e6, 2); (10, 1.0e6, 1); (14, 2.0e6, 2); (6, 40.0e6, 3); (12, 30.0e6, 4) |]

type shape = Paper of float | Merged | Placed

let shape_name = function
  | Paper k -> Printf.sprintf "paper (k = %g)" k
  | Merged -> "merged"
  | Placed -> "placed"

type instance = {
  seed : int;
  shape : shape;
  width : int;
  weight_time : float;
  cores : Spec.core list;
  bnb_evals : int option list;  (** one run per cap *)
  anneal_evals : int option;
  anneal_seed : int;
  iterations : int;
  top_k : int;
}

let gen_cores rng m =
  let labels = Array.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'A' + i))) in
  Rng.shuffle rng labels;
  let made = ref [] in
  let core j =
    let label = labels.(j) in
    match !made with
    | (prev : Spec.core) :: _ when Rng.int rng ~bound:4 = 0 ->
      (* same tests as an earlier core: one equivalence class *)
      Spec.core ~label ~name:("copy of " ^ prev.Spec.name) ~tests:prev.Spec.tests
    | _ ->
      let bits, fs, w = Rng.pick rng profiles in
      let tests =
        List.init
          (1 + Rng.int rng ~bound:2)
          (fun t ->
            Spec.test ~name:(Printf.sprintf "t%d" t) ~f_low_hz:0.0
              ~f_high_hz:(fs /. 4.0) ~f_sample_hz:fs
              ~cycles:(Rng.int_in rng ~lo:2_000 ~hi:60_000)
              ~tam_width:(Rng.int_in rng ~lo:1 ~hi:w) ~resolution_bits:bits)
      in
      Spec.core ~label ~name:(Printf.sprintf "gen %s" label) ~tests
  in
  List.init m (fun j ->
      let c = core j in
      made := c :: !made;
      c)

let build_instance ~seed =
  let rng = Rng.create ~seed in
  let m = Rng.int_in rng ~lo:2 ~hi:10 in
  let cores = gen_cores rng m in
  (* The paper's shape twice as often: only it has branch-and-bound's
     area floor. Its default k = 0.12 makes every unassigned core's
     floor k·A_min; k = 1.5 lets the smaller solo areas through. *)
  let shape = Rng.pick rng [| Paper 0.12; Paper 1.5; Merged; Placed |] in
  let width = Rng.pick rng [| 8; 16; 24 |] in
  let weight_time =
    match Rng.int rng ~bound:8 with
    | 0 -> 0.0
    | 1 -> 1.0
    | 2 | 3 -> 0.5
    | _ -> Rng.float rng ~bound:1.0
  in
  let evals () = Some (Rng.int_in rng ~lo:1 ~hi:30) in
  let bnb_evals = (if m <= 8 then [ None ] else []) @ [ evals () ] in
  let anneal_evals = if Rng.int rng ~bound:4 = 0 then None else evals () in
  {
    seed;
    shape;
    width;
    weight_time;
    cores;
    bnb_evals;
    anneal_evals;
    anneal_seed = Rng.int_in rng ~lo:1 ~hi:1_000_000;
    iterations = Rng.int_in rng ~lo:0 ~hi:3000;
    top_k = Rng.int_in rng ~lo:0 ~hi:10;
  }

let problem_of inst =
  let area_model =
    match inst.shape with
    | Paper k -> { Area.default_model with Area.routing = Area.Uniform k }
    | Merged -> { Area.default_model with Area.a_max_rule = Area.Merged_requirement }
    | Placed -> Placement.area_model (Placement.spread ~die_mm:8.0 inst.cores)
  in
  let profile =
    { Synthetic.n_cores = 3; target_area = 400_000; max_chains = 8; bottleneck = false }
  in
  let soc =
    Synthetic.generate ~seed:inst.seed ~name:(Printf.sprintf "ref%d" inst.seed) profile
  in
  Problem.make ~area_model ~soc ~analog_cores:inst.cores ~tam_width:inst.width
    ~weight_time:inst.weight_time ()

let print_instance inst =
  let evals = function None -> "unlimited" | Some n -> string_of_int n in
  Printf.sprintf
    "seed %d, %s model, W=%d, w_T=%h, cores %s; bnb max_evals %s; anneal max_evals %s \
     seed %d iterations %d top_k %d"
    inst.seed (shape_name inst.shape) inst.width inst.weight_time
    (String.concat "," (List.map (fun (c : Spec.core) -> c.Spec.label) inst.cores))
    (String.concat "," (List.map evals inst.bnb_evals))
    (evals inst.anneal_evals) inst.anneal_seed
    inst.iterations inst.top_k

let instance_arb =
  QCheck.make ~print:print_instance
    QCheck.Gen.(map (fun seed -> build_instance ~seed) (int_range 1 1_000_000_000))

(* A random partial state: a prefix of a shuffled core list dealt into
   groups, the rest unassigned. *)
let partial_state inst =
  let rng = Rng.create ~seed:(inst.seed + 1) in
  let cores = Array.of_list inst.cores in
  Rng.shuffle rng cores;
  let assigned = Rng.int rng ~bound:(Array.length cores + 1) in
  let groups = Array.make (Array.length cores) [] in
  for i = 0 to assigned - 1 do
    let g = Rng.int rng ~bound:(i + 1) in
    groups.(g) <- cores.(i) :: groups.(g)
  done;
  ( List.filter (fun g -> g <> []) (Array.to_list groups),
    Array.to_list (Array.sub cores assigned (Array.length cores - assigned)) )

let agree what ~got ~want =
  got = want
  || QCheck.Test.fail_reportf "%s:\n  kernel    %s\n  reference %s" what got want

(* Branch-and-bound prices an unassigned suffix of its assignment order
   from [floating]; the list fold prices the same suffix anew. *)
let same_suffix_floors bound reference =
  let ordered = Array.to_list (Array.map (fun i -> bound.Bound.cores.(i)) bound.Bound.order) in
  List.for_all
    (fun i ->
      let suffix = List.filteri (fun j _ -> j >= i) ordered in
      let t_lb =
        List.fold_left (fun acc c -> max acc (Spec.core_time c)) bound.Bound.t_floor suffix
      in
      agree
        (Printf.sprintf "suffix floor %d" i)
        ~got:(bits (Bound.floor bound ~t_lb ~area:(0.0 +. bound.Bound.floating.(i))))
        ~want:(bits (Ref.Bound.lower_bound reference ~groups:[] ~unassigned:suffix)))
    (List.init (List.length ordered + 1) Fun.id)

let same_outcomes inst =
  let problem = problem_of inst in
  let groups, unassigned = partial_state inst in
  let prepared = Evaluate.prepare problem in
  let bound = Bound.create prepared and reference = Ref.Bound.create prepared in
  agree "Bound.lower_bound"
    ~got:(bits (Bound.lower_bound bound ~groups ~unassigned))
    ~want:(bits (Ref.Bound.lower_bound reference ~groups ~unassigned))
  && same_suffix_floors bound reference
  && List.for_all
       (fun max_evals ->
         agree "bnb" ~got:(bnb_text problem max_evals)
           ~want:(ref_bnb_text problem max_evals))
       inst.bnb_evals
  &&
  let max_evals = inst.anneal_evals
  and seed = inst.anneal_seed
  and iterations = inst.iterations
  and top_k = inst.top_k in
  agree "anneal"
    ~got:(anneal_text problem ~max_evals ~seed ~iterations ~top_k ())
    ~want:(ref_anneal_text problem ~max_evals ~seed ~iterations ~top_k ())

(* --- golden pin ------------------------------------------------------ *)

let golden_digest () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun n ->
      List.iter
        (fun width ->
          let problem =
            Instances.with_analog ~tam_width:width
              ~analog_cores:(Instances.scaled_analog ~n) ()
          in
          Printf.bprintf buf "n %d W %d bnb %s\n" n width
            (bnb_text problem (Some 24));
          Printf.bprintf buf "n %d W %d anneal %s\n" n width
            (anneal_text problem ~max_evals:(Some 24) ~seed:1 ()))
        [ 24; 32; 40 ])
    [ 11; 12; 13; 14 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden () =
  Alcotest.(check string) "bnb and anneal outcomes, n 11..14, W 24/32/40"
    "fa0d000d61b49f8b79b97d4574164ab1" (golden_digest ())

let suites =
  [
    ( "search-ref.property",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"bnb, anneal and bound = reference" ~count:150
             instance_arb same_outcomes);
      ] );
    ("search-ref.golden", [ Alcotest.test_case "search outcomes pinned" `Quick test_golden ]);
  ]
