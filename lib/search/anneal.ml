module Sharing = Msoc_analog.Sharing
module Evaluate = Msoc_testplan.Evaluate
module Problem = Msoc_testplan.Problem
module Rng = Msoc_util.Rng

type result = { best : Evaluate.evaluation; stats : Stats.t }

(* A prefix-free byte code, so a concatenation of group numbers reads
   back one way only. *)
let rec add_varint buf n =
  if n < 128 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 127 lor 128));
    add_varint buf (n lsr 7)
  end

let run ?(budget = Budget.unlimited) ?(seed = 1) ?iterations ?(top_k = 8)
    prepared =
  let t0 = Msoc_util.Clock.now () in
  let cache0 = Evaluate.cache_stats prepared in
  let problem = Evaluate.problem prepared in
  let bound = Bound.create prepared in
  let { Bound.cores; time; compatible; by_rank; t_floor; _ } = bound in
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
      usage.(g) <- List.fold_left (fun acc i -> acc + time.(i)) 0 ms;
      contrib.(g) <- Bound.contrib bound ms
  in
  for g = 0 to m - 1 do
    refresh g
  done;
  let energy () =
    let t_lb = ref t_floor and area = ref 0.0 in
    for g = 0 to m - 1 do
      t_lb := max !t_lb usage.(g);
      area := !area +. contrib.(g)
    done;
    Bound.cost bound ~t_lb:!t_lb ~area:!area
  in
  let compatible_into g i = List.for_all (fun j -> compatible.(i).(j)) members.(g) in
  let restore saved =
    List.iter
      (fun (g, ms) ->
        members.(g) <- ms;
        List.iter (fun i -> gid.(i) <- g) ms;
        refresh g)
      saved
  in
  (* [groups_of_size k] fills picks.(0 .. n-1) with the ids, in order,
     of the groups with at least k members and returns n; [pick n]
     draws one of them as [Rng.pick] would from that array. *)
  let picks = Array.make m 0 in
  let groups_of_size min_size =
    let n = ref 0 in
    for g = 0 to m - 1 do
      if List.compare_length_with members.(g) min_size >= 0 then begin
        picks.(!n) <- g;
        incr n
      end
    done;
    !n
  in
  let pick n = picks.(Rng.int rng ~bound:n) in
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
    match groups_of_size 1 with
    | 0 | 1 -> None
    | n ->
      let a = pick n in
      let b = pick n in
      if a = b then None
      else if
        not (List.for_all (fun i -> compatible_into b i) members.(a))
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
    match groups_of_size 2 with
    | 0 -> None
    | n -> (
      let g = pick n in
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
  (* Best distinct acceptable states by proxy energy, bounded to top_k.
     The proxy is a function of the partition alone, so a partition seen
     once never needs reconsidering. A partition is keyed by the
     restricted-growth string of its canonical form (the one
     Sharing.make builds: groups ordered by their first core in label
     order, members in label order) — each core's canonical group
     number, in label order. Only a state that can enter the pool is
     built as a Sharing.t and named. *)
  let seen = Hashtbl.create 64 in
  let pool = ref [] in
  let may_enter e =
    top_k > 0
    &&
    match List.nth_opt !pool (top_k - 1) with
    | None -> true
    | Some (last, _, _) -> Float.compare e last <= 0
  in
  let canon = Array.make m (-1) in
  let buckets = Array.make m [] in
  let key_buf = Buffer.create (2 * m) in
  let note_state e =
    Buffer.clear key_buf;
    let n = ref 0 in
    Array.iter
      (fun i ->
        let g = gid.(i) in
        if canon.(g) < 0 then begin
          canon.(g) <- !n;
          incr n
        end;
        add_varint key_buf canon.(g))
      by_rank;
    let key = Buffer.contents key_buf in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      for r = m - 1 downto 0 do
        let i = by_rank.(r) in
        let c = canon.(gid.(i)) in
        buckets.(c) <- i :: buckets.(c)
      done;
      let groups = List.init !n (fun c -> buckets.(c)) in
      Array.fill buckets 0 !n [];
      if Bound.acceptable bound groups && may_enter e then begin
        let s = Sharing.make (List.map (List.map (fun i -> cores.(i))) groups) in
        let merged =
          List.merge
            (fun (e1, n1, _) (e2, n2, _) -> compare (e1, n1) (e2, n2))
            [ (e, Sharing.full_name s, s) ] !pool
        in
        pool := List.filteri (fun i _ -> i < top_k) merged
      end
    end;
    Array.fill canon 0 m (-1)
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
  let no_sharing = Sharing.no_sharing problem.Problem.analog_cores in
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
      wall_ms = (Msoc_util.Clock.now () -. t0) *. 1000.0;
      incumbent_trace = List.rev !trace;
    }
  in
  { best; stats }
