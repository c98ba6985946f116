module Spec = Msoc_analog.Spec
module Area = Msoc_analog.Area
module Job = Msoc_tam.Job
module Packer = Msoc_tam.Packer
module Evaluate = Msoc_testplan.Evaluate
module Problem = Msoc_testplan.Problem
module Numeric = Msoc_util.Numeric

type t = {
  problem : Problem.t;
  cores : Spec.core array;
  time : int array;
  area : float array;
  by_rank : int array;
  compatible : bool array array;
  order : int array;
  floating : float array;
  reference_makespan : int;
  t_floor : int;
  solo_total : float;
  uniform_k : float option;
  join_floor : float option;
}

let create prepared =
  let problem = Evaluate.problem prepared in
  let model = problem.Problem.area_model in
  let policy = problem.Problem.policy in
  let cores = Array.of_list problem.Problem.analog_cores in
  let m = Array.length cores in
  let time = Array.map Spec.core_time cores in
  let area = Array.map (Area.wrapper_area_of_core model) cores in
  let by_label a b = compare cores.(a).Spec.label cores.(b).Spec.label in
  let by_rank = Array.init m Fun.id in
  Array.stable_sort by_label by_rank;
  let compatible =
    Array.map (fun a -> Array.map (fun b -> Spec.compatible ~policy a b) cores) cores
  in
  (* Branch-and-bound's assignment order: longest core first, so the
     time floor tightens near the root; the label tie-break keeps the
     tree, and hence every counter, deterministic. *)
  let order = Array.init m Fun.id in
  Array.stable_sort
    (fun a b ->
      match compare time.(b) time.(a) with 0 -> by_label a b | c -> c)
    order;
  let solo_total = Array.fold_left ( +. ) 0.0 area in
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
         problem.Problem.analog_cores)
  in
  let t_floor =
    Packer.lower_bound ~width:problem.Problem.tam_width
      (Evaluate.digital_jobs prepared @ analog_singletons)
  in
  let uniform_k =
    match (model.Area.routing, model.Area.a_max_rule) with
    | Area.Uniform k, Area.Max_individual -> Some k
    | (Area.Uniform _ | Area.Placed _), _ -> None
  in
  let join_floor =
    Option.map (fun k -> k *. Array.fold_left Float.min infinity area) uniform_k
  in
  (* floating.(i): the area floor of the cores order.(i) .. order.(m-1)
     still unassigned, folded front to back. *)
  let floating =
    Array.init (m + 1) (fun i ->
        match join_floor with
        | None -> 0.0
        | Some cap ->
          let acc = ref 0.0 in
          for j = i to m - 1 do
            acc := !acc +. Float.min area.(order.(j)) cap
          done;
          !acc)
  in
  {
    problem;
    cores;
    time;
    area;
    by_rank;
    compatible;
    order;
    floating;
    reference_makespan = Evaluate.reference_makespan prepared;
    t_floor;
    solo_total;
    uniform_k;
    join_floor;
  }

let group_contrib t group =
  let model = t.problem.Problem.area_model in
  (1.0 +. (Area.routing_overhead_pct model group /. 100.0))
  *. Area.group_area model group

(* Under the paper's shape the term needs only the group's size and its
   largest solo area (a max, so member order cannot change it); any
   other shape hands the members, in the given order, to the model.
   The loop keeps its accumulators unboxed. *)
let contrib t members =
  match t.uniform_k with
  | Some k ->
    let size = ref 0 and a_max = ref 0.0 and rest = ref members in
    while
      match !rest with
      | [] -> false
      | i :: tl ->
        incr size;
        a_max := Float.max !a_max t.area.(i);
        rest := tl;
        true
    do
      ()
    done;
    let rho = if !size <= 1 then 0.0 else float_of_int (!size - 1) *. 100.0 *. k in
    (1.0 +. (rho /. 100.0)) *. !a_max
  | None -> group_contrib t (List.map (fun i -> t.cores.(i)) members)

let price t ~t_lb ~c_a =
  let c_t =
    Numeric.percent_of_or ~default:0.0 (float_of_int t_lb)
      (float_of_int t.reference_makespan)
  in
  (t.problem.Problem.weight_time *. c_t) +. (t.problem.Problem.weight_area *. c_a)

let c_a t area = Numeric.percent_of_or ~default:0.0 area t.solo_total

let cost t ~t_lb ~area = price t ~t_lb ~c_a:(c_a t area)

let floor t ~t_lb ~area =
  price t ~t_lb ~c_a:(if Option.is_some t.join_floor then c_a t area else 0.0)

let acceptable t groups =
  List.for_all (fun g -> List.compare_length_with g 1 = 0) groups
  ||
  let shared = List.fold_left (fun acc g -> acc +. contrib t g) 0.0 groups in
  let solo =
    List.fold_left
      (fun acc g -> List.fold_left (fun a i -> a +. t.area.(i)) acc g)
      0.0 groups
  in
  100.0 *. shared /. solo < 100.0

let lower_bound t ~groups ~unassigned =
  let usage g = List.fold_left (fun acc c -> acc + Spec.core_time c) 0 g in
  let t_lb = List.fold_left (fun acc g -> max acc (usage g)) t.t_floor groups in
  let t_lb =
    List.fold_left (fun acc (c : Spec.core) -> max acc (Spec.core_time c)) t_lb unassigned
  in
  let area =
    match t.join_floor with
    | None -> 0.0
    | Some cap ->
      let solo_area = Area.wrapper_area_of_core t.problem.Problem.area_model in
      let assigned = List.fold_left (fun acc g -> acc +. group_contrib t g) 0.0 groups in
      let floating =
        List.fold_left (fun acc c -> acc +. Float.min (solo_area c) cap) 0.0 unassigned
      in
      assigned +. floating
  in
  floor t ~t_lb ~area
