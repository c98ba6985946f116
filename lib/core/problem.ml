module Spec = Msoc_analog.Spec
module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area

type self_test_config = { hits_per_code : int }

type t = {
  soc : Msoc_itc02.Types.soc;
  analog_cores : Spec.core list;
  tam_width : int;
  weight_time : float;
  weight_area : float;
  area_model : Area.model;
  policy : Spec.policy;
  self_test : self_test_config option;
}

let max_tam_width = 1024

let make ?(area_model = Area.default_model) ?self_test ~soc ~analog_cores
    ~tam_width ~weight_time () =
  (* Written so that NaN, which fails every comparison, is rejected. *)
  if not (weight_time >= 0.0 && weight_time <= 1.0) then
    invalid_arg "Problem.make: weight_time out of [0, 1]";
  if tam_width < 1 || tam_width > max_tam_width then
    invalid_arg (Printf.sprintf "Problem.make: tam_width must be in 1..%d" max_tam_width);
  if analog_cores = [] then invalid_arg "Problem.make: no analog cores";
  List.iter
    (fun c ->
      if Spec.core_width c > tam_width then
        invalid_arg
          (Printf.sprintf "Problem.make: analog core %s needs width %d > TAM width %d"
             c.Spec.label (Spec.core_width c) tam_width))
    analog_cores;
  (match self_test with
  | Some { hits_per_code } when hits_per_code < 1 ->
    invalid_arg "Problem.make: hits_per_code must be >= 1"
  | Some _ | None -> ());
  {
    soc;
    analog_cores;
    tam_width;
    weight_time;
    weight_area = 1.0 -. weight_time;
    area_model;
    policy = Spec.default_policy;
    self_test;
  }

let same_structure a b =
  (* area_model holds closures, so compare it physically; everything
     else is plain data. Weights are deliberately ignored: schedules
     (and hence the evaluation cache) depend only on the structure. *)
  a.soc = b.soc
  && a.analog_cores = b.analog_cores
  && a.tam_width = b.tam_width
  && a.area_model == b.area_model
  && a.policy = b.policy
  && a.self_test = b.self_test

exception Combination_overflow of {
  analog_cores : int;
  combinations : int;
  limit : int;
}

let default_combination_limit = 200_000

let combination_limit () =
  match Sys.getenv_opt "MSOC_MAX_COMBINATIONS" with
  | None -> default_combination_limit
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "MSOC_MAX_COMBINATIONS must be a positive integer, got %S" s))

let overflow_message ~analog_cores ~combinations ~limit =
  Printf.sprintf
    "refusing to enumerate %s sharing combinations for %d analog cores \
     (limit %d): use --strategy bnb (exact, pruned) or --strategy \
     anneal/portfolio (anytime) instead of an exhaustive enumeration, or \
     raise MSOC_MAX_COMBINATIONS"
    (if combinations = max_int then "over 10^18" else string_of_int combinations)
    analog_cores limit

let () =
  Printexc.register_printer (function
    | Combination_overflow { analog_cores; combinations; limit } ->
      Some (overflow_message ~analog_cores ~combinations ~limit)
    | _ -> None)

(* Enumerating the set-partition lattice materializes Bell(m)
   partitions before any dedup or filter can shrink it; past the limit
   that is an OOM, not a slow run, so refuse up front. *)
let check_combination_count ?limit t =
  let limit = match limit with Some l -> l | None -> combination_limit () in
  let m = List.length t.analog_cores in
  (* Bell numbers overflow 63-bit int past m = 24. *)
  let count = if m > 24 then max_int else Msoc_util.Combinat.bell_number m in
  if count > limit then
    raise (Combination_overflow { analog_cores = m; combinations = count; limit })

let filter_candidates t candidates =
  candidates
  |> List.filter (Sharing.is_feasible ~policy:t.policy)
  |> List.filter (Area.acceptable ~model:t.area_model)

let combinations t =
  check_combination_count t;
  match filter_candidates t (Sharing.paper_combinations t.analog_cores) with
  | [] ->
    (* No feasible sharing (e.g. one analog core, or every grouping
       ruled out by compatibility/area): plan without sharing. *)
    [ Sharing.no_sharing t.analog_cores ]
  | candidates -> candidates

let all_combinations ?limit t =
  check_combination_count ?limit t;
  filter_candidates t (Sharing.all_combinations t.analog_cores)
