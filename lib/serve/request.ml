module Export = Msoc_testplan.Export
module Problem = Msoc_testplan.Problem
module Plan = Msoc_testplan.Plan
module Evaluate = Msoc_testplan.Evaluate
module Cost_optimizer = Msoc_testplan.Cost_optimizer
module Registry = Msoc_tam.Packer_registry
module Strategy = Msoc_search.Strategy
module Catalog = Msoc_analog.Catalog
module Testbench = Msoc_cosim.Testbench
module Monte_carlo = Msoc_cosim.Monte_carlo
module Calibrate = Msoc_cosim.Calibrate

(* --- the range table --- *)

type 'a range = { expected : string; ok : 'a -> bool }

let positive_int = { expected = "a positive integer"; ok = (fun n -> n >= 1) }
let width =
  { expected = Printf.sprintf "an integer in 1..%d" Problem.max_tam_width;
    ok = (fun n -> n >= 1 && n <= Problem.max_tam_width) }
let positive_float =
  { expected = "a positive number"; ok = (fun f -> Float.is_finite f && f > 0.0) }
let trials =
  { expected = Printf.sprintf "an integer in 0..%d" Monte_carlo.max_trials;
    ok = (fun n -> n >= 0 && n <= Monte_carlo.max_trials) }

let delta =
  { expected = "a non-negative number"; ok = (fun f -> Float.is_finite f && f >= 0.0) }

let weight = { expected = "a number in 0..1"; ok = (fun f -> f >= 0.0 && f <= 1.0) }

let bits =
  { expected = "an even resolution in 4..16"; ok = (fun b -> b >= 4 && b <= 16 && b mod 2 = 0) }

let analog_scale = { expected = "an integer in 4..26"; ok = (fun n -> n >= 4 && n <= 26) }

let samples specs =
  let floor = Testbench.min_samples and ceiling = Testbench.max_samples in
  let within lo n = n >= lo && n <= ceiling in
  match List.stable_sort (fun a b -> compare (floor b) (floor a)) specs with
  | [] -> { expected = Printf.sprintf "an integer in 1..%d" ceiling; ok = within 1 }
  | s :: _ ->
    let spec = Testbench.spec_name s in
    { expected = Printf.sprintf "an integer in %d..%d with spec %s" (floor s) ceiling spec;
      ok = within (floor s) }

let one_of names = { expected = "one of: " ^ String.concat ", " names; ok = (fun _ -> true) }
let any expected = { expected; ok = (fun _ -> true) }
let text = any "a string"
let searches = [ "heuristic"; "exhaustive" ]

(* --- requests --- *)

type setting = {
  soc : Msoc_itc02.Types.soc;
  analog_cores : Msoc_analog.Spec.core list;
  width : int;
  weight_time : float;
  search : Plan.search;
  packer : Registry.packer;
}

type strategy = { kind : Strategy.kind; max_evals : int option; budget_ms : float option }

type sweep = Widths of int list | Weights of float list

type cosim = {
  specs : Testbench.spec list;
  config : Testbench.config;
  trials : int;
  seed : int;
  tolerance_pct : float option;
  calibrate : bool;
  system_clock_hz : float;
}

type t =
  | Plan of setting
  | Optimize of setting * strategy option
  | Explore of setting * sweep
  | Cosim of setting * cosim

let invalid fmt = Printf.ksprintf invalid_arg fmt

let load_soc = function
  | None -> Msoc_itc02.Synthetic.p93791s ()
  | Some path -> Msoc_itc02.Soc_file.load path

let search ~delta = function
  | "heuristic" -> Some (Plan.Heuristic { delta })
  | "exhaustive" -> Some Plan.Exhaustive_search
  | _ -> None

let strategy ~delta ~seed name =
  Strategy.of_name ~delta ~seed ~seeds:[ seed; seed + 1; seed + 2 ] name

let config ?(ideal = false) ~bits ~samples () =
  let base = if ideal then Testbench.ideal else Testbench.default in
  { base with
    Testbench.variation = { base.Testbench.variation with Msoc_mixedsig.Variation.bits };
    samples }

(* Comma-separated catalog labels, at least one. *)
let analog_cores text =
  let labels = List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' text)) in
  match
    List.map (fun label -> Catalog.find ~label:(String.uppercase_ascii label)) labels
  with
  | [] | (exception Not_found) -> None
  | cores -> Some cores

(* JSON value readers: [None] on the wrong type. *)
let int_of = function Export.Int i -> Some i | _ -> None

let number_of = function
  | Export.Int i -> Some (float_of_int i)
  | Export.Float f -> Some f
  | _ -> None

let string_of = function Export.String s -> Some s | _ -> None
let bool_of = function Export.Bool b -> Some b | _ -> None

let of_params op params =
  (* A param's value: [read] is [None] on the wrong type; a value it
     rejects or one out of [range] is [Invalid_argument], naming the
     param. *)
  let check name range read json =
    match read json with
    | Some v when range.ok v -> v
    | Some _ | None ->
      invalid "param %S: invalid value %s, expected %s" name (Export.to_string json)
        range.expected
  in
  let get name range read = Option.map (check name range read) (Export.member name params) in
  let list name range read =
    get name (any "a list") (function
      | Export.List items -> Some (List.map (check name range read) items)
      | _ -> None)
  in
  let value name range read ~default = Option.value (get name range read) ~default in
  let named name names lookup =
    get name (one_of names) (fun j -> Option.bind (string_of j) lookup)
  in
  (* cosim plans its calibration the paper's way: no delta, search or packer *)
  let delta = if op = Protocol.Cosim then 0.0 else value "delta" delta number_of ~default:0.0 in
  let heuristic = Plan.Heuristic { delta } in
  let s =
    {
      soc =
        (match (get "soc_text" text string_of, get "soc_path" text string_of) with
        | Some _, Some _ -> invalid "give either \"soc_text\" or \"soc_path\", not both"
        | Some text, None -> Msoc_itc02.Soc_file.of_string text
        | None, path -> load_soc path);
      analog_cores =
        value "analog" (one_of (List.map (fun c -> c.Msoc_analog.Spec.label) Catalog.all))
          (fun j -> Option.bind (string_of j) analog_cores) ~default:Catalog.all;
      width = value "width" width int_of ~default:32;
      weight_time = value "weight_time" weight number_of ~default:0.5;
      search =
        (match op with
        | Protocol.Plan | Protocol.Explore ->
          Option.value (named "search" searches (search ~delta)) ~default:heuristic
        | _ -> heuristic);
      packer =
        (if op = Protocol.Cosim then Registry.default
         else Option.value (named "packer" Registry.names Registry.find) ~default:Registry.default);
    }
  in
  match op with
  | Protocol.Plan -> Plan s
  | Protocol.Optimize ->
    let seed = value "seed" (any "an integer") int_of ~default:1 in
    let max_evals = get "max_evals" positive_int int_of in
    let budget_ms = get "budget_ms" positive_float number_of in
    let kind = named "strategy" Strategy.names (strategy ~delta ~seed) in
    Optimize (s, Option.map (fun kind -> { kind; max_evals; budget_ms }) kind)
  | Protocol.Explore -> (
    match (list "widths" width int_of, list "weights" weight number_of) with
    | Some _, Some _ -> invalid "give either \"widths\" or \"weights\", not both"
    | None, None -> invalid "explore needs \"widths\" or \"weights\""
    | Some ws, None -> Explore (s, Widths ws)
    | None, Some ws -> Explore (s, Weights ws))
  | Protocol.Cosim ->
    let specs =
      [ named "spec" Testbench.spec_names Testbench.spec_of_name
        |> Option.value ~default:Testbench.Fc ]
    in
    let bits = value "bits" bits int_of ~default:8 in
    let samples = value "samples" (samples specs) int_of ~default:Testbench.default.samples in
    Cosim
      ( s,
        {
          specs;
          config = config ~bits ~samples ();
          trials = value "trials" trials int_of ~default:0;
          seed = value "seed" (any "an integer") int_of ~default:42;
          tolerance_pct = get "tolerance_pct" positive_float number_of;
          calibrate = value "calibrate" (any "a boolean") bool_of ~default:false;
          system_clock_hz = value "system_clock_hz" positive_float number_of ~default:78.0e6;
        } )
  | Protocol.Stats | Protocol.Shutdown -> invalid "op %s takes no request" (Protocol.op_name op)

let problem s =
  Problem.make ~soc:s.soc ~analog_cores:s.analog_cores ~tam_width:s.width
    ~weight_time:s.weight_time ()

(* --- runs --- *)

type prepare = Registry.packer -> Problem.t -> Evaluate.prepared

let fresh packer problem = Evaluate.prepare ~packer problem

let plan ?(prepare = fresh) ?pool s =
  Plan.run_prepared ~search:s.search ?pool (prepare s.packer (problem s))

type optimized =
  | Pruned of {
      plan : Plan.t;
      result : Cost_optimizer.result;
      memo_hits : int;
      memo_misses : int;
    }
  | Searched of { plan : Plan.t; outcome : Strategy.outcome }

let optimize ?(prepare = fresh) ?pool ?deadline s strategy =
  let prepared = prepare s.packer (problem s) in
  match strategy with
  | Some { kind; max_evals; budget_ms } ->
    let budget =
      Msoc_search.Budget.make ?max_evals
        ?time_limit_s:(Option.map (fun ms -> ms /. 1000.0) budget_ms)
        ?deadline ()
    in
    let outcome = Strategy.run ?pool ~budget kind prepared in
    Searched { plan = Strategy.plan_of_outcome prepared outcome; outcome }
  | None ->
    let delta =
      match s.search with Plan.Heuristic { delta } -> delta | Plan.Exhaustive_search -> 0.0
    in
    let before = Evaluate.cache_stats prepared in
    let result = Cost_optimizer.run ~delta ?pool prepared in
    let after = Evaluate.cache_stats prepared in
    let plan =
      {
        Plan.problem = Evaluate.problem prepared;
        best = result.Cost_optimizer.best;
        evaluations = result.Cost_optimizer.evaluations;
        considered = result.Cost_optimizer.considered;
        reference_makespan = Evaluate.reference_makespan prepared;
      }
    in
    let memo_hits = after.Evaluate.hits - before.Evaluate.hits in
    Pruned { plan; result; memo_hits; memo_misses = after.Evaluate.misses - before.Evaluate.misses }

let explore ?pool s sweep =
  let module Explore = Msoc_testplan.Explore in
  let points =
    match sweep with
    | Widths widths ->
      Explore.width_sweep ~search:s.search ?pool ~packer:s.packer ~widths (fun width ->
          problem { s with width })
      |> List.map (fun (w, plan) -> (Printf.sprintf "W=%d" w, plan))
    | Weights weights ->
      Explore.weight_sweep ~search:s.search ?pool ~packer:s.packer ~weights
        (fun weight_time -> problem { s with weight_time })
      |> List.map (fun (w, plan) -> (Printf.sprintf "w_T=%.2f" w, plan))
  in
  if points = [] then invalid "no feasible point in the sweep";
  points

type cosimulated = {
  results : Testbench.result list;
  sweeps : (Monte_carlo.trial list * Monte_carlo.summary) list;
  calibration : (Calibrate.measured list list * Plan.t) option;
}

let cosim ?(prepare = fresh) ?pool s c =
  let { config; tolerance_pct; _ } = c in
  (* One program per spec serves its nominal test and its sweep. *)
  let nominal =
    List.map
      (fun spec ->
        let program = Testbench.program ?tolerance_pct config spec in
        (program, Testbench.run_program program config.Testbench.variation))
      c.specs
  in
  let results = List.map snd nominal in
  let sweeps =
    if c.trials = 0 then []
    else
      List.map
        (fun (program, _) ->
          Monte_carlo.run_program ?pool ~trials:c.trials ~seed:c.seed program)
        nominal
  in
  let calibration =
    if not c.calibrate then None
    else begin
      (* Re-plan the setting over co-sim-measured test times instead
         of the catalog's nominal cycles. *)
      let problem, reports =
        Calibrate.calibrated_problem ~config ~system_clock_hz:c.system_clock_hz ~soc:s.soc
          ~analog_cores:s.analog_cores ~tam_width:s.width ~weight_time:s.weight_time ()
      in
      Some (reports, Plan.run_prepared ~search:s.search ?pool (prepare s.packer problem))
    end
  in
  { results; sweeps; calibration }

type result =
  | Planned of Plan.t
  | Optimized of optimized
  | Explored of (string * Plan.t) list
  | Cosimulated of cosimulated

(* Defense in depth for the non-default heuristics: beyond the
   registry's own certification, re-verify the served plan through the
   independent Msoc_check pass. A finding is a packer bug, raised as
   the strategies raise theirs. *)
let certified s plan =
  let name = Registry.name s.packer in
  (if name <> Registry.name Registry.default then
     match Msoc_check.Diagnostic.errors (Msoc_check.Verify.plan plan) with
     | [] -> ()
     | errors ->
       raise
         (Strategy.Verification_failed
            (Printf.sprintf "packer %s failed verification: %s" name
               (String.concat "; " (List.map Msoc_check.Diagnostic.to_string errors)))));
  plan

let run ?prepare ?pool ?deadline = function
  | Plan s -> Planned (certified s (plan ?prepare ?pool s))
  | Optimize (s, strategy) -> (
    match optimize ?prepare ?pool ?deadline s strategy with
    | Pruned p -> Optimized (Pruned { p with plan = certified s p.plan })
    | Searched _ as searched -> Optimized searched)
  | Explore (s, sweep) -> Explored (explore ?pool s sweep)
  | Cosim (s, c) -> Cosimulated (cosim ?prepare ?pool s c)

(* The cache stores only the deterministic payload; wall-clock rates
   would make a cached replay differ from its first computation. *)
let strip_timing = function
  | Export.Object fields -> Export.Object (List.filter (fun (k, _) -> k <> "timing") fields)
  | json -> json

let result_json = function
  | Planned plan -> Export.plan_json plan
  | Optimized (Pruned { plan; result; _ }) ->
    Export.Object
      [
        ("plan", Export.plan_json plan);
        ( "surviving_groups",
          Export.List
            (List.map
               (fun signature -> Export.List (List.map (fun n -> Export.Int n) signature))
               result.Cost_optimizer.surviving_groups) );
      ]
  | Optimized (Searched { plan; outcome }) ->
    Export.Object
      [ ("plan", Export.plan_json plan); ("search", Strategy.outcome_json outcome) ]
  | Explored points ->
    let point (label, (plan : Plan.t)) =
      let e = plan.Plan.best in
      Export.Object
        [ ("point", Export.String label);
          ("sharing", Export.String (Msoc_analog.Sharing.short_name e.Evaluate.combination));
          ("cost", Export.Float e.Evaluate.cost); ("c_t", Export.Float e.Evaluate.c_t);
          ("c_a", Export.Float e.Evaluate.c_a); ("makespan", Export.Int e.Evaluate.makespan);
          ("evaluations", Export.Int plan.Plan.evaluations) ]
    in
    Export.Object [ ("points", Export.List (List.map point points)) ]
  | Cosimulated { results; sweeps; calibration } ->
    (* an envelope names one spec: one result, at most one sweep *)
    Export.Object
      (List.map (fun r -> ("result", Testbench.result_json r)) results
      @ List.map
          (fun (_, summary) -> ("monte_carlo", strip_timing (Monte_carlo.summary_json summary)))
          sweeps
      @
      match calibration with
      | None -> []
      | Some (reports, plan) ->
        [
          ("calibration", Calibrate.calibration_json reports);
          ("calibrated_plan", Export.plan_json plan);
        ])

let error_message = function
  | Invalid_argument m | Failure m | Sys_error m -> Some m
  | Msoc_itc02.Soc_file.Parse_error { file; line; message } ->
    Some (Printf.sprintf "%s:%d: %s" (Option.value file ~default:"<soc_text>") line message)
  | Msoc_tam.Packer.Infeasible m -> Some ("infeasible: " ^ m)
  | Problem.Combination_overflow { analog_cores; combinations; limit } ->
    Some (Problem.overflow_message ~analog_cores ~combinations ~limit)
  | _ -> None
