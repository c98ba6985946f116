(* msoc_plan: command-line front end for the mixed-signal SOC test
   planner.

   Subcommands:
     plan      - plan a SOC (built-in instance or .soc file + analog set)
     check     - lint a .soc input and verify a produced plan (Msoc_check)
     explore   - sweep TAM widths or cost weights
     optimize  - Cost_Optimizer front end with pruning statistics
     serve     - resident planning service (stdio batch, Unix socket or TCP)
     fleet     - consistent-hash router over supervised serve workers
     replay    - load-test client for a serve daemon or a fleet router
     soc-info  - describe a .soc file (cores, staircases, volumes)
     sharing   - list wrapper-sharing combinations with C_A and T_LB
     generate  - emit a synthetic .soc benchmark file
     bist      - converter self-test and Monte-Carlo yield
     cosim     - co-simulation of wrapped spec tests (Fig. 5)

   The source-level analyzer is its own executable, msoc_analyze
   (bin/msoc_analyze.ml), so this one links no compiler-libs.

   Exit codes: 0 clean; 1 when `check` or `--verify` finds an
   error-severity diagnostic, `replay` sees a failure or `serve`/`fleet`
   cannot bind their listener; 124 on CLI misuse — a value outside its
   range (Msoc_serve.Request's table) or a request the planner rejects,
   what the service answers bad_request; 125 only on a bug (an uncaught
   exception). *)

open Cmdliner

module Types = Msoc_itc02.Types
module Plan = Msoc_testplan.Plan
module Report = Msoc_testplan.Report
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Table = Msoc_util.Ascii_table
module Diagnostic = Msoc_check.Diagnostic
module Evaluate = Msoc_testplan.Evaluate
module Export = Msoc_testplan.Export
module Registry = Msoc_tam.Packer_registry
module Request = Msoc_serve.Request

(* --- shared argument definitions --- *)

(* A value outside its range is a usage error (exit 124) like any other
   unparseable option; the ranges and their "expected" phrases are the
   ones the serve envelopes are checked against. *)
let invalid_value (range : _ Request.range) s =
  Printf.sprintf "invalid value '%s', expected %s" s range.Request.expected

let in_range (range : _ Request.range) of_string s =
  match of_string (String.trim s) with
  | Some v when range.Request.ok v -> Ok v
  | Some _ | None -> Error (invalid_value range s)

let checked ~docv range of_string pp = Arg.conv' ~docv (in_range range of_string, pp)
let int_in ?(docv = "N") range = checked ~docv range int_of_string_opt Format.pp_print_int
let float_in ~docv range = checked ~docv range float_of_string_opt Format.pp_print_float
let positive_int = int_in Request.positive_int
let non_negative_int = int_in { Request.expected = "a non-negative integer"; ok = (fun n -> n >= 0) }

(* An output file is checked when the options are parsed, before any
   work: its directory must exist, and the path must not name a
   directory itself. *)
let output_path ~docv ?(named = fun _ -> true) expected =
  let ok path =
    let dir = Filename.dirname path in
    Sys.file_exists dir && Sys.is_directory dir
    && (not (Sys.file_exists path && Sys.is_directory path))
    && named path
  in
  checked ~docv { Request.expected; ok } Option.some Format.pp_print_string
let pp_name name ppf v = Format.pp_print_string ppf (name v)

(* A comma-separated list, each entry in [range]; [nonempty] rejects a
   list that names nothing. *)
let list_conv ~docv ~nonempty (range : _ Request.range) of_string name =
  let parse s =
    let rec values acc = function
      | [] when nonempty && acc = [] -> Error (invalid_value range s)
      | [] -> Ok (List.rev acc)
      | v :: rest -> Result.bind (in_range range of_string v) (fun v -> values (v :: acc) rest)
    in
    values [] (List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s)))
  in
  Arg.conv' ~docv (parse, pp_name (fun vs -> String.concat "," (List.map name vs)))

let width_arg =
  let doc =
    Printf.sprintf "SOC-level TAM width (wires), 1..%d." Msoc_testplan.Problem.max_tam_width
  in
  Arg.(value & opt (int_in Request.width) 32 & info [ "w"; "width" ] ~docv:"W" ~doc)

let weight_time_arg =
  let doc = "Cost weight for test time, 0..1; area weight is its complement." in
  Arg.(
    value
    & opt (float_in ~docv:"WT" Request.weight) 0.5
    & info [ "t"; "weight-time" ] ~docv:"WT" ~doc)

let soc_file_arg =
  let doc =
    "Digital SOC description (.soc file). Defaults to the built-in p93791s \
     synthetic benchmark."
  in
  Arg.(value & opt (some non_dir_file) None & info [ "soc" ] ~docv:"FILE" ~doc)

let labels cores = List.map (fun c -> c.Msoc_analog.Spec.label) cores

let analog_labels_arg =
  let doc =
    "Comma-separated analog core labels from the built-in catalog (A-E)."
  in
  let analog_conv =
    checked ~docv:"LABELS" (Request.one_of (labels Catalog.all)) Request.analog_cores
      (pp_name (fun cores -> String.concat "," (labels cores)))
  in
  Arg.(value & opt analog_conv Catalog.all & info [ "analog" ] ~docv:"LABELS" ~doc)

let delta_arg =
  let doc = "Cost_Optimizer pruning threshold (0 = aggressive, paper default)." in
  Arg.(
    value & opt (float_in ~docv:"DELTA" Request.delta) 0.0 & info [ "delta" ] ~docv:"DELTA" ~doc)

let search_term =
  let doc = "Search strategy: 'heuristic' (Cost_Optimizer) or 'exhaustive'." in
  let search =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) Request.searches)) "heuristic"
      & info [ "search" ] ~docv:"STRATEGY" ~doc)
  in
  (* the enum admits only names Request.search knows *)
  Term.(const (fun name delta -> Option.get (Request.search ~delta name)) $ search $ delta_arg)

let packer_arg =
  let doc =
    "TAM packing heuristic: 'best_fit' (the default priority-rule portfolio),      'diagonal' (diagonal-length priority, arXiv:1008.4446) or 'constrained'      (placement-exclusion aware, arXiv:1008.4448). Every variant's schedule      is certified against the packing invariants; a non-default choice is      additionally re-verified through $(b,Msoc_check) as if $(b,--verify)      were given."
  in
  let packer_conv =
    checked ~docv:"NAME" (Request.one_of Registry.names) Registry.find (pp_name Registry.name)
  in
  Arg.(value & opt packer_conv Registry.default & info [ "packer" ] ~docv:"NAME" ~doc)

let packer_is_default packer = Registry.name packer = Registry.name Registry.default

let jobs_arg =
  let doc =
    "Worker domains for parallel sharing-combination evaluation. Defaults to \
     $(b,MSOC_JOBS) when set, else 1 (serial). The plan is bit-identical at \
     any job count."
  in
  Arg.(
    value
    & opt positive_int 1
    & info [ "j"; "jobs" ] ~env:(Cmd.Env.info "MSOC_JOBS") ~docv:"N" ~doc)

let schedule_flag =
  let doc = "Print the full test schedule (one row per test)." in
  Arg.(value & flag & info [ "schedule" ] ~doc)

let gantt_flag =
  let doc = "Print an ASCII Gantt chart of the schedule (wires x time)." in
  Arg.(value & flag & info [ "gantt" ] ~doc)

let json_flag =
  let doc = "Emit the plan as JSON instead of tables." in
  Arg.(value & flag & info [ "json" ] ~doc)

let verify_flag =
  let doc =
    "Re-verify the result with the independent checker ($(b,Msoc_check)): \
     schedule invariants and cost cross-checks. Findings go to stderr; any \
     error-severity diagnostic makes the command exit 1."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

(* Print verifier findings to stderr; exit 1 on error severity. *)
let report_verification ~context diags =
  let diags = Diagnostic.sort diags in
  prerr_string (Diagnostic.render_text diags);
  Fmt.epr "%s: %s@." context (Diagnostic.summary diags);
  if Diagnostic.has_errors diags then exit 1

(* A planning command's term, run to completion. A request the planner
   rejects (the service's bad_request: a .soc that does not parse, a
   width an analog core cannot fit, a sweep with no feasible point) is
   one error line and exit 124; anything else escaping is a bug. *)
let planning term =
  let run f =
    match f () with
    | () -> `Ok ()
    | exception e -> (
      match Request.error_message e with Some m -> `Error (false, m) | None -> raise e)
  in
  Term.(ret (const run $ term))

(* The request a command poses; the .soc loads inside [planning]. *)
let setting ?(search = Plan.Heuristic { delta = 0.0 }) ?(packer = Registry.default) ~width
    ~weight_time soc_file analog_cores =
  { Request.soc = Request.load_soc soc_file; analog_cores; width; weight_time; search; packer }

(* --- plan --- *)

let run_plan width weight_time soc_file analog_cores search packer jobs
    with_schedule with_gantt as_json verify () =
  let s = setting ~search ~packer ~width ~weight_time soc_file analog_cores in
  let plan = Msoc_util.Pool.with_pool ~jobs (fun pool -> Request.plan ~pool s) in
  if as_json then
    print_string (Export.plan_to_string ~pretty:true plan)
  else begin
    print_string (Report.summary plan);
    print_newline ();
    print_string (Report.wrapper_table plan);
    if with_schedule then begin
      print_newline ();
      print_string (Report.schedule_table plan)
    end;
    if with_gantt then begin
      print_newline ();
      print_string
        (Msoc_tam.Gantt.render plan.Plan.best.Msoc_testplan.Evaluate.schedule)
    end
  end;
  if verify || not (packer_is_default packer) then
    report_verification ~context:"plan --verify" (Msoc_check.Verify.plan plan)

let plan_cmd =
  let doc = "plan a mixed-signal SOC: wrapper sharing + TAM schedule" in
  Cmd.v
    (Cmd.info "plan" ~doc)
    (planning
       Term.(
         const run_plan $ width_arg $ weight_time_arg $ soc_file_arg
         $ analog_labels_arg $ search_term $ packer_arg $ jobs_arg
         $ schedule_flag $ gantt_flag $ json_flag $ verify_flag))

(* --- check --- *)

let run_check width weight_time soc_file analog_cores search jobs lint_only
    as_json () =
  (* one read of the file: its lint findings, and the SOC it loads to
     when none of them is an error *)
  let lint_diags, soc =
    match soc_file with
    | Some path -> Msoc_check.Lint.load path
    | None -> ([], Some (Request.load_soc None))
  in
  let plan_diags =
    match soc with
    | Some soc when not lint_only ->
      let s =
        { Request.soc; analog_cores; width; weight_time; search; packer = Registry.default }
      in
      Msoc_check.Verify.plan
        (Msoc_util.Pool.with_pool ~jobs (fun pool -> Request.plan ~pool s))
    | Some _ | None -> []
  in
  let diags = Diagnostic.sort (lint_diags @ plan_diags) in
  if as_json then
    print_string (Msoc_testplan.Export.pretty (Diagnostic.report_json diags))
  else begin
    print_string (Diagnostic.render_text diags);
    Fmt.pr "check: %s@." (Diagnostic.summary diags)
  end;
  exit (Diagnostic.exit_code diags)

let check_cmd =
  let doc =
    "verify a plan end to end: lint the .soc input, plan it, re-check the \
     schedule and costs independently; exit 1 on any error finding"
  in
  let lint_only_flag =
    Arg.(
      value & flag
      & info [ "lint-only" ] ~doc:"Stop after linting the .soc input; do not plan.")
  in
  Cmd.v (Cmd.info "check" ~doc)
    (planning
       Term.(
         const run_check $ width_arg $ weight_time_arg $ soc_file_arg
         $ analog_labels_arg $ search_term $ jobs_arg $ lint_only_flag
         $ json_flag))

(* --- explore --- *)

let run_explore sweep weight_time soc_file analog_cores search packer jobs verify () =
  let width, sweep = sweep in
  let s = setting ~search ~packer ~width ~weight_time soc_file analog_cores in
  let plans = Msoc_util.Pool.with_pool ~jobs (fun pool -> Request.explore ~pool s sweep) in
  let columns =
    [
      Table.column "point";
      Table.column "sharing";
      Table.column ~align:Table.Right "cost";
      Table.column ~align:Table.Right "C_T";
      Table.column ~align:Table.Right "C_A";
      Table.column ~align:Table.Right "makespan";
      Table.column ~align:Table.Right "evals";
    ]
  in
  let rows =
    List.map
      (fun (point, (plan : Plan.t)) ->
        let e = plan.Plan.best in
        [
          point;
          Sharing.short_name e.Evaluate.combination;
          Table.float_cell e.Evaluate.cost;
          Table.float_cell e.Evaluate.c_t;
          Table.float_cell e.Evaluate.c_a;
          Table.int_cell e.Evaluate.makespan;
          string_of_int plan.Plan.evaluations;
        ])
      plans
  in
  Table.print ~columns ~rows;
  if verify || not (packer_is_default packer) then
    report_verification ~context:"explore --verify"
      (List.concat_map (fun (_, plan) -> Msoc_check.Verify.plan plan) plans)

let widths_conv =
  list_conv ~docv:"W1,W2,.." ~nonempty:true Request.width int_of_string_opt string_of_int

let weights_conv =
  list_conv ~docv:"T1,T2,.." ~nonempty:true Request.weight float_of_string_opt string_of_float

let explore_cmd =
  let doc = "sweep TAM widths or cost weights and tabulate the chosen plans" in
  let widths_arg =
    Arg.(
      value
      & opt widths_conv [ 16; 24; 32; 48; 64 ]
      & info [ "widths" ] ~docv:"W1,W2,.."
          ~doc:
            (Printf.sprintf "Comma-separated TAM widths to sweep, each in 1..%d."
               Msoc_testplan.Problem.max_tam_width))
  in
  let weights_arg =
    Arg.(
      value
      & opt (some weights_conv) None
      & info [ "weights" ] ~docv:"T1,T2,.."
          ~doc:
            "Comma-separated time weights (0..1) to sweep at a single --widths \
             value, instead of a width sweep.")
  in
  (* (the setting's width, the sweep): a weight sweep runs at its one
     width; a width sweep ignores the setting's, the envelope default *)
  let sweep widths weights =
    match (weights, widths) with
    | None, _ -> `Ok (32, Request.Widths widths)
    | Some weights, [ width ] -> `Ok (width, Request.Weights weights)
    | Some _, _ ->
      `Error (true, "option '--weights': a weight sweep takes exactly one '--widths' value")
  in
  Cmd.v (Cmd.info "explore" ~doc)
    (planning
       Term.(
         const run_explore
         $ ret (const sweep $ widths_arg $ weights_arg)
         $ weight_time_arg $ soc_file_arg $ analog_labels_arg $ search_term $ packer_arg
         $ jobs_arg $ verify_flag))

(* --- optimize --- *)

let strategy_arg =
  let doc =
    "Search strategy over the full sharing-partition space: 'exhaustive' \
     (every distinct partition; refuses past the enumeration limit), 'repr' \
     (the paper's Cost_Optimizer over that space), 'bnb' (branch-and-bound, \
     provably optimal, never materializes the space), 'anneal' (seeded \
     simulated annealing, anytime) or 'portfolio' (bnb raced against several \
     annealing seeds on the worker pool). Without this flag, optimize runs \
     the legacy Cost_Optimizer over the paper's candidate enumeration."
  in
  (* The strategy's payload (delta, seeds) comes from other options:
     the converter checks the name and keeps its canonical spelling. *)
  let strategy_conv =
    checked ~docv:"NAME" (Request.one_of Msoc_search.Strategy.names)
      (fun s -> Option.map Msoc_search.Strategy.name (Request.strategy ~delta:0.0 ~seed:1 s))
      Format.pp_print_string
  in
  Arg.(value & opt (some strategy_conv) None & info [ "strategy" ] ~docv:"NAME" ~doc)

let budget_ms_arg =
  let doc =
    "Time budget in milliseconds for the anytime strategies (bnb, anneal, \
     portfolio): when it runs out the best incumbent so far is returned."
  in
  Arg.(
    value
    & opt (some (float_in ~docv:"MS" Request.positive_float)) None
    & info [ "budget-ms" ] ~docv:"MS" ~doc)

let max_evals_arg =
  let doc =
    "Cap on full TAM-optimizer evaluations for the anytime strategies (split \
     across portfolio members)."
  in
  Arg.(value & opt (some positive_int) None & info [ "max-evals" ] ~docv:"N" ~doc)

let seed_arg =
  let doc =
    "Base RNG seed for 'anneal' (used as-is) and 'portfolio' (members get \
     seed, seed+1, seed+2). Equal seeds give bit-identical runs."
  in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let analog_scale_arg =
  let doc =
    "Replace the $(b,--analog) catalog selection with N scaled analog cores \
     (4-26, labels A..Z: the Table 2 catalog cycled with perturbed test \
     lengths) for large-instance runs. Past ~11 cores the sharing space \
     exceeds the enumeration limit and only the anytime strategies apply."
  in
  Arg.(
    value
    & opt (some (int_in Request.analog_scale)) None
    & info [ "analog-scale" ] ~docv:"N" ~doc)

let json_with_search plan search_json =
  match Msoc_testplan.Export.plan_json plan with
  | Msoc_testplan.Export.Object fields ->
    Msoc_testplan.Export.Object (fields @ [ ("search", search_json) ])
  | json -> json

let print_search_stats (stats : Msoc_search.Stats.t) =
  Fmt.pr
    "search: %d evaluations, %d combinations considered, %d nodes expanded, \
     %d pruned, %d equivalent skipped@."
    stats.Msoc_search.Stats.evaluations stats.Msoc_search.Stats.considered
    stats.Msoc_search.Stats.nodes_expanded stats.Msoc_search.Stats.nodes_pruned
    stats.Msoc_search.Stats.dedup_skips;
  if stats.Msoc_search.Stats.moves > 0 then
    Fmt.pr "anneal: %d moves proposed, %d accepted@."
      stats.Msoc_search.Stats.moves stats.Msoc_search.Stats.accepted_moves;
  Fmt.pr "schedule cache: %d hits, %d misses; wall %.1f ms@."
    stats.Msoc_search.Stats.cache_hits stats.Msoc_search.Stats.cache_misses
    stats.Msoc_search.Stats.wall_ms

let print_optimized ~as_json = function
  | Request.Searched { plan; outcome } ->
    if as_json then
      print_string
        (Export.pretty
           (json_with_search plan (Msoc_search.Strategy.outcome_json outcome)))
    else begin
      print_string (Report.summary plan);
      print_newline ();
      Fmt.pr "strategy: %s (%s)@."
        (Msoc_search.Strategy.name outcome.Msoc_search.Strategy.strategy)
        (if outcome.Msoc_search.Strategy.optimal then "proven optimal"
         else "anytime incumbent");
      print_search_stats outcome.Msoc_search.Strategy.stats;
      List.iter
        (fun (m : Msoc_search.Portfolio.member_result) ->
          Fmt.pr "  member %-10s cost %.4f%s@." m.Msoc_search.Portfolio.member
            m.Msoc_search.Portfolio.cost
            (if m.Msoc_search.Portfolio.optimal then " (optimal)" else ""))
        outcome.Msoc_search.Strategy.members
    end
  | Request.Pruned { plan; result; memo_hits; memo_misses } ->
    let module C = Msoc_testplan.Cost_optimizer in
    let groups = result.C.surviving_groups in
    if as_json then begin
      let counters =
        Export.Object
          [
            ("strategy", Export.String "repr-legacy");
            ("evaluations", Export.Int result.C.evaluations);
            ("considered", Export.Int result.C.considered);
            ("cache_hits", Export.Int memo_hits);
            ("cache_misses", Export.Int memo_misses);
            ( "surviving_groups",
              Export.List
                (List.map (fun g -> Export.List (List.map (fun n -> Export.Int n) g)) groups) );
          ]
      in
      print_string (Export.pretty (json_with_search plan counters))
    end
    else begin
      print_string (Report.summary plan);
      print_newline ();
      Fmt.pr "pruning: %d of %d combinations fully evaluated (%.0f%% saved)@."
        result.C.evaluations result.C.considered
        (100.0
        *. (1.0
           -. float_of_int result.C.evaluations
              /. float_of_int (max 1 result.C.considered)));
      Fmt.pr "surviving degree signatures: %s@."
        (String.concat " "
           (List.map
              (fun sig_ -> "[" ^ String.concat ";" (List.map string_of_int sig_) ^ "]")
              groups))
    end

let run_optimize width weight_time soc_file analog_cores analog_scale delta
    strategy budget_ms max_evals seed packer jobs as_json verify () =
  let analog_cores =
    match analog_scale with
    | None -> analog_cores
    | Some n -> Msoc_testplan.Instances.scaled_analog ~n
  in
  let s =
    setting ~search:(Plan.Heuristic { delta }) ~packer ~width ~weight_time soc_file analog_cores
  in
  (* the --strategy converter admits only names Request.strategy knows *)
  let strategy =
    Option.map
      (fun name ->
        let kind = Option.get (Request.strategy ~delta ~seed name) in
        { Request.kind; max_evals; budget_ms })
      strategy
  in
  let optimized =
    Msoc_util.Pool.with_pool ~jobs (fun pool -> Request.optimize ~pool s strategy)
  in
  print_optimized ~as_json optimized;
  if verify || not (packer_is_default packer) then
    match optimized with
    | Request.Searched { plan; _ } | Request.Pruned { plan; _ } ->
      report_verification ~context:"optimize --verify" (Msoc_check.Verify.plan plan)

let optimize_cmd =
  let doc =
    "search the wrapper-sharing space: the paper's Cost_Optimizer by \
     default, or a Msoc_search strategy via $(b,--strategy)"
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    (planning
       Term.(
         const run_optimize $ width_arg $ weight_time_arg $ soc_file_arg
         $ analog_labels_arg $ analog_scale_arg $ delta_arg $ strategy_arg
         $ budget_ms_arg $ max_evals_arg $ seed_arg $ packer_arg $ jobs_arg
         $ json_flag $ verify_flag))

(* --- soc-info --- *)

let run_soc_info soc_file width volume () =
  let soc = Request.load_soc soc_file in
  Fmt.pr "%a@." Types.pp_soc soc;
  if volume then begin
    print_newline ();
    print_string (Msoc_itc02.Volume.report soc);
    Fmt.pr "ATE stimulus depth at W=%d: %s bits per wire@." width
      (Table.int_cell (Msoc_itc02.Volume.ate_depth_bits soc ~width))
  end;
  let columns =
    [
      Table.column "core";
      Table.column ~align:Table.Right "volume (bits)";
      Table.column ~align:Table.Right "T(1)";
      Table.column ~align:Table.Right (Printf.sprintf "T(%d)" width);
      Table.column ~align:Table.Right "pareto pts";
    ]
  in
  let rows =
    List.map
      (fun (core : Types.core) ->
        let staircase = Msoc_wrapper.Pareto.staircase core ~max_width:width in
        [
          core.Types.name;
          Table.int_cell (Types.test_data_volume core);
          Table.int_cell (Msoc_wrapper.Pareto.time_at staircase ~width:1);
          Table.int_cell (Msoc_wrapper.Pareto.min_time staircase);
          string_of_int (List.length (Msoc_wrapper.Pareto.points staircase));
        ])
      soc.Types.cores
  in
  Table.print ~columns ~rows

let soc_info_cmd =
  let doc = "describe a .soc benchmark: cores, test volumes, staircases" in
  let volume_flag =
    Arg.(value & flag & info [ "volume" ] ~doc:"Include the test-data volume table.")
  in
  Cmd.v (Cmd.info "soc-info" ~doc)
    (planning Term.(const run_soc_info $ soc_file_arg $ width_arg $ volume_flag))

(* --- sharing --- *)

let run_sharing cores all =
  let combos =
    if all then Sharing.all_combinations cores else Sharing.paper_combinations cores
  in
  let columns =
    [
      Table.column ~align:Table.Right "N_w";
      Table.column "combination";
      Table.column ~align:Table.Right "C_A";
      Table.column ~align:Table.Right "T_LB";
      Table.column ~align:Table.Right "T_LB (norm)";
      Table.column "feasible";
    ]
  in
  let rows =
    List.map
      (fun c ->
        [
          string_of_int (Sharing.wrappers c);
          Sharing.full_name c;
          Table.float_cell (Msoc_analog.Area.cost_ca c);
          Table.int_cell (Msoc_analog.Bounds.lower_bound c);
          Table.float_cell (Msoc_analog.Bounds.normalized_lower_bound c);
          (if Sharing.is_feasible c then "yes" else "no");
        ])
      combos
  in
  Table.print ~columns ~rows

let sharing_cmd =
  let doc = "list wrapper-sharing combinations with area cost and time bound" in
  let all_flag =
    Arg.(value & flag & info [ "all" ] ~doc:"Every distinct partition, not just the paper's enumeration.")
  in
  Cmd.v (Cmd.info "sharing" ~doc) Term.(const run_sharing $ analog_labels_arg $ all_flag)

(* --- generate --- *)

let run_generate seed n_cores target_area bottleneck output =
  let profile =
    {
      Msoc_itc02.Synthetic.n_cores;
      target_area;
      max_chains = Msoc_itc02.Synthetic.default_profile.Msoc_itc02.Synthetic.max_chains;
      bottleneck;
    }
  in
  let name = Filename.remove_extension (Filename.basename output) in
  let soc = Msoc_itc02.Synthetic.generate ~seed ~name profile in
  Msoc_itc02.Soc_file.save output soc;
  Fmt.pr "wrote %s (%d cores, target area %d wire-cycles)@." output n_cores target_area

let generate_cmd =
  let doc = "generate a synthetic .soc benchmark" in
  let seed = Arg.(value & opt int 937 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let n =
    Arg.(value & opt positive_int 32 & info [ "cores" ] ~docv:"N" ~doc:"Number of cores.")
  in
  let area =
    Arg.(
      value
      & opt int 26_500_000
      & info [ "area" ] ~docv:"A" ~doc:"Target total test area (wire-cycles).")
  in
  let bottleneck =
    Arg.(
      value & flag
      & info [ "bottleneck" ]
          ~doc:"Include the fixed p93791-style bottleneck core (the built-in \
                p93791s uses seed 937, area 26500000 and this flag).")
  in
  let out =
    (* the file's name less its extension names the SOC *)
    let path =
      output_path ~docv:"OUTPUT.soc"
        ~named:(fun path ->
          Msoc_itc02.Scan.one_token (Filename.remove_extension (Filename.basename path)))
        "a file path in an existing directory, named without blanks, tabs or '#'"
    in
    Arg.(required & pos 0 (some path) None & info [] ~docv:"OUTPUT.soc" ~doc:"Output path.")
  in
  (* the bottleneck core comes on top of a drawn one *)
  let two = Request.{ expected = "an integer >= 2 with '--bottleneck'"; ok = (fun n -> n >= 2) } in
  let cores n bottleneck =
    if bottleneck && not (two.Request.ok n) then
      `Error (true, "option '--cores': " ^ invalid_value two (string_of_int n))
    else `Ok n
  in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const run_generate $ seed $ ret (const cores $ n $ bottleneck) $ area $ bottleneck $ out)

(* --- serve --- *)

module Serve_protocol = Msoc_serve.Protocol
module Serve_service = Msoc_serve.Service
module Client = Msoc_serve.Client
module Clock = Msoc_util.Clock

(* daemon arguments shared by [serve] and [fleet] *)

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve as a daemon on this Unix-domain socket instead of stdio.")

let serve_tcp_arg =
  let on_loopback = Option.map (fun port -> ("127.0.0.1", port)) in
  Term.(
    const on_loopback
    $ Arg.(
        value
        & opt (some int) None
        & info [ "tcp" ] ~docv:"PORT"
            ~doc:
              "Serve as a TCP daemon on 127.0.0.1:$(docv) (0 picks a free \
               port). Exclusive with $(b,--socket)."))

(* [--socket] and [--tcp] name one endpoint: both together, or neither
   where the command has no [stdio] mode, is a usage error (exit 124). *)
let endpoint ?stdio socket_arg tcp_arg =
  let pick socket tcp =
    match (socket, tcp, stdio) with
    | Some _, Some _, _ ->
      `Error (true, "options '--socket' and '--tcp' are exclusive")
    | Some path, None, _ -> `Ok (`Unix path)
    | None, Some t, _ -> `Ok (`Tcp t)
    | None, None, Some mode -> `Ok mode
    | None, None, None ->
      `Error (true, "one of the options '--socket' or '--tcp' is required")
  in
  Term.(ret (const pick $ socket_arg $ tcp_arg))

let worker_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "worker-id" ] ~docv:"ID"
        ~doc:
          "Stamp every response envelope with this worker id (fleet members \
           use w0, w1, ...).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persist results content-addressed under this directory; identical \
           problems hit the cache across restarts, clients and concurrent \
           daemons sharing the directory.")

let memory_cache_arg =
  Arg.(
    value & opt positive_int 512
    & info [ "memory-cache" ] ~docv:"N"
        ~doc:"In-memory LRU capacity (entries).")

let cache_max_mb_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "cache-max-mb" ] ~docv:"MB"
        ~doc:
          "Cap the on-disk cache; a size-aware sweep removes the oldest \
           entries once the directory crosses the cap.")

let queue_arg =
  Arg.(
    value & opt positive_int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bounded request queue capacity; requests beyond it are rejected \
           with an $(b,overloaded) envelope.")

(* Runs [serve ~ready] on [listen]; [ready] names the endpoint from the
   port bound. A listener that cannot be bound (a missing directory, a
   port in use) is one line and exit 1, once [serve] has released what
   it started: [ready] never fired, so the error is the bind's. *)
let listening cmd listen serve =
  let name port =
    match listen with `Unix path -> path | `Tcp (host, _) -> Printf.sprintf "%s:%d" host port
  in
  let bound = ref false in
  match serve ~ready:(fun port -> bound := true; name port) with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) when not !bound ->
    let port = match listen with `Tcp (_, port) -> port | `Unix _ -> 0 in
    Fmt.epr "msoc_plan %s: cannot listen on %s: %s@." cmd (name port) (Unix.error_message e);
    exit 1

let run_serve endpoint worker_id cache_dir memory_cache cache_max_mb queue
    jobs =
  let max_disk_bytes = Option.map (fun mb -> mb * 1024 * 1024) cache_max_mb in
  let cache =
    Msoc_serve.Cache.create ?dir:cache_dir ?max_disk_bytes
      ~memory_capacity:memory_cache ()
  in
  let service =
    Serve_service.create ~cache ?worker:worker_id ~jobs ()
  in
  let describe endpoint =
    Fmt.epr "msoc_plan serve: listening on %s (jobs=%d, queue=%d%s%s)@."
      endpoint (Serve_service.jobs service) queue
      (match cache_dir with
      | Some d -> Printf.sprintf ", cache-dir=%s" d
      | None -> ", memory cache only")
      (match worker_id with
      | Some w -> Printf.sprintf ", worker=%s" w
      | None -> "")
  in
  let serving f = Fun.protect ~finally:(fun () -> Serve_service.shutdown service) f in
  match endpoint with
  | `Stdio -> serving (fun () -> Msoc_serve.Server.serve_channels service stdin stdout)
  | (`Unix _ | `Tcp _) as listen ->
    listening "serve" listen (fun ~ready ->
        serving (fun () ->
            Msoc_serve.Server.serve ~queue_capacity:queue ~listen service
              ~ready:(fun port -> describe (ready port))));
    Fmt.epr "msoc_plan serve: drained, exiting@."

let serve_cmd =
  let doc =
    "run the resident planning service: NDJSON envelopes over stdin/stdout \
     (default) or a Unix-domain socket daemon with a bounded request queue, \
     per-request deadlines and a two-level result cache"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve
      $ endpoint ~stdio:`Stdio serve_socket_arg serve_tcp_arg
      $ worker_id_arg
      $ cache_dir_arg $ memory_cache_arg $ cache_max_mb_arg $ queue_arg
      $ jobs_arg)

(* --- fleet --- *)

module Fleet_router = Msoc_fleet.Router
module Fleet_supervisor = Msoc_fleet.Supervisor

let run_fleet listen workers base_port cache_dir memory_cache cache_max_mb
    queue jobs window replicas retry_rounds seed =
  let specs =
    List.init workers (fun i ->
        let id = Printf.sprintf "w%d" i in
        let port = base_port + i in
        let argv =
          [ Sys.executable_name; "serve"; "--tcp"; string_of_int port;
            "--worker-id"; id; "--memory-cache"; string_of_int memory_cache;
            "--queue"; string_of_int queue ]
          @ (match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> [])
          @ (match cache_max_mb with
            | Some mb -> [ "--cache-max-mb"; string_of_int mb ]
            | None -> [])
          @ [ "--jobs"; string_of_int jobs ]
        in
        { Fleet_supervisor.id; argv = Array.of_list argv; port })
  in
  let ids = List.map (fun (s : Fleet_supervisor.spec) -> s.id) specs in
  (* one metrics table shared by the router and the supervisor, so
     worker restarts show up in the fleet's stats envelope *)
  let metrics = Msoc_fleet.Fleet_metrics.create ~ids in
  let stop = Atomic.make false in
  let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let old_term = Sys.signal Sys.sigterm request_stop in
  let old_int = Sys.signal Sys.sigint request_stop in
  let supervisor =
    Fleet_supervisor.create ~seed
      ~on_restart:(Msoc_fleet.Fleet_metrics.incr_restart metrics)
      specs
  in
  Fmt.epr "msoc_plan fleet: %d workers on ports %d-%d (%s)@." workers base_port
    (base_port + workers - 1)
    (String.concat ", "
       (List.map
          (fun (id, pid) -> Printf.sprintf "%s pid %d" id pid)
          (Fleet_supervisor.pids supervisor)));
  listening "fleet" listen (fun ~ready ->
    Fun.protect
      ~finally:(fun () ->
        Fleet_supervisor.stop supervisor;
        Sys.set_signal Sys.sigterm old_term;
        Sys.set_signal Sys.sigint old_int)
      (fun () ->
        let cfg =
          Fleet_router.config ~window ~replicas ~retry_rounds ~seed
            (List.map
               (fun (s : Fleet_supervisor.spec) ->
                 { Fleet_router.id = s.Fleet_supervisor.id; host = "127.0.0.1";
                   port = s.Fleet_supervisor.port })
               specs)
        in
        Fleet_router.run ~metrics
          ~ready:(fun port -> Fmt.epr "msoc_plan fleet: router on %s@." (ready port))
          ~listen ~stop cfg));
  Fmt.epr "msoc_plan fleet: drained, exiting@."

let fleet_cmd =
  let doc =
    "run a planning fleet: N serve workers on consecutive TCP ports behind a \
     consistent-hash router, supervised (health checks, restart on crash) and \
     sharing one on-disk result cache; clients speak the ordinary serve \
     protocol to the router endpoint"
  in
  let workers_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Worker process count.")
  in
  let base_port_arg =
    Arg.(
      value & opt int 7670
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"Workers listen on $(docv), $(docv)+1, ...")
  in
  let window_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Per-worker in-flight cap; admissions beyond it are shed with an \
             $(b,overloaded) envelope, never spilled to another worker.")
  in
  let replicas_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Hash-ring virtual nodes per worker.")
  in
  let retry_rounds_arg =
    Arg.(
      value & opt int 5
      & info [ "retry-rounds" ] ~docv:"N"
          ~doc:
            "Jittered-backoff rounds to wait for any worker before answering \
             $(b,unavailable).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for backoff jitter (restart and retry schedules).")
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const run_fleet $ endpoint serve_socket_arg serve_tcp_arg $ workers_arg
      $ base_port_arg $ cache_dir_arg $ memory_cache_arg $ cache_max_mb_arg
      $ queue_arg $ jobs_arg $ window_arg $ replicas_arg $ retry_rounds_arg
      $ seed_arg)

(* --- replay --- *)

(* The load-test client: generates a deterministic mixed request
   stream, pipelines it over the daemon socket in bounded windows
   (below the server queue so nothing is shed), validates every
   response envelope, and optionally re-plans a sample locally to
   prove the daemon's answers are bit-identical to the one-shot CLI. *)

(* [repeat] passes of [count] requests, request j under the id qj *)
let replay_requests ~count ~repeat ~mix ~widths ~weights ~soc_text ~analog ~deadline_ms =
  let cycle l i = List.nth l (i mod List.length l) in
  List.init (repeat * count) (fun j ->
      let i = j mod count in
      let params =
        Export.Object
          ((match soc_text with
           | Some text -> [ ("soc_text", Export.String text) ]
           | None -> [])
          @ [
              ("analog", Export.String analog);
              ("width", Export.Int (cycle widths i));
              ("weight_time", Export.Float (cycle weights i));
            ])
      in
      Serve_protocol.request ?deadline_ms ~params
        ~id:(Printf.sprintf "q%d" j) (cycle mix i))

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let latency_json lats =
  let a = Array.of_list lats in
  Array.sort compare a;
  Export.Object
    [
      ("count", Export.Int (Array.length a));
      ("p50_ms", Export.Float (percentile a 0.50));
      ("p90_ms", Export.Float (percentile a 0.90));
      ("p99_ms", Export.Float (percentile a 0.99));
      ("p99_9_ms", Export.Float (percentile a 0.999));
      ("max_ms", Export.Float (percentile a 1.0));
    ]

let ordinal_of_id id =
  if String.length id > 1 && id.[0] = 'q' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

(* One driver for both loops. The requests are dealt round-robin over
   [clients] connections, and each connection pairs a sender with a
   reader that scatters envelopes by ordinal; besides the connection
   count, the loops differ only in [departs], which holds a request
   until it may leave. A connection
   ends when its target leaves or stays silent for 30 s, and what it
   never answered counts as dropped. An envelope under an id the
   connection never sent, or one answered twice, counts as malformed. *)
type conn = {
  client : Client.t;
  lock : Mutex.t;
  moved : Condition.t;  (* a line came in, or the connection ended *)
  mutable heard : int;  (* lines read, placed or not *)
  mutable over : bool;
}

let ended c = Mutex.protect c.lock (fun () -> c.over)

let update c f =
  Mutex.protect c.lock (fun () ->
      f c;
      Condition.broadcast c.moved)

(* the sender stops, and a blocked send or read wakes *)
let finish c =
  update c (fun c -> c.over <- true);
  Client.shutdown c.client

let replay_drive ~connect ~clients ~departs requests =
  let requests = Array.of_list requests in
  let n = Array.length requests in
  let sent_at = Array.make n 0.0 in
  let results = Array.make n None in
  let malformed = Atomic.make 0 in
  let part k = List.filter (fun i -> i mod clients = k) (List.init n Fun.id) in
  let conns =
    Array.init clients (fun _ ->
        { client = connect (); lock = Mutex.create (); moved = Condition.create ();
          heard = 0; over = false })
  in
  let t0 = Clock.now () in
  let sender k () =
    let c = conns.(k) in
    List.iteri
      (fun j i ->
        if departs ~t0 c j i then begin
          sent_at.(i) <- Clock.now ();
          if not (Client.send c.client requests.(i)) then finish c
        end)
      (part k)
  in
  let place k (resp : Serve_protocol.response) =
    match ordinal_of_id resp.Serve_protocol.id with
    | Some i when i >= 0 && i < n && i mod clients = k && results.(i) = None ->
      results.(i) <- Some (resp, 1e3 *. (Clock.now () -. sent_at.(i)));
      true
    | Some _ | None -> false
  in
  let reader k () =
    let c = conns.(k) in
    let expected = List.length (part k) in
    let rec loop heard =
      if heard < expected then
        match Client.recv c.client with
        | Client.Closed | Client.Timed_out -> ()
        | reply ->
          (match reply with
          | Client.Response resp when place k resp -> ()
          | _ -> Atomic.incr malformed);
          update c (fun c -> c.heard <- heard + 1);
          loop (heard + 1)
    in
    loop 0;
    finish c
  in
  List.init clients (fun k -> [ Thread.create (sender k) (); Thread.create (reader k) () ])
  |> List.concat |> List.iter Thread.join;
  Array.iter (fun c -> Client.close c.client) conns;
  (results, Atomic.get malformed, Clock.now () -. t0)

(* Closed loop: one connection, and a request leaves once every
   earlier chunk of [window] has been answered. *)
let after_chunks ~window ~t0:_ c j _ =
  Mutex.protect c.lock (fun () ->
      while (not c.over) && c.heard < j - (j mod window) do
        Condition.wait c.moved c.lock
      done;
      not c.over)

(* Open loop: requests depart on a Poisson schedule fixed before the
   run starts, and never wait for responses — pressure the target
   cannot absorb shows up honestly as latency or shed envelopes, not
   as a politely pausing generator. *)
let on_schedule ~rate ~seed n =
  let rng = Msoc_util.Rng.create ~seed in
  let t = ref 0.0 in
  let arrivals =
    Array.init n (fun _ ->
        t := !t +. (-.log (1.0 -. Msoc_util.Rng.float rng ~bound:1.0) /. rate);
        !t)
  in
  fun ~t0 c _ i ->
    let rec pace () =
      let dt = t0 +. arrivals.(i) -. Clock.now () in
      (not (ended c)) && (dt <= 0.0 || (Thread.delay (Float.min dt 0.05); pace ()))
    in
    pace ()

(* One stats envelope on a fresh connection; soft-fails to None so a
   load report survives a target that drained right after the run. *)
let fetch_stats connect =
  match connect () with
  | exception Unix.Unix_error _ -> None
  | c ->
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        match Client.call c (Serve_protocol.request ~id:"stats" Serve_protocol.Stats) with
        | Client.Response r -> Some r.Serve_protocol.result
        | Client.Malformed _ | Client.Closed | Client.Timed_out -> None)

let run_replay endpoint count mix widths weights soc_text
    analog_cores window repeat deadline_ms verify clients rate allowed_shed
    json_out seed =
  let requests =
    replay_requests ~count ~repeat ~mix ~widths ~weights ~soc_text
      ~analog:(String.concat "," (labels analog_cores)) ~deadline_ms
  in
  let n = List.length requests in
  (* a fresh connection per call: a serve daemon's socket or the front
     door of a worker or a fleet router, one protocol on all three *)
  let connect = Client.connect ~idle_timeout_s:30.0 endpoint in
  let results, malformed, wall =
    let clients, departs =
      match rate with
      | Some rate -> (clients, on_schedule ~rate ~seed n)
      | None -> (1, after_chunks ~window)
    in
    try replay_drive ~connect ~clients ~departs requests
    with Unix.Unix_error (e, _, _) ->
      Fmt.epr "replay: FAIL: cannot connect: %s@." (Unix.error_message e);
      exit 1
  in
  let stats = fetch_stats connect in
  (* every peer is closed: with SIGPIPE at its default, a closed stdout
     ends replay quietly, as it ends any other command *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let answered =
    List.filter_map Fun.id
      (List.mapi (fun i req -> Option.map (fun (resp, lat) -> (req, resp, lat)) results.(i)) requests)
  in
  let dropped = n - List.length answered in
  let by_status = Hashtbl.create 8 in
  List.iter
    (fun (_, (r : Serve_protocol.response), lat) ->
      let k = Serve_protocol.status_name r.Serve_protocol.status in
      let count, lats =
        Option.value (Hashtbl.find_opt by_status k) ~default:(0, [])
      in
      Hashtbl.replace by_status k (count + 1, lat :: lats))
    answered;
  let oks =
    List.filter
      (fun (_, (r : Serve_protocol.response), _) ->
        r.Serve_protocol.status = Serve_protocol.Success)
      answered
  in
  let warm, cold =
    List.partition
      (fun (_, (r : Serve_protocol.response), _) ->
        r.Serve_protocol.cached <> None)
      oks
  in
  let lat_of (_, _, l) = l in
  (* worker attribution and routing stability: of the repeated routing
     keys, what fraction of answers came from each key's modal worker *)
  let worker_counts = Hashtbl.create 8 in
  let key_workers = Hashtbl.create 64 in
  List.iter
    (fun (req, (r : Serve_protocol.response), _) ->
      match r.Serve_protocol.worker with
      | None -> ()
      | Some w ->
        Hashtbl.replace worker_counts w
          (1 + Option.value (Hashtbl.find_opt worker_counts w) ~default:0);
        if w <> "router" then begin
          let key = Fleet_router.routing_key req in
          Hashtbl.replace key_workers key
            (w :: Option.value (Hashtbl.find_opt key_workers key) ~default:[])
        end)
    answered;
  let same_worker =
    let repeated, modal =
      Hashtbl.fold
        (fun _ ws (repeated, modal) ->
          match ws with
          | [] | [ _ ] -> (repeated, modal)
          | ws ->
            let tally = Hashtbl.create 4 in
            List.iter
              (fun w ->
                Hashtbl.replace tally w
                  (1 + Option.value (Hashtbl.find_opt tally w) ~default:0))
              ws;
            let best = Hashtbl.fold (fun _ c m -> max c m) tally 0 in
            (repeated + List.length ws, modal + best))
        key_workers (0, 0)
    in
    if repeated = 0 then None
    else Some (float_of_int modal /. float_of_int repeated)
  in
  Fmt.pr "replayed %d requests in %.2f s (%.0f req/s), %s@." n wall
    (float_of_int n /. Float.max 1e-9 wall)
    (match rate with
    | Some r ->
      Printf.sprintf "open loop at %.0f req/s over %d client(s)" r clients
    | None -> Printf.sprintf "closed loop, window %d" window);
  Hashtbl.iter
    (fun k (count, lats) ->
      let a = Array.of_list lats in
      Array.sort compare a;
      Fmt.pr "  %-18s %6d  p50 %.2f  p90 %.2f  p99 %.2f  p99.9 %.2f  max %.2f ms@."
        k count (percentile a 0.50) (percentile a 0.90) (percentile a 0.99)
        (percentile a 0.999) (percentile a 1.0))
    by_status;
  Fmt.pr "  warm (cached) %d / cold %d of %d ok@." (List.length warm)
    (List.length cold) (List.length oks);
  if Hashtbl.length worker_counts > 0 then begin
    let workers =
      List.sort compare
        (Hashtbl.fold (fun w c acc -> (w, c) :: acc) worker_counts [])
    in
    Fmt.pr "  workers: %s%s@."
      (String.concat ", "
         (List.map (fun (w, c) -> Printf.sprintf "%s=%d" w c) workers))
      (match same_worker with
      | Some f -> Printf.sprintf "; same-worker %.1f%% of repeated keys" (100.0 *. f)
      | None -> "")
  end;
  (match Option.bind stats (Export.member "cache") with
  | Some cache_json -> Fmt.pr "  server cache: %s@." (Export.to_string cache_json)
  | None -> ());
  let failures = ref 0 in
  if malformed > 0 then begin
    Fmt.epr "FAIL: %d malformed response envelopes@." malformed;
    incr failures
  end;
  if dropped > 0 then begin
    Fmt.epr "FAIL: %d of %d requests got no response envelope@." dropped n;
    incr failures
  end;
  let bad_status =
    List.length
      (List.filter
         (fun (_, (r : Serve_protocol.response), _) ->
           let st = r.Serve_protocol.status in
           st <> Serve_protocol.Success && not (List.mem st allowed_shed))
         answered)
  in
  if bad_status > 0 then begin
    Fmt.epr "FAIL: %d responses had a status outside ok%s@." bad_status
      (if allowed_shed = [] then ""
       else
         Printf.sprintf " + {%s}"
           (String.concat ","
              (List.map Serve_protocol.status_name allowed_shed)));
    incr failures
  end;
  (* bit-identical spot check: decode each sampled request as the
     daemon did and rerun it fresh, one-shot *)
  if verify > 0 then begin
    let seen = Hashtbl.create 8 in
    let sample =
      List.filter
        (fun ((req : Serve_protocol.request), (r : Serve_protocol.response), _) ->
          r.Serve_protocol.status = Serve_protocol.Success
          &&
          let key =
            Export.to_string
              (Serve_protocol.request_json { req with Serve_protocol.id = "" })
          in
          if Hashtbl.mem seen key || Hashtbl.length seen >= verify then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        answered
    in
    List.iter
      (fun ((req : Serve_protocol.request), (resp : Serve_protocol.response), _) ->
        let op = req.Serve_protocol.op in
        let fail what =
          Fmt.epr "FAIL: %s (%s) %s@." req.Serve_protocol.id (Serve_protocol.op_name op) what;
          incr failures
        in
        match Request.run (Request.of_params op req.Serve_protocol.params) with
        | exception e -> fail ("fails one-shot: " ^ Printexc.to_string e)
        | local
          when Export.to_string (Request.result_json local)
               <> Export.to_string resp.Serve_protocol.result ->
          fail "differs from the one-shot run"
        | Request.Planned plan
        | Request.Optimized (Request.Pruned { plan; _ } | Request.Searched { plan; _ })
          when Diagnostic.has_errors (Msoc_check.Verify.plan plan) ->
          fail "fails independent verification"
        | _ -> ())
      sample;
    Fmt.pr "  verified %d distinct configurations against the one-shot CLI@."
      (Hashtbl.length seen)
  end;
  (match json_out with
  | None -> ()
  | Some path ->
    let statuses =
      List.sort compare
        (Hashtbl.fold
           (fun k (count, lats) acc ->
             ( k,
               Export.Object
                 [ ("count", Export.Int count);
                   ("latency", latency_json lats) ] )
             :: acc)
           by_status [])
    in
    let workers =
      List.sort compare
        (Hashtbl.fold
           (fun w c acc -> (w, Export.Int c) :: acc)
           worker_counts [])
    in
    let json =
      Export.Object
        [
          ( "mode",
            Export.String
              (match rate with Some _ -> "open-loop" | None -> "closed-loop") );
          ( "rate",
            match rate with Some r -> Export.Float r | None -> Export.Null );
          ("clients", Export.Int (match rate with Some _ -> clients | None -> 1));
          ("requests", Export.Int n);
          ("wall_s", Export.Float wall);
          ( "achieved_rps",
            Export.Float (float_of_int n /. Float.max 1e-9 wall) );
          ("dropped", Export.Int dropped);
          ("malformed", Export.Int malformed);
          ("statuses", Export.Object statuses);
          ("warm", latency_json (List.map lat_of warm));
          ("cold", latency_json (List.map lat_of cold));
          ("workers", Export.Object workers);
          ( "same_worker_fraction",
            match same_worker with
            | Some f -> Export.Float f
            | None -> Export.Null );
          ("server", Option.value stats ~default:Export.Null);
          ("failures", Export.Int !failures);
        ]
    in
    try Out_channel.with_open_text path (fun oc -> output_string oc (Export.to_string json ^ "\n"))
    with Sys_error m ->
      Fmt.epr "replay: FAIL: %s@." m;
      exit 1);
  if !failures > 0 then exit 1

let replay_cmd =
  let doc =
    "drive a serve daemon or a fleet router with a deterministic request \
     stream — closed-loop pipelined by default, an open-loop Poisson load \
     generator with $(b,--rate) — validate every envelope and spot-check \
     results against the one-shot planner"
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Daemon or router Unix socket to connect to.")
  in
  (* HOST:PORT or PORT (on the loopback); a malformed target is a
     usage error *)
  let tcp_conv =
    let parse spec =
      let host, port_text =
        match String.rindex_opt spec ':' with
        | Some i ->
          ( String.sub spec 0 i,
            String.sub spec (i + 1) (String.length spec - i - 1) )
        | None -> ("127.0.0.1", spec)
      in
      match int_of_string_opt port_text with
      | None ->
        Error (Printf.sprintf "expected HOST:PORT or PORT, got '%s'" spec)
      | Some port -> (
        match host with
        | "" | "localhost" | "127.0.0.1" -> Ok ("127.0.0.1", port)
        | h -> (
          match Unix.inet_addr_of_string h with
          | addr -> Ok (Unix.string_of_inet_addr addr, port)
          | exception Failure _ ->
            Error (Printf.sprintf "bad host in '%s'" spec)))
    in
    let print ppf (host, port) = Format.fprintf ppf "%s:%d" host port in
    Arg.conv' ~docv:"HOST:PORT" (parse, print)
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:
            "TCP endpoint to connect to (a fleet router or a TCP worker). \
             Exclusive with $(b,--socket).")
  in
  let clients_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent connections in open-loop mode.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some (float_in ~docv:"R" Request.positive_float)) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Open-loop mode: send at R req/s with Poisson arrivals, split \
             over $(b,--clients) connections, never waiting for responses.")
  in
  let allow_shed_arg =
    let valid = List.map Serve_protocol.status_name Serve_protocol.statuses in
    Arg.(
      value
      & opt
          (list_conv ~docv:"STATUSES" ~nonempty:false (Request.one_of valid)
             Serve_protocol.status_of_name Serve_protocol.status_name)
          []
      & info [ "allow-shed" ] ~docv:"STATUSES"
          ~doc:
            "Comma-separated statuses (e.g. overloaded,unavailable) tolerated \
             without failing the run; dropped connections always fail.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some (output_path ~docv:"FILE" "a file path in an existing directory")) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write the load report (percentiles, statuses, workers) as JSON.")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for the Poisson arrival schedule.")
  in
  let count_arg =
    Arg.(
      value & opt non_negative_int 1000
      & info [ "count" ] ~docv:"N" ~doc:"Requests per repetition.")
  in
  let mix_arg =
    let of_name name =
      match Serve_protocol.op_of_name name with
      | Some ((Serve_protocol.Plan | Serve_protocol.Optimize) as op) -> Some op
      | Some _ | None -> None
    in
    Arg.(
      value
      & opt
          (list_conv ~docv:"OPS" ~nonempty:true (Request.one_of [ "plan"; "optimize" ])
             of_name Serve_protocol.op_name)
          [ Serve_protocol.Plan; Serve_protocol.Optimize ]
      & info [ "mix" ] ~docv:"OPS" ~doc:"Comma-separated operation cycle.")
  in
  let widths_arg =
    Arg.(
      value & opt widths_conv [ 16; 24; 32; 48 ]
      & info [ "widths" ] ~docv:"W1,W2,.." ~doc:"TAM widths cycled through.")
  in
  let weights_arg =
    Arg.(
      value & opt weights_conv [ 0.25; 0.5; 0.75 ]
      & info [ "weights" ] ~docv:"T1,T2,.." ~doc:"Time weights cycled through.")
  in
  let window_arg =
    Arg.(
      value & opt positive_int 32
      & info [ "window" ] ~docv:"N"
          ~doc:
            "In-flight pipeline depth; keep below the server queue to avoid \
             shedding.")
  in
  let repeat_arg =
    Arg.(
      value & opt non_negative_int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Replay the stream N times (2+ demonstrates the warm cache).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let verify_arg =
    Arg.(
      value & opt int 3
      & info [ "verify" ] ~docv:"K"
          ~doc:
            "Re-plan up to K distinct configurations locally and require \
             bit-identical results (0 disables).")
  in
  (* the .soc sent inline, read as every --soc is (Scan.read: a pipe
     too, at most Scan.max_bytes); a read error is one error line and
     exit 124, before any connect *)
  let soc_text_arg =
    let read = function
      | None -> `Ok None
      | Some path -> (
        match Msoc_itc02.Scan.read path with
        | text -> `Ok (Some text)
        | exception Sys_error m -> `Error (false, m))
    in
    Term.(ret (const read $ soc_file_arg))
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run_replay $ endpoint socket_arg tcp_arg $ count_arg $ mix_arg
      $ widths_arg $ weights_arg $ soc_text_arg $ analog_labels_arg
      $ window_arg $ repeat_arg $ deadline_arg $ verify_arg $ clients_arg
      $ rate_arg $ allow_shed_arg $ json_out_arg $ seed_arg)

(* --- bist --- *)

let run_bist bits mismatch_pct trials =
  let sigma = mismatch_pct /. 100.0 in
  Fmt.pr "Converter BIST: %d-bit modular pair, %.2f%% resistor mismatch@."
    bits mismatch_pct;
  let sample = Msoc_mixedsig.Yield.wrapper_for_die ~bits ~dac_mismatch_sigma:sigma ~seed:1 () in
  let r = Msoc_mixedsig.Bist.loopback_linearity sample in
  Fmt.pr "die 1 loopback: max code error %d, mean %.3f, monotonic %b -> %s@."
    r.Msoc_mixedsig.Bist.max_code_error r.Msoc_mixedsig.Bist.mean_abs_error
    r.Msoc_mixedsig.Bist.monotonic
    (if Msoc_mixedsig.Bist.passes r then "PASS" else "FAIL");
  Fmt.pr "self-test cost on a 4-wire TAM: %s cycles@."
    (Table.int_cell
       (Msoc_mixedsig.Bist.self_test_cycles ~bits ~tam_width:4 ()));
  let hist =
    Msoc_mixedsig.Bist.sine_histogram ~samples:60_000
      (Msoc_mixedsig.Wrapper.adc sample)
  in
  Fmt.pr "sine-histogram BIST: INL %.2f LSB, DNL %.2f LSB, %d missing codes@."
    hist.Msoc_mixedsig.Bist.inl_lsb hist.Msoc_mixedsig.Bist.dnl_lsb
    hist.Msoc_mixedsig.Bist.missing_codes;
  let die seed =
    Msoc_mixedsig.Bist.passes
      (Msoc_mixedsig.Bist.loopback_linearity
         (Msoc_mixedsig.Yield.wrapper_for_die ~bits ~dac_mismatch_sigma:sigma ~seed ()))
  in
  let y = Msoc_mixedsig.Yield.estimate ~trials ~die in
  Fmt.pr "yield over %d dies: %.1f%% (95%% CI %.1f-%.1f%%)@." trials
    (100.0 *. y.Msoc_mixedsig.Yield.yield)
    (100.0 *. y.Msoc_mixedsig.Yield.ci_low)
    (100.0 *. y.Msoc_mixedsig.Yield.ci_high)

let bist_cmd =
  let doc = "converter self-test: loopback linearity, cost, Monte-Carlo yield" in
  let bits =
    Arg.(
      value & opt (int_in Request.bits) 8
      & info [ "bits" ] ~docv:"N" ~doc:"Converter resolution (even, 4..16).")
  in
  let mismatch =
    Arg.(value & opt float 1.0 & info [ "mismatch" ] ~docv:"PCT" ~doc:"Resistor mismatch sigma in percent.")
  in
  let trials =
    Arg.(value & opt positive_int 50 & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo dies.")
  in
  Cmd.v (Cmd.info "bist" ~doc) Term.(const run_bist $ bits $ mismatch $ trials)

(* --- cosim --- *)

let run_cosim specs trials seed jobs bits samples tolerance_pct ideal as_json
    calibrate system_clock_mhz width weight_time soc_file analog_cores () =
  let module Testbench = Msoc_cosim.Testbench in
  let module Monte_carlo = Msoc_cosim.Monte_carlo in
  let module Calibrate = Msoc_cosim.Calibrate in
  let config = Request.config ~ideal ~bits ~samples () in
  (* the SOC is only planned when calibrating *)
  let s = setting ~width ~weight_time (if calibrate then soc_file else None) analog_cores in
  let c =
    { Request.specs; config; trials; seed; tolerance_pct; calibrate;
      system_clock_hz = system_clock_mhz *. 1.0e6 }
  in
  let { Request.results; sweeps; calibration } =
    Msoc_util.Pool.with_pool ~jobs (fun pool -> Request.cosim ~pool s c)
  in
  if as_json then begin
    let fields =
      [ ("results", Export.List (List.map Testbench.result_json results)) ]
      @ (match sweeps with
        | [] -> []
        | _ ->
          [
            ( "monte_carlo",
              Export.List
                (List.map
                   (fun (trials, summary) ->
                     match Monte_carlo.summary_json summary with
                     | Export.Object fields ->
                       Export.Object
                         (fields
                         @ [ ("trial_results", Monte_carlo.trials_json trials) ])
                     | other -> other)
                   sweeps) );
          ])
      @
      match calibration with
      | None -> []
      | Some (reports, plan) ->
        [
          ("calibration", Calibrate.calibration_json reports);
          ("calibrated_plan", Export.plan_json plan);
        ]
    in
    print_string (Export.pretty (Export.Object fields));
    print_newline ()
  end
  else begin
    Fmt.pr "Co-simulation: %d-bit wrapper, %d samples at %.3g MS/s%s@." bits
      samples
      (config.Testbench.fs /. 1.0e6)
      (if ideal then " (ideal converters)" else "");
    List.iter (fun r -> Fmt.pr "  %a@." Testbench.pp_result r) results;
    List.iter
      (fun (_, (s : Monte_carlo.summary)) ->
        Fmt.pr
          "  %-7s Monte-Carlo: %d trials seed %d -> yield %.1f%% (95%% CI \
           %.1f-%.1f%%), measured %.5g +/- %.3g, worst err %.2f%% [%.0f \
           trials/s]@."
          (Testbench.spec_name s.Monte_carlo.spec)
          s.Monte_carlo.trials s.Monte_carlo.seed
          (100.0 *. s.Monte_carlo.yield_frac)
          (100.0 *. s.Monte_carlo.ci_low)
          (100.0 *. s.Monte_carlo.ci_high)
          s.Monte_carlo.measured_mean s.Monte_carlo.measured_stddev
          s.Monte_carlo.error_pct_max s.Monte_carlo.trials_per_s)
      sweeps;
    match calibration with
    | None -> ()
    | Some (reports, plan) ->
      Fmt.pr "@.Calibrated test times (measured TAM cycles vs catalog):@.";
      List.iter
        (List.iter (fun (m : Calibrate.measured) ->
             Fmt.pr "  %-10s via %-6s nominal %8d -> measured %8d cycles \
                     (err %5.2f%%)%s@."
               m.Calibrate.test.Msoc_analog.Spec.name
               (Testbench.spec_name m.Calibrate.spec)
               m.Calibrate.test.Msoc_analog.Spec.cycles
               m.Calibrate.measured_cycles m.Calibrate.error_pct
               (if m.Calibrate.pass then "" else " FAIL")))
        reports;
      Fmt.pr "@.Plan over calibrated times:@.";
      print_string (Report.summary plan)
  end;
  match calibration with
  | None -> ()
  | Some (_, plan) ->
    report_verification ~context:"cosim --calibrate"
      (Msoc_check.Verify.plan plan)

let cosim_cmd =
  let module Testbench = Msoc_cosim.Testbench in
  let doc =
    "co-simulate a wrapped analog specification test (the DAC -> core -> \
     ADC path of Fig. 5, run as one batch pass) with optional Monte-Carlo \
     yield sweep and plan-time calibration"
  in
  let spec_arg =
    let of_name s =
      if String.lowercase_ascii s = "all" then Some Testbench.specs
      else Option.map (fun spec -> [ spec ]) (Testbench.spec_of_name s)
    in
    let print specs =
      if specs = Testbench.specs then "all"
      else String.concat "," (List.map Testbench.spec_name specs)
    in
    Arg.(
      value
      & opt
          (checked ~docv:"SPEC" (Request.one_of ("all" :: Testbench.spec_names)) of_name
             (pp_name print))
          [ Testbench.Fc ]
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "Specification test to co-simulate: gain, fc, thd, iip3, offset, \
             slew, dr, or 'all'.")
  in
  let trials_arg =
    Arg.(
      value
      & opt (int_in Request.trials) 0
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Monte-Carlo trials across process variation (0 = single \
             nominal run).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Master seed; each trial's die is a pure function of (seed, \
             trial), so sweeps are bit-identical at any $(b,--jobs).")
  in
  let bits_arg =
    Arg.(
      value
      & opt (int_in ~docv:"B" Request.bits) 8
      & info [ "bits" ] ~docv:"B"
          ~doc:"Wrapper converter resolution (even, 4..16).")
  in
  let samples_arg =
    let samples =
      Arg.(
        value
        & opt int Testbench.default.Testbench.samples
        & info [ "samples" ] ~docv:"N"
            ~doc:"Stimulus record length (16..1048576; from 65 with $(b,--spec) iip3).")
    in
    let check specs n =
      let range = Request.samples specs in
      if range.Request.ok n then `Ok n
      else `Error (true, "option '--samples': " ^ invalid_value range (string_of_int n))
    in
    Term.(ret (const check $ spec_arg $ samples))
  in
  let tolerance_arg =
    Arg.(
      value
      & opt (some (float_in ~docv:"PCT" Request.positive_float)) None
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:"Pass threshold on wrapped-vs-direct error (default per spec).")
  in
  let ideal_flag =
    Arg.(
      value & flag
      & info [ "ideal" ]
          ~doc:"Ideal converters: no mismatch, no comparator noise.")
  in
  let calibrate_flag =
    Arg.(
      value & flag
      & info [ "calibrate" ]
          ~doc:
            "Re-derive every catalog test's TAM-cycle length from the \
             co-simulation and re-plan the SOC over the measured times \
             (verified through $(b,Msoc_check)).")
  in
  let clock_arg =
    Arg.(
      value & opt (float_in ~docv:"MHZ" Request.positive_float) 78.0
      & info [ "system-clock" ] ~docv:"MHZ"
          ~doc:"SOC TAM clock for $(b,--calibrate) divide ratios.")
  in
  Cmd.v (Cmd.info "cosim" ~doc)
    (planning
       Term.(
         const run_cosim $ spec_arg $ trials_arg $ seed_arg $ jobs_arg $ bits_arg
         $ samples_arg $ tolerance_arg $ ideal_flag $ json_flag $ calibrate_flag
         $ clock_arg $ width_arg $ weight_time_arg $ soc_file_arg
         $ analog_labels_arg))

(* --- main --- *)

let () =
  let doc = "test planning for mixed-signal SOCs with wrapped analog cores" in
  let info = Cmd.info "msoc_plan" ~version:"1.0.0" ~doc in
  (* a parse error stays on one line, however long the offending value *)
  let err = Format.formatter_of_out_channel stderr in
  Format.pp_set_margin err 10_000;
  exit
    (Cmd.eval ~err
       (Cmd.group info
          [
            plan_cmd;
            check_cmd;
            explore_cmd;
            optimize_cmd;
            serve_cmd;
            fleet_cmd;
            replay_cmd;
            soc_info_cmd;
            sharing_cmd;
            generate_cmd;
            bist_cmd;
            cosim_cmd;
          ]))
