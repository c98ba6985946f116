(* Regeneration of the paper's Tables 1-4 (DATE'05, Sehgal et al.).
   Absolute values differ where the paper's inputs are unpublished
   (wrapper areas, the real p93791 netlist) — see DESIGN.md §3 and
   EXPERIMENTS.md; orderings and trends are the reproduction target. *)

module Table = Msoc_util.Ascii_table
module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Sharing = Msoc_analog.Sharing
module Area = Msoc_analog.Area
module Bounds = Msoc_analog.Bounds
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Exhaustive = Msoc_testplan.Exhaustive
module Cost_optimizer = Msoc_testplan.Cost_optimizer
module Instances = Msoc_testplan.Instances

let header title = Printf.printf "\n=== %s ===\n\n" title

let combinations = lazy (Sharing.paper_combinations Catalog.all)

(* ------------------------------------------------------------------ *)
(* Table 1: area overhead costs and normalized analog test time lower
   bounds for all 26 wrapper-sharing combinations.                     *)

let table1 () =
  header "Table 1: C_A and normalized T_LB for all wrapper-sharing combinations";
  let columns =
    [
      Table.column ~align:Table.Right "N_w";
      Table.column "combination";
      Table.column ~align:Table.Right "C_A";
      Table.column ~align:Table.Right "T_LB (cycles)";
      Table.column ~align:Table.Right "T_LB (norm)";
    ]
  in
  let rows =
    Lazy.force combinations
    |> List.map (fun c ->
           [
             string_of_int (Sharing.wrappers c);
             Sharing.short_name c;
             Table.float_cell (Area.cost_ca c);
             Table.int_cell (Bounds.lower_bound c);
             Table.float_cell (Bounds.normalized_lower_bound c);
           ])
  in
  Table.print ~columns ~rows;
  Printf.printf
    "\nPaper anchors: T_LB{A,C}=68.5, {A,B,C}=89.8, {A,B,C,E}=91.1, \
     {A,B,C,D}=98.7, full=100 (all matched).\n"

(* ------------------------------------------------------------------ *)
(* Table 2: analog core test requirements (input data, verbatim) plus
   the wrapper configuration each test implies.                        *)

let pp_hz f =
  if f = 0.0 then "DC"
  else if f >= 1.0e6 then Printf.sprintf "%gMHz" (f /. 1.0e6)
  else Printf.sprintf "%gkHz" (f /. 1.0e3)

let table2 () =
  header "Table 2: test requirements for the analog cores (+ derived wrapper config)";
  let system_clock_hz = 200.0e6 in
  let columns =
    [
      Table.column "core";
      Table.column "test";
      Table.column ~align:Table.Right "f_lo";
      Table.column ~align:Table.Right "f_hi";
      Table.column ~align:Table.Right "f_s";
      Table.column ~align:Table.Right "cycles";
      Table.column ~align:Table.Right "w";
      Table.column ~align:Table.Right "bits";
      Table.column ~align:Table.Right "divide";
      Table.column ~align:Table.Right "ser/par";
    ]
  in
  let rows =
    Catalog.all
    |> List.concat_map (fun (core : Spec.core) ->
           List.map
             (fun (t : Spec.test) ->
               let wrapper =
                 Msoc_mixedsig.Wrapper.configure_for_test
                   (Msoc_mixedsig.Wrapper.create
                      ~bits:(t.Spec.resolution_bits + (t.Spec.resolution_bits land 1))
                      ())
                   ~system_clock_hz t
               in
               let cfg = Msoc_mixedsig.Wrapper.config wrapper in
               [
                 Printf.sprintf "%s (%s)" core.Spec.label core.Spec.name;
                 t.Spec.name;
                 pp_hz t.Spec.f_low_hz;
                 pp_hz t.Spec.f_high_hz;
                 pp_hz t.Spec.f_sample_hz;
                 Table.int_cell t.Spec.cycles;
                 string_of_int t.Spec.tam_width;
                 string_of_int t.Spec.resolution_bits;
                 string_of_int cfg.Msoc_mixedsig.Wrapper.divide_ratio;
                 string_of_int cfg.Msoc_mixedsig.Wrapper.serial_to_parallel;
               ])
             core.Spec.tests)
  in
  Table.print ~columns ~rows;
  Printf.printf "\nTotal analog test time: %s cycles (wrapper control clock %s).\n"
    (Table.int_cell Catalog.total_time) (pp_hz system_clock_hz)

(* ------------------------------------------------------------------ *)
(* Table 3: normalized SOC test times on p93791m for every sharing
   combination at W = 32, 48, 64.                                      *)

let evaluate_all_at_width ~tam_width =
  let problem = Instances.p93791m ~tam_width () in
  let prepared = Evaluate.prepare problem in
  (prepared, Exhaustive.run prepared)

let table3 () =
  header "Table 3: normalized SOC test time (C_T) on p93791m, all combinations";
  let widths = [ 32; 48; 64 ] in
  let results = List.map (fun w -> (w, snd (evaluate_all_at_width ~tam_width:w))) widths in
  let columns =
    Table.column ~align:Table.Right "N_w"
    :: Table.column "combination"
    :: List.map (fun w -> Table.column ~align:Table.Right (Printf.sprintf "W=%d" w)) widths
  in
  let ct_for exh combo =
    let e =
      List.find
        (fun e -> Sharing.equal e.Evaluate.combination combo)
        exh.Exhaustive.all
    in
    e.Evaluate.c_t
  in
  let rows =
    Lazy.force combinations
    |> List.map (fun c ->
           string_of_int (Sharing.wrappers c)
           :: Sharing.short_name c
           :: List.map (fun (_, exh) -> Table.float_cell (ct_for exh c)) results)
  in
  Table.print ~columns ~rows;
  List.iter
    (fun (w, exh) ->
      let cts = List.map (fun e -> e.Evaluate.c_t) exh.Exhaustive.all in
      let lo = List.fold_left Float.min infinity cts
      and hi = List.fold_left Float.max 0.0 cts in
      Printf.printf
        "W=%d: spread (max-min) = %.2f; best combination %s at C_T=%.2f\n" w
        (hi -. lo)
        (Sharing.short_name
           (List.fold_left
              (fun acc e -> if e.Evaluate.c_t < acc.Evaluate.c_t then e else acc)
              (List.hd exh.Exhaustive.all) exh.Exhaustive.all)
             .Evaluate.combination)
        lo)
    results;
  Printf.printf
    "Paper trend: spread grows with W (2.45 @32, 7.36 @48, 17.18 @64) because \
     digital time shrinks while analog serial time is fixed.\n"

(* ------------------------------------------------------------------ *)
(* Table 4: Cost_Optimizer vs exhaustive evaluation.                   *)

let table4 () =
  header "Table 4: Cost_Optimizer heuristic vs exhaustive evaluation (p93791m)";
  let weight_settings = [ (0.5, 0.5); (0.25, 0.75); (0.75, 0.25) ] in
  let widths = [ 32; 40; 48; 56; 64 ] in
  let columns =
    [
      Table.column ~align:Table.Right "w_T";
      Table.column ~align:Table.Right "w_A";
      Table.column ~align:Table.Right "W";
      Table.column ~align:Table.Right "C_exh";
      Table.column ~align:Table.Right "N_exh";
      Table.column "S_exh";
      Table.column ~align:Table.Right "C_heur";
      Table.column ~align:Table.Right "N_heur";
      Table.column "S_heur";
      Table.column ~align:Table.Right "dN (%)";
      Table.column ~align:Table.Right "t_exh (ms)";
      Table.column ~align:Table.Right "t_heur (ms)";
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (w_t, w_a) ->
      List.iter
        (fun tam_width ->
          let problem = Instances.p93791m ~weight_time:w_t ~tam_width () in
          (* Each search gets its own, untimed prepare: a shared one
             would hand the second search the first one's schedule memo. *)
          let cold_run search =
            let prepared = Evaluate.prepare problem in
            let t0 = Sys.time () in
            let result = search prepared in
            (result, Sys.time () -. t0)
          in
          let exh, t_exh = cold_run (fun p -> Exhaustive.run p) in
          let heur, t_heur = cold_run (fun p -> Cost_optimizer.run p) in
          rows :=
            [
              Table.float_cell ~decimals:2 w_t;
              Table.float_cell ~decimals:2 w_a;
              string_of_int tam_width;
              Table.float_cell exh.Exhaustive.best.Evaluate.cost;
              string_of_int exh.Exhaustive.evaluations;
              Sharing.short_name exh.Exhaustive.best.Evaluate.combination;
              Table.float_cell heur.Cost_optimizer.best.Evaluate.cost;
              string_of_int heur.Cost_optimizer.evaluations;
              Sharing.short_name heur.Cost_optimizer.best.Evaluate.combination;
              Table.float_cell
                (Cost_optimizer.evaluation_reduction_pct heur ~exhaustive:exh);
              Table.float_cell ~decimals:2 (1000.0 *. t_exh);
              Table.float_cell ~decimals:2 (1000.0 *. t_heur);
            ]
            :: !rows)
        widths)
    weight_settings;
  Table.print ~columns ~rows:(List.rev !rows);
  Printf.printf
    "\nPaper: N_exh=26, N_heur=10 (61.5%% fewer evaluations), heuristic optimal \
     in all but one case; CPU 6 min vs 20 min on a Sun Ultra 5/10.\n"
