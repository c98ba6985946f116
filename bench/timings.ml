(* Bechamel micro-benchmarks: one Test.make per reproduced table /
   figure, timing the computational kernel that regenerates it, plus
   the Design_wrapper staircases every plan starts from, one
   co-simulated Fig. 5 record, a serial Monte-Carlo run of it (one
   program, twenty dies), the two kernels that record spends most
   of its time in (a spectrum, one-shot and through a built analyzer,
   and a pipeline ADC pass), the two
   anytime search strategies on their own and branch-and-bound with
   its packs. The paper's own CPU-time
   claim (heuristic 6 min vs exhaustive 20 min on a Sun Ultra) maps to
   the table4 pair below. *)

open Bechamel
open Toolkit

module Evaluate = Msoc_testplan.Evaluate
module Exhaustive = Msoc_testplan.Exhaustive
module Cost_optimizer = Msoc_testplan.Cost_optimizer
module Instances = Msoc_testplan.Instances
module Sharing = Msoc_analog.Sharing
module Catalog = Msoc_analog.Catalog

let tests () =
  (* Inputs are built outside the staged closures so each benchmark
     times only its own kernel. table3 packs a hoisted job set directly:
     an evaluation on a shared prepared structure would read the
     schedule memo after its first run. The table4 searches prepare
     inside the closure for the same reason. *)
  let p93791s = Msoc_itc02.Synthetic.p93791s () in
  let problem32 = Instances.p93791m ~tam_width:32 () in
  let jobs32 =
    Evaluate.jobs_for_problem problem32 (Sharing.no_sharing Catalog.all)
  in
  let combos = Sharing.paper_combinations Catalog.all in
  let staircases =
    Test.make ~name:"design_wrapper:staircases (p93791s, 32 cores, W=64)"
      (Staged.stage (fun () ->
           List.iter
             (fun core -> ignore (Msoc_wrapper.Pareto.staircase core ~max_width:64))
             p93791s.Msoc_itc02.Types.cores))
  in
  let table1 =
    Test.make ~name:"table1:area+bounds (26 combos)"
      (Staged.stage (fun () ->
           List.iter
             (fun c ->
               ignore (Msoc_analog.Area.cost_ca c);
               ignore (Msoc_analog.Bounds.normalized_lower_bound c))
             combos))
  in
  let table2 =
    Test.make ~name:"table2:wrapper configuration (16 tests)"
      (Staged.stage (fun () ->
           List.iter
             (fun (core : Msoc_analog.Spec.core) ->
               List.iter
                 (fun t ->
                   ignore
                     (Msoc_mixedsig.Wrapper.configure_for_test
                        (Msoc_mixedsig.Wrapper.create ~bits:10 ())
                        ~system_clock_hz:200.0e6 t))
                 core.Msoc_analog.Spec.tests)
             Catalog.all))
  in
  let table3 =
    Test.make ~name:"table3:one certified pack (W=32, no sharing)"
      (Staged.stage (fun () ->
           ignore
             (Msoc_tam.Packer_registry.pack Msoc_tam.Packer_registry.default
                ~width:32 jobs32)))
  in
  let table4_exhaustive =
    Test.make ~name:"table4:exhaustive search (W=32, cold, incl. prepare)"
      (Staged.stage (fun () -> ignore (Exhaustive.run (Evaluate.prepare problem32))))
  in
  let table4_heuristic =
    Test.make ~name:"table4:Cost_Optimizer (W=32, cold, incl. prepare)"
      (Staged.stage (fun () -> ignore (Cost_optimizer.run (Evaluate.prepare problem32))))
  in
  (* The search layer alone: 14 scaled analog cores are past the
     enumeration guard, and a prepared structure whose schedule memo
     already holds every schedule a 24-evaluation search reaches packs
     nothing, so these time branch-and-bound's tree and the annealing
     walk with their memo-hit evaluations. *)
  let search_prepared =
    Evaluate.prepare
      (Instances.with_analog ~tam_width:32 ~analog_cores:(Instances.scaled_analog ~n:14) ())
  in
  let search_budget = Msoc_search.Budget.make ~max_evals:24 () in
  let bnb () = ignore (Msoc_search.Bnb.run ~budget:search_budget search_prepared) in
  let anneal () =
    ignore (Msoc_search.Anneal.run ~budget:search_budget ~seed:1 search_prepared)
  in
  bnb ();
  anneal ();
  let search_bnb =
    Test.make ~name:"search:bnb tree (p93791s + 14 scaled analog, W=32, warm memo)"
      (Staged.stage bnb)
  in
  let search_anneal =
    Test.make ~name:"search:anneal walk (p93791s + 14 scaled analog, W=32, warm memo)"
      (Staged.stage anneal)
  in
  (* The same branch-and-bound search on a fresh prepared structure:
     every schedule it evaluates is a certified pack. *)
  let search_bnb_cold =
    Test.make
      ~name:"search:bnb, cold memo (p93791s + 14 scaled analog, W=32, 24 evaluations)"
      (Staged.stage (fun () ->
           ignore
             (Msoc_search.Strategy.run ~budget:search_budget Msoc_search.Strategy.Bnb
                (Evaluate.prepare (Evaluate.problem search_prepared)))))
  in
  let cosim_fc =
    Test.make ~name:"cosim:Testbench.run fc (default config)"
      (Staged.stage (fun () -> ignore (Msoc_cosim.Testbench.run Msoc_cosim.Testbench.Fc)))
  in
  let cosim_mc_fc =
    Test.make ~name:"cosim:Monte_carlo.run fc (20 trials, serial)"
      (Staged.stage (fun () ->
           ignore (Msoc_cosim.Monte_carlo.run ~trials:20 ~seed:1 Msoc_cosim.Testbench.Fc)))
  in
  (* The Fig. 5 record: the fc program's three tones around the 2 V
     bias, 4551 samples at 1.7 MS/s, through the default die's ADC. *)
  let fig5_record =
    let fs = 1.7e6 in
    Msoc_signal.Tone.sample ~fs ~n:4551
      ~tones:
        (List.map
           (fun hz ->
             Msoc_signal.Tone.tone ~amplitude:0.6
               (Msoc_signal.Tone.coherent_freq ~fs ~n:8192 hz))
           [ 20_000.0; 60_000.0; 150_000.0 ])
    |> Array.map (fun v -> v +. 2.0)
  in
  let fig5_adc =
    Msoc_mixedsig.Wrapper.adc
      (Msoc_mixedsig.Variation.wrapper
         Msoc_cosim.Testbench.default.Msoc_cosim.Testbench.variation)
  in
  let spectrum =
    Test.make ~name:"signal:Spectrum.analyze (4551 -> 8192, Hann)"
      (Staged.stage (fun () ->
           ignore (Msoc_signal.Spectrum.analyze ~fs:1.7e6 ~pad_to:8192 fig5_record)))
  in
  (* The same spectrum through an analyzer built once, as a Monte-Carlo
     program reads it: the window and the FFT plan are outside the
     timed closure. *)
  let planned_spectrum =
    let analyzer = Msoc_signal.Spectrum.analyzer ~fs:1.7e6 ~pad_to:8192 4551 in
    Test.make ~name:"signal:Spectrum.analyzer, planned (4551 -> 8192, Hann)"
      (Staged.stage (fun () -> ignore (analyzer fig5_record)))
  in
  let adc =
    Test.make ~name:"mixedsig:Adc.convert_all (8-bit pipeline, 4551 samples)"
      (Staged.stage (fun () -> ignore (Msoc_mixedsig.Adc.convert_all fig5_adc fig5_record)))
  in
  Test.make_grouped ~name:"msoc"
    [
      staircases; table1; table2; table3; table4_exhaustive; table4_heuristic;
      search_bnb; search_anneal; search_bnb_cold; cosim_fc; cosim_mc_fc; spectrum;
      planned_spectrum; adc;
    ]

let run () =
  Printf.printf "\n=== Bechamel timings (one benchmark per table/figure) ===\n\n";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> est
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let columns =
    [
      Msoc_util.Ascii_table.column "benchmark";
      Msoc_util.Ascii_table.column ~align:Msoc_util.Ascii_table.Right "time/run";
    ]
  in
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1.0e9 then Printf.sprintf "%.2f s" (ns /. 1.0e9)
    else if ns > 1.0e6 then Printf.sprintf "%.2f ms" (ns /. 1.0e6)
    else if ns > 1.0e3 then Printf.sprintf "%.2f us" (ns /. 1.0e3)
    else Printf.sprintf "%.0f ns" ns
  in
  Msoc_util.Ascii_table.print ~columns
    ~rows:(List.map (fun (name, ns) -> [ name; pretty ns ]) rows)
