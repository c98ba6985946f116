module Variation = Msoc_mixedsig.Variation
module Yield = Msoc_mixedsig.Yield
module Pool = Msoc_util.Pool
module Export = Msoc_testplan.Export

type trial = {
  index : int;
  variation : Variation.t;
  measured : float;
  direct : float;
  error_pct : float;
  pass : bool;
}

type summary = {
  spec : Testbench.spec;
  seed : int;
  trials : int;
  passes : int;
  yield_frac : float;
  ci_low : float;
  ci_high : float;
  measured_mean : float;
  measured_stddev : float;
  measured_min : float;
  measured_max : float;
  error_pct_mean : float;
  error_pct_max : float;
  elapsed_s : float;
  trials_per_s : float;
}

(* A ceiling for sweeps from outside the program, as
   [Testbench.max_samples] is for records: the index list and the
   results are built before the summary, so a billion trials would ask
   for tens of GB before the first one ran. *)
let max_trials = 100_000

let check_trials name trials =
  if trials < 1 || trials > max_trials then
    invalid_arg (Printf.sprintf "Monte_carlo.%s: trials in 1..%d, got %d" name max_trials trials)

(* At most [jobs] contiguous runs of the indices 1..[trials], in
   order, their lengths at most one apart. *)
let chunks ~jobs trials =
  let jobs = min jobs trials in
  List.init jobs (fun c -> ((c * trials / jobs) + 1, (c + 1) * trials / jobs))

(* Every domain that runs trials owns one workspace: the serial loop
   one, a pool one per contiguous chunk of trials, built inside the
   chunk's task. The program is only read, and the chunks join back in
   index order. *)
let run_program ?ranges ?pool ~trials ~seed program =
  check_trials "run_program" trials;
  let t0 = Msoc_util.Clock.now () in
  let spec = Testbench.program_spec program in
  let chunk (first, last) =
    let ws = Testbench.workspace program in
    List.init (last - first + 1) (fun i ->
        let index = first + i in
        let variation = Variation.sample ?ranges ~master:seed ~trial:index () in
        let r = Testbench.run_trial ws variation in
        {
          index;
          variation;
          measured = r.Testbench.measured;
          direct = r.Testbench.direct;
          error_pct = r.Testbench.error_pct;
          pass = r.Testbench.pass;
        })
  in
  let results =
    match pool with
    | Some pool -> List.concat (Pool.map pool chunk (chunks ~jobs:(Pool.jobs pool) trials))
    | None -> chunk (1, trials)
  in
  let elapsed_s = Msoc_util.Clock.now () -. t0 in
  let passes = List.length (List.filter (fun t -> t.pass) results) in
  let ci_low, ci_high = Yield.wilson_interval ~trials ~passes in
  let values = List.map (fun t -> t.measured) results in
  let n = float_of_int trials in
  let measured_mean = List.fold_left ( +. ) 0.0 values /. n in
  let measured_stddev =
    if trials = 1 then 0.0
    else
      Float.sqrt
        (List.fold_left
           (fun acc v -> acc +. ((v -. measured_mean) ** 2.0))
           0.0 values
        /. (n -. 1.0))
  in
  let summary =
    {
      spec;
      seed;
      trials;
      passes;
      yield_frac = float_of_int passes /. n;
      ci_low;
      ci_high;
      measured_mean;
      measured_stddev;
      measured_min = List.fold_left Float.min Float.infinity values;
      measured_max = List.fold_left Float.max Float.neg_infinity values;
      error_pct_mean =
        List.fold_left (fun acc t -> acc +. t.error_pct) 0.0 results /. n;
      error_pct_max =
        List.fold_left (fun acc t -> Float.max acc t.error_pct) 0.0 results;
      elapsed_s;
      trials_per_s = (if elapsed_s > 0.0 then n /. elapsed_s else 0.0);
    }
  in
  (results, summary)

let run ?ranges ?(config = Testbench.default) ?tolerance_pct ?pool ~trials
    ~seed spec =
  check_trials "run" trials;
  run_program ?ranges ?pool ~trials ~seed (Testbench.program ?tolerance_pct config spec)

let summary_json s =
  Export.Object
    [
      ("spec", Export.String (Testbench.spec_name s.spec));
      ("seed", Export.Int s.seed);
      ("trials", Export.Int s.trials);
      ("passes", Export.Int s.passes);
      ("yield", Export.Float s.yield_frac);
      ("ci_low", Export.Float s.ci_low);
      ("ci_high", Export.Float s.ci_high);
      ("measured_mean", Export.Float s.measured_mean);
      ("measured_stddev", Export.Float s.measured_stddev);
      ("measured_min", Export.Float s.measured_min);
      ("measured_max", Export.Float s.measured_max);
      ("error_pct_mean", Export.Float s.error_pct_mean);
      ("error_pct_max", Export.Float s.error_pct_max);
      ( "timing",
        Export.Object
          [
            ("elapsed_s", Export.Float s.elapsed_s);
            ("trials_per_s", Export.Float s.trials_per_s);
          ] );
    ]

let trials_json trials =
  Export.List
    (List.map
       (fun t ->
         Export.Object
           ([
              ("trial", Export.Int t.index);
              ("measured", Export.Float t.measured);
              ("direct", Export.Float t.direct);
              ("error_pct", Export.Float t.error_pct);
              ("pass", Export.Bool t.pass);
            ]
           @ List.map
               (fun (k, v) -> (k, Export.Float v))
               (Variation.fields t.variation)))
       trials)
