(* Every metric the benchmark prints, with its unit. BENCHMARK.json
   lists the same names and units; the smoke test checks that they
   agree. An untraced run prints every end-to-end metric and a traced
   run every per-layer metric, on every workload: a per-layer metric a
   workload has no layer for reads 0. *)

let end_to_end =
  [
    ("ops_per_s", "op/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("alloc_mw_per_op", "Mw");
  ]

let per_layer =
  [
    ("itc02.load_ms", "ms");
    ("wrapper.staircase_ms", "ms");
    ("tam.pack_ms", "ms");
    ("tam.packs_per_op", "count");
    ("tam.full_rebuilds_per_op", "count");
    ("tam.prefix_reuse_ratio", "ratio");
    ("testplan.prepare_ms", "ms");
    ("testplan.plan_ms", "ms");
    ("testplan.export_ms", "ms");
    ("testplan.memo_hit_ratio", "ratio");
    ("testplan.exhaustive_evals", "count");
    ("testplan.evals_per_op", "count");
    ("testplan.cost_gap_pct", "%");
    ("testplan.plan_cost_mean", "cost");
    ("check.verify_ms", "ms");
    ("check.error_diagnostics", "count");
    ("search.run_ms", "ms");
    ("search.nodes_expanded_per_op", "count");
    ("search.prune_ratio", "ratio");
    ("search.moves_per_op", "count");
    ("search.accept_ratio", "ratio");
    ("search.memo_hit_ratio", "ratio");
    ("search.evals_to_best_ratio", "ratio");
    ("serve.plan_miss_ms", "ms");
    ("serve.plan_memory_ms", "ms");
    ("serve.plan_reweight_ms", "ms");
    ("serve.optimize_delta_ms", "ms");
    ("serve.optimize_bnb_ms", "ms");
    ("serve.cosim_ms", "ms");
    ("serve.explore_ms", "ms");
    ("serve.plan_disk_ms", "ms");
    ("serve.wait_ms_p50", "ms");
    ("serve.wait_ms_p90", "ms");
    ("serve.packs_per_op", "count");
    ("cosim.trial_ms", "ms");
    ("cosim.events_per_trial", "count");
    ("cosim.peak_queue", "count");
    ("cosim.tam_cycles_per_trial", "count");
    ("cosim.ns_per_event", "ns");
    ("cosim.sim_err_pct", "%");
    ("gc.minor_mw_per_op", "Mw");
    ("gc.major_mw_per_op", "Mw");
    ("gc.major_collections_per_op", "count");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
    ("host.ref_kernel_ms", "ms");
  ]

(* [measured] in catalog order. With [fill], catalog entries a workload
   does not measure read 0; without it they are a bug.
   @raise Invalid_argument on a missing metric, or on a name or unit
   the catalog does not list — a benchmark bug, never a measurement. *)
let complete ~fill catalog (measured : Workload.metric list) =
  List.iter
    (fun (m : Workload.metric) ->
      match List.assoc_opt m.Workload.name catalog with
      | Some unit when unit = m.Workload.unit -> ()
      | Some unit ->
        invalid_arg
          (Printf.sprintf "metric %s in %s, catalog says %s" m.Workload.name
             m.Workload.unit unit)
      | None -> invalid_arg ("metric not in the catalog: " ^ m.Workload.name))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Workload.metric) -> m.Workload.name = name) measured with
      | Some m -> m
      | None when fill -> Workload.metric name unit 0.0
      | None -> invalid_arg ("metric not measured: " ^ name))
    catalog
