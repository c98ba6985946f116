(* What every workload receives and returns, and the op loop they all
   share. *)

module Export = Msoc_testplan.Export

type ctx = {
  seed : int;
  seconds : float;  (* sets the op count, never the stop time *)
  traced : bool;
  smoke : bool;  (* a handful of ops: proves the harness, measures nothing *)
  root : string;  (* checkout root: data/ and the built daemon *)
}

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type outcome = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  digest : string;
  params : (string * Export.json) list;  (* op counts and parameters *)
}

(* The default run length; BENCHMARK.json's run_seconds. *)
let default_seconds = 15.0

(* [n] scaled from the default run length to this one. *)
let scaled ctx n =
  max 1 (int_of_float (Float.round (float_of_int n *. ctx.seconds /. default_seconds)))

(* The op count is a fixed function of [seconds]: whole rounds of a
   workload's grid, [default] rounds in a default-length run (sized when
   the benchmark was defined to take about that long) and proportionally
   more or fewer otherwise. A faster commit runs the same ops in less
   time; it never runs different ops. A traced run makes two passes
   (untraced, then traced) over half the rounds. *)
let rounds ctx ~default =
  if ctx.smoke then 1
  else
    let full = scaled ctx default in
    if ctx.traced then max 1 ((full + 1) / 2) else full

(* --- host speed --- *)

(* A shared host runs this process faster or slower by up to a half,
   in phases of a fraction of a second to minutes, and memory-heavy code
   such as this program is hit the most. So a pass times the fixed
   reference kernel {!Measure.ref_kernel_ms}, untimed, before every op
   and once after the last, and scales each op's times by the kernel's
   nominal time over the median of the four samples around it (two
   before, two after): what the op would take on the host the benchmark
   was defined on. *)
let kernel_samples = ref []

let sample_host () =
  let ms = Measure.ref_kernel_ms () in
  kernel_samples := ms :: !kernel_samples;
  ms

let kernel_median_ms () = Measure.median (Array.of_list !kernel_samples)

type 'r pass = {
  setup_ms : float array;  (* the set-up before each attempted op *)
  lat_ms : float array;  (* every attempted op, in order *)
  kernel_ms : float array;  (* sample i: before op i; the last: after the pass *)
  results : 'r option array;  (* [None]: the op raised or failed its check *)
  failed : int;
  gc : Measure.gc;  (* summed over the op calls only *)
}

(* [times] (one per op of [p]) scaled op by op to the nominal host. *)
let host_scaled p times =
  let last = Array.length p.kernel_ms - 1 in
  Array.mapi
    (fun i ms ->
      let first = max 0 (i - 1) and stop = min last (i + 2) in
      let around = Array.sub p.kernel_ms first (stop - first + 1) in
      ms *. Measure.ratio Measure.ref_kernel_nominal_ms (Measure.median around))
    times

(* Runs every op once, in order. Before each op, untimed: a host
   sample, then a full collection, as a one-shot run starts from a fresh
   heap, so no op pays for the garbage of the ops before it and the
   seed's op order does not move the times. Then [session op f] sets up
   what the op runs against and calls [f] on it; the time from calling
   [session] until it calls [f] is the op's set-up. Only the op call is
   timed and counted for allocation; its output check and any
   traced-only probe run after it. The check returns what the workload
   keeps of the output, so large intermediate structures are dropped op
   by op and the heap does not grow with the op count. An op that
   raises, fails its check or whose probe raises counts as failed. *)
let run_pass ~traced ~ops ~session ~run ~check ~probe =
  Trace.enabled := traced;
  let n = Array.length ops in
  let setup_ms = Array.make n 0.0 and lat_ms = Array.make n 0.0 in
  let kernel_ms = Array.make (n + 1) 0.0 in
  let results = Array.make n None in
  let failed = ref 0 in
  let gc = ref Measure.gc_zero in
  let fail i msg =
    incr failed;
    Printf.eprintf "op %d failed: %s\n%!" i msg
  in
  Array.iteri
    (fun i op ->
      kernel_ms.(i) <- sample_host ();
      Gc.compact ();
      let t_setup = Measure.now () in
      let r =
        match
          session op (fun s ->
              setup_ms.(i) <- Measure.ms_since t_setup;
              let g0 = Measure.gc () in
              let t0 = Measure.now () in
              Fun.protect
                ~finally:(fun () ->
                  lat_ms.(i) <- Measure.ms_since t0;
                  gc := Measure.gc_add !gc (Measure.gc_diff g0 (Measure.gc ())))
                (fun () -> Trace.op i (fun () -> run s op)))
        with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      match r with
      | Error msg -> fail i msg
      | Ok r -> (
        match check op r with
        | Error msg -> fail i ("output check: " ^ msg)
        | Ok kept -> (
          match if traced then probe op r with
          | () -> results.(i) <- Some kept
          | exception e -> fail i ("probe: " ^ Printexc.to_string e))))
    ops;
  kernel_ms.(n) <- sample_host ();
  Trace.enabled := false;
  { setup_ms; lat_ms; kernel_ms; results; failed = !failed; gc = !gc }

(* The in-process workloads: [setup ()] builds the workload's inputs
   (the ops) and is repeated, its result dropped, before every op, so
   [setup_s] is a median over as many set-ups as there are ops.
   [untraced] always runs; a traced run adds a second pass over the
   same ops with spans and probes on. *)
let passes ctx ~setup ~ops ~run ~check ~probe =
  let session _ f =
    ignore (Sys.opaque_identity (setup ()));
    f ()
  in
  let run () op = run op in
  let untraced = run_pass ~traced:false ~ops ~session ~run ~check ~probe in
  let traced =
    if ctx.traced then begin
      Trace.reset ();
      Some (run_pass ~traced:true ~ops ~session ~run ~check ~probe)
    end
    else None
  in
  (untraced, traced)

let ok_results p = List.filter_map Fun.id (Array.to_list p.results)

let attempted (untraced, traced) =
  Array.length untraced.lat_ms
  + Option.fold ~none:0 ~some:(fun p -> Array.length p.lat_ms) traced

let failed (untraced, traced) =
  untraced.failed + Option.fold ~none:0 ~some:(fun p -> p.failed) traced

(* --- metrics every in-process workload reports --- *)

(* Every time is scaled to the nominal host ([host_scaled]): throughput
   is the ops over their summed op time, the latencies are Harrell-Davis
   quantiles of the op times, and [setup_s] is the median set-up. *)
let end_to_end p =
  let lat_ms = host_scaled p p.lat_ms in
  let n = Array.length lat_ms in
  [
    metric "ops_per_s" "op/s" (Measure.ratio (float_of_int n) (Measure.sum lat_ms /. 1e3));
    metric "latency_p50_ms" "ms" (Measure.hd_quantile lat_ms 0.5);
    metric "latency_p90_ms" "ms" (Measure.hd_quantile lat_ms 0.9);
    metric "setup_s" "s" (Measure.median (host_scaled p p.setup_ms) /. 1e3);
    metric "peak_rss_mb" "MB" (Measure.peak_rss_mb ());
    metric "alloc_mw_per_op" "Mw" (Measure.per n p.gc.Measure.minor /. 1e6);
  ]

let gc_metrics (g : Measure.gc) ~ops =
  [
    metric "gc.minor_mw_per_op" "Mw" (Measure.per ops g.Measure.minor /. 1e6);
    metric "gc.major_mw_per_op" "Mw" (Measure.per ops g.Measure.major /. 1e6);
    metric "gc.major_collections_per_op" "count"
      (Measure.per ops (float_of_int g.Measure.major_collections));
  ]

(* Tracing cost: the traced pass's op time against the untraced pass's
   over the same ops. *)
let trace_metrics untraced traced =
  [
    metric "trace.overhead_pct" "%"
      (100.0
      *. Measure.ratio
           (Measure.sum traced.lat_ms -. Measure.sum untraced.lat_ms)
           (Measure.sum untraced.lat_ms));
    metric "trace.coverage_pct" "%" (Trace.coverage_pct ());
  ]

(* --- TAM-optimizer work, for the planning workloads --- *)

type tam = { packs : int; rebuilds : int; reused : int; placed : int }

(* [f ()] and the TAM-optimizer work it issued: packs, and the
   incremental repack engine's full rebuilds and reused / placed jobs
   (process-wide counters, read around the call). *)
let counting_tam f =
  let packs0 = Msoc_testplan.Evaluate.total_packs () in
  let r0 = Msoc_tam.Packer.repack_totals () in
  let v = f () in
  let r1 = Msoc_tam.Packer.repack_totals () in
  ( v,
    {
      packs = Msoc_testplan.Evaluate.total_packs () - packs0;
      rebuilds = r1.Msoc_tam.Packer.full_rebuilds - r0.Msoc_tam.Packer.full_rebuilds;
      reused = r1.Msoc_tam.Packer.jobs_reused - r0.Msoc_tam.Packer.jobs_reused;
      placed = r1.Msoc_tam.Packer.jobs_placed - r0.Msoc_tam.Packer.jobs_placed;
    } )

let tam_metrics tams =
  let n = List.length tams in
  let sum f = float_of_int (List.fold_left (fun acc t -> acc + f t) 0 tams) in
  [
    metric "tam.packs_per_op" "count" (Measure.per n (sum (fun t -> t.packs)));
    metric "tam.full_rebuilds_per_op" "count" (Measure.per n (sum (fun t -> t.rebuilds)));
    metric "tam.prefix_reuse_ratio" "ratio"
      (Measure.ratio (sum (fun t -> t.reused)) (sum (fun t -> t.reused + t.placed)));
  ]

let digest_of buf = Digest.to_hex (Digest.string (Buffer.contents buf))
