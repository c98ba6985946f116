module Export = Msoc_testplan.Export
module Fingerprint = Msoc_testplan.Fingerprint
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Pool = Msoc_util.Pool
module Registry = Msoc_tam.Packer_registry

(* Small LRU of prepared structures: key = Fingerprint.structure_hex.
   8 resident SOC structures cover any realistic sweep workload while
   bounding memory (each holds a full schedule memo cache). *)
let max_prepared = 8

type t = {
  pool : Pool.t;
  cache : Cache.t;
  metrics : Metrics.t;
  worker : string option;  (* stamped on every response envelope *)
  prepared : (string, Evaluate.prepared) Hashtbl.t;
  mutable prepared_order : string list;  (* most recent first *)
  mutable stop : bool;
}

let create ?cache ?metrics ?worker ?(jobs = 1) () =
  {
    pool = Pool.create ~jobs;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    worker;
    prepared = Hashtbl.create max_prepared;
    prepared_order = [];
    stop = false;
  }

let metrics t = t.metrics

let cache t = t.cache

let jobs t = Pool.jobs t.pool

let shutdown_requested t = t.stop

let request_shutdown t = t.stop <- true

let shutdown t = Pool.shutdown t.pool

(* --- prepared-structure reuse --- *)

let prepared_for t packer problem =
  (* The schedule memo depends on the packing heuristic, so each
     variant gets its own resident prepared structure. *)
  let skey = Fingerprint.structure_hex problem ^ "#" ^ Registry.name packer in
  let prepared =
    match Hashtbl.find_opt t.prepared skey with
    | Some prepared when Problem.same_structure (Evaluate.problem prepared) problem ->
      Evaluate.reweight prepared problem
    | _ ->
      let prepared = Evaluate.prepare ~packer problem in
      Hashtbl.replace t.prepared skey prepared;
      prepared
  in
  t.prepared_order <- skey :: List.filter (fun k -> k <> skey) t.prepared_order;
  (match List.filteri (fun i _ -> i >= max_prepared) t.prepared_order with
  | [] -> ()
  | evicted ->
    List.iter (Hashtbl.remove t.prepared) evicted;
    t.prepared_order <- List.filteri (fun i _ -> i < max_prepared) t.prepared_order);
  prepared

let stats_result t =
  Export.Object
    [
      ("metrics", Metrics.snapshot_json t.metrics);
      ("cache", Cache.stats_json t.cache);
      ( "engine",
        Export.Object
          [
            ("jobs", Export.Int (Pool.jobs t.pool));
            ("prepared_structures", Export.Int (Hashtbl.length t.prepared));
          ] );
    ]

(* --- dispatch --- *)

(* The result cache key: the request's problem, op and search, plus
   the op's plan-determining extras. A non-default packer joins them,
   so its results never answer (or are answered by) a best_fit
   request; the default, named or omitted, keeps the legacy key. A
   strategy's declared budget and the request deadline shape its
   anytime result, so they join too: an anneal incumbent must never
   answer a bnb request, nor a tightly budgeted run an unbudgeted one.
   Explore sweeps are never cached. *)
let cache_key ?deadline_ms (r : Request.t) =
  let key op (s : Request.setting) fields =
    let fields =
      if Registry.name s.packer = Registry.name Registry.default then fields
      else fields @ [ ("packer", Export.String (Registry.name s.packer)) ]
    in
    let extra = if fields = [] then None else Some (Export.Object fields) in
    Some (Fingerprint.request_hex ?extra ~op ~search:s.search (Request.problem s))
  in
  match r with
  | Request.Plan s -> key "plan" s []
  | Request.Optimize (s, None) -> key "optimize" s []
  | Request.Optimize (s, Some { kind; max_evals; budget_ms }) ->
    key "optimize" s
      ((match Msoc_search.Strategy.request_json ?max_evals ?time_limit_ms:budget_ms kind with
       | Export.Object fields -> fields
       | _ -> [])
      @ Option.fold deadline_ms ~none:[] ~some:(fun ms -> [ ("deadline_ms", Export.Float ms) ]))
  | Request.Explore _ -> None
  | Request.Cosim (s, c) ->
    (* the co-sim result is a pure function of (problem, cosim knobs) *)
    let specs = String.concat "," (List.map Msoc_cosim.Testbench.spec_name c.specs) in
    key "cosim" s
      ([ ("spec", Export.String specs); ("trials", Export.Int c.trials);
         ("seed", Export.Int c.seed); ("bits", Export.Int c.config.variation.bits);
         ("samples", Export.Int c.config.samples) ]
      @ Option.fold c.tolerance_pct ~none:[] ~some:(fun f -> [ ("tolerance_pct", Export.Float f) ])
      @
      if c.calibrate then
        [ ("calibrate", Export.Bool true); ("system_clock_hz", Export.Float c.system_clock_hz) ]
      else [])

let cached_compute t ~key compute =
  match Cache.find t.cache ~key with
  | Some (json, Cache.Memory) ->
    Metrics.cache_memory_hit t.metrics;
    (json, Some "memory")
  | Some (json, Cache.Disk) ->
    Metrics.cache_disk_hit t.metrics;
    (json, Some "disk")
  | None ->
    Metrics.cache_miss t.metrics;
    let packs0 = Evaluate.total_packs () in
    let json = compute () in
    Metrics.add_packs t.metrics (Evaluate.total_packs () - packs0);
    Cache.store t.cache ~key json;
    (json, None)

let handle ?admitted_at t (req : Protocol.request) =
  let admitted_at =
    match admitted_at with Some at -> at | None -> Msoc_util.Clock.now ()
  in
  Metrics.incr_request t.metrics req.Protocol.op;
  let deadline =
    Option.map (fun ms -> admitted_at +. (ms /. 1000.0)) req.Protocol.deadline_ms
  in
  let expired () =
    match deadline with
    | Some d -> Msoc_util.Clock.now () > d
    | None -> false
  in
  let id = req.Protocol.id in
  let response =
    if t.stop && req.Protocol.op <> Protocol.Stats then
      Protocol.reject ~id Protocol.Shutting_down "server is draining"
    else if expired () then
      Protocol.reject ~id Protocol.Deadline_exceeded
        "deadline elapsed before dispatch"
    else
      match
        match req.Protocol.op with
        | Protocol.Stats -> (stats_result t, None)
        | Protocol.Shutdown ->
          t.stop <- true;
          (Export.Object [ ("draining", Export.Bool true) ], None)
        | op -> (
          let r = Request.of_params op req.Protocol.params in
          let compute () =
            Request.result_json
              (Request.run ~prepare:(prepared_for t) ~pool:t.pool ?deadline r)
          in
          match cache_key ?deadline_ms:req.Protocol.deadline_ms r with
          | Some key -> cached_compute t ~key compute
          | None -> (compute (), None))
      with
      | result, cached ->
        if expired () then
          Protocol.reject ~id Protocol.Deadline_exceeded
            "deadline elapsed while computing (result cached for retry)"
        else Protocol.ok ?cached ~id result
      | exception e -> (
        match Request.error_message e with
        | Some m -> Protocol.reject ~id Protocol.Bad_request m
        | None -> Protocol.reject ~id Protocol.Server_error (Printexc.to_string e))
  in
  let elapsed = Msoc_util.Clock.now () -. admitted_at in
  Metrics.incr_status t.metrics response.Protocol.status;
  Metrics.observe_latency t.metrics ~seconds:elapsed;
  { response with
    Protocol.elapsed_ms = Some (1e3 *. elapsed);
    Protocol.worker = t.worker }
