(* fleet: the distributed planning fleet, measured (PR 8).

   Spawns real worker processes (bin/msoc_plan.exe serve --tcp) under
   the supervisor, runs the consistent-hash router in-process, and
   drives both through the wire protocol:

   1. baseline — a warmed single worker, direct TCP: explore stream
      throughput (explore is compute-bearing and uncached, so this
      measures the planning engine, not the result cache);
   2. fleet    — the identical stream through router + N workers;
      speedup = fleet rps / baseline rps. Asserted >=
      MSOC_FLEET_MIN_SPEEDUP only when that env var is set: the ratio
      is meaningless on a single-core host, so CI (4 vCPU) opts in;
   3. routing  — repeated fingerprints must land on the same worker
      (warm caches are the point of hashed routing): >= 90%;
   4. kill     — SIGKILL one worker mid-stream. Every request must
      still get exactly one envelope (shed statuses allowed, drops
      are not), the dead worker's keys must be served by survivors
      from the shared disk cache (>= 1 cross-worker disk hit), the
      results must stay bit-identical, and the supervisor must
      restart the worker.

   Env: MSOC_FLEET_WORKERS (4), MSOC_FLEET_REQUESTS (48),
   MSOC_FLEET_BASE_PORT (7740), MSOC_FLEET_MIN_SPEEDUP (unset).
   Writes BENCH_fleet.json so CI can archive and assert on the run. *)

module Protocol = Msoc_serve.Protocol
module Client = Msoc_serve.Client
module Clock = Msoc_util.Clock
module Export = Msoc_testplan.Export
module Router = Msoc_fleet.Router
module Supervisor = Msoc_fleet.Supervisor
module Table = Msoc_util.Ascii_table

let env_int name default =
  match Sys.getenv_opt name with Some s -> int_of_string s | None -> default

let worker_exe () =
  match Sys.getenv_opt "MSOC_PLAN_EXE" with
  | Some p -> p
  | None ->
    (* bench/main.exe and bin/msoc_plan.exe live side by side in _build *)
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; "bin"; "msoc_plan.exe" ]

(* --- wire client (closed loop, one in-flight request per connection) --- *)

let rec connect_retry ?(attempts = 100) port =
  match Client.connect ~idle_timeout_s:30.0 (`Tcp ("127.0.0.1", port)) () with
  | c -> c
  | exception Unix.Unix_error _ when attempts > 0 ->
    Thread.delay 0.1;
    connect_retry ~attempts:(attempts - 1) port

(* [threads] connections pull requests off a shared cursor; each keeps
   exactly one request in flight, so a response line always answers
   the request just written on that connection. *)
let drive ~port ~threads requests =
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let pump () =
    let c = connect_retry port in
    let rec go () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then
        match Client.call c reqs.(i) with
        | Client.Response resp ->
          results.(i) <- Some resp;
          go ()
        | Client.Malformed _ -> go ()
        | Client.Closed | Client.Timed_out -> ()
    in
    go ();
    Client.close c
  in
  let t0 = Clock.now () in
  let ths = List.init threads (fun _ -> Thread.create pump ()) in
  List.iter Thread.join ths;
  (results, Clock.now () -. t0)

(* --- request streams --- *)

let small_soc_text () =
  Msoc_itc02.Soc_file.to_string
    (Msoc_itc02.Synthetic.generate ~seed:42 ~name:"fleet_s"
       {
         Msoc_itc02.Synthetic.n_cores = 8;
         target_area = 2_000_000;
         max_chains = 12;
         bottleneck = false;
       })

(* compute-bearing and uncached: every request costs real planning *)
let explore_stream ~soc_text ~count =
  List.init count (fun i ->
      Protocol.request
        ~id:(Printf.sprintf "q%d" i)
        ~params:
          (Export.Object
             [
               ("soc_text", Export.String soc_text);
               ("widths", Export.List [ Export.Int (12 + (i mod 8)) ]);
             ])
        Protocol.Explore)

(* cached and cheap: distinct fingerprints for routing / kill phases *)
let plan_stream ~soc_text ~distinct ~repeats =
  List.concat
    (List.init repeats (fun r ->
         List.init distinct (fun k ->
             Protocol.request
               ~id:(Printf.sprintf "q%d" ((r * distinct) + k))
               ~params:
                 (Export.Object
                    [
                      ("soc_text", Export.String soc_text);
                      ("width", Export.Int (12 + (4 * k)));
                    ])
               Protocol.Plan)))

let routing_key_of i requests =
  Router.routing_key (List.nth requests i)

let require name cond =
  if not cond then failwith ("fleet bench: " ^ name ^ " failed")

let count_some results =
  Array.fold_left (fun n r -> if r = None then n else n + 1) 0 results

let run () =
  Printf.printf "\n=== fleet: router + workers over TCP (PR 8) ===\n\n";
  let workers = max 1 (env_int "MSOC_FLEET_WORKERS" 4) in
  let count = max 8 (env_int "MSOC_FLEET_REQUESTS" 48) in
  let base_port = env_int "MSOC_FLEET_BASE_PORT" 7740 in
  let router_port = base_port + workers in
  let threads = 2 * workers in
  let exe = worker_exe () in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "msoc-fleet-bench-%d" (Unix.getpid ()))
  in
  let soc_text = small_soc_text () in
  let specs =
    List.init workers (fun i ->
        let id = Printf.sprintf "w%d" i in
        let port = base_port + i in
        {
          Supervisor.id;
          argv =
            [|
              exe; "serve"; "--tcp"; string_of_int port; "--worker-id"; id;
              "--cache-dir"; cache_dir; "--jobs"; "1";
            |];
          port;
        })
  in
  let ids = List.map (fun (s : Supervisor.spec) -> s.Supervisor.id) specs in
  let metrics = Msoc_fleet.Fleet_metrics.create ~ids in
  let restarts = Atomic.make 0 in
  let supervisor =
    Supervisor.create ~seed:11
      ~on_restart:(fun id ->
        Msoc_fleet.Fleet_metrics.incr_restart metrics id;
        Atomic.incr restarts)
      specs
  in
  let stop = Atomic.make false in
  let router =
    Thread.create
      (fun () ->
        Router.run ~metrics
          ~listen:(`Tcp ("127.0.0.1", router_port))
          ~stop
          (Router.config ~window:8 ~seed:11
             (List.map
                (fun (s : Supervisor.spec) ->
                  {
                    Router.id = s.Supervisor.id;
                    host = "127.0.0.1";
                    port = s.Supervisor.port;
                  })
                specs)))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join router;
      Supervisor.stop supervisor)
  @@ fun () ->
  let stream = explore_stream ~soc_text ~count in
  (* 1. baseline: worker 0 directly, after a warm-up pass *)
  ignore (drive ~port:base_port ~threads:2 stream);
  let base_results, base_wall = drive ~port:base_port ~threads:2 stream in
  require "baseline: every request answered ok"
    (Array.for_all
       (function
         | Some (r : Protocol.response) -> r.Protocol.status = Protocol.Success
         | None -> false)
       base_results);
  let base_rps = float_of_int count /. Float.max 1e-9 base_wall in
  (* 2. fleet: same stream through the router; warm every worker first *)
  ignore (drive ~port:router_port ~threads stream);
  let fleet_results, fleet_wall = drive ~port:router_port ~threads stream in
  require "fleet: every request answered ok"
    (Array.for_all
       (function
         | Some (r : Protocol.response) -> r.Protocol.status = Protocol.Success
         | None -> false)
       fleet_results);
  let fleet_rps = float_of_int count /. Float.max 1e-9 fleet_wall in
  let speedup = fleet_rps /. Float.max 1e-9 base_rps in
  (* 3. routing stability: repeated fingerprints, same worker *)
  let distinct = 8 and repeats = 6 in
  let route_stream = plan_stream ~soc_text ~distinct ~repeats in
  let route_results, _ = drive ~port:router_port ~threads route_stream in
  require "routing: every request answered"
    (count_some route_results = distinct * repeats);
  let key_worker = Hashtbl.create 16 in
  let matches = ref 0 and total = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Some (resp : Protocol.response) -> (
        let key = routing_key_of i route_stream in
        let w = Option.value resp.Protocol.worker ~default:"?" in
        incr total;
        match Hashtbl.find_opt key_worker key with
        | None ->
          Hashtbl.add key_worker key w;
          incr matches
        | Some first -> if w = first then incr matches)
      | None -> ())
    route_results;
  let same_worker = float_of_int !matches /. float_of_int (max 1 !total) in
  (* 4. kill -9 one worker mid-stream *)
  let first_pass = plan_stream ~soc_text ~distinct ~repeats:1 in
  let first_results, _ = drive ~port:router_port ~threads first_pass in
  require "kill phase: first pass all answered"
    (count_some first_results = distinct);
  let key_owner = Hashtbl.create 16 in
  let key_result = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
      match r with
      | Some (resp : Protocol.response) ->
        let key = routing_key_of i first_pass in
        Hashtbl.replace key_owner key
          (Option.value resp.Protocol.worker ~default:"?");
        Hashtbl.replace key_result key (Export.to_string resp.Protocol.result)
      | None -> ())
    first_results;
  (* pick the worker owning the most keys, so the kill orphans work *)
  let victim =
    let tally = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ w ->
        Hashtbl.replace tally w
          (1 + Option.value (Hashtbl.find_opt tally w) ~default:0))
      key_owner;
    Hashtbl.fold
      (fun w c (bw, bc) -> if c > bc then (w, c) else (bw, bc))
      tally ("w0", 0)
    |> fst
  in
  let victim_pid = List.assoc victim (Supervisor.pids supervisor) in
  let second_pass = plan_stream ~soc_text ~distinct ~repeats:4 in
  (* kill as the stream departs: the router still believes the victim
     is up, so early requests exercise the orphan-redispatch path and
     the rest the failover path — all must come back as envelopes *)
  Unix.kill victim_pid Sys.sigkill;
  let second_results, _ = drive ~port:router_port ~threads second_pass in
  require "kill phase: every request answered (shed allowed, drops not)"
    (count_some second_results = distinct * 4);
  let shed = ref 0 and cross_disk = ref 0 and identical = ref true in
  Array.iteri
    (fun i r ->
      match r with
      | Some (resp : Protocol.response) -> (
        let key = routing_key_of i second_pass in
        match resp.Protocol.status with
        | Protocol.Success ->
          let owner = Hashtbl.find_opt key_owner key in
          let w = Option.value resp.Protocol.worker ~default:"?" in
          if owner <> None && owner <> Some w
             && resp.Protocol.cached = Some "disk"
          then incr cross_disk;
          (match Hashtbl.find_opt key_result key with
          | Some expected ->
            if Export.to_string resp.Protocol.result <> expected then
              identical := false
          | None -> ())
        | Protocol.Overloaded | Protocol.Unavailable -> incr shed
        | _ -> identical := false)
      | None -> ())
    second_results;
  require "kill phase: results bit-identical across the kill" !identical;
  require "kill phase: >= 1 cross-worker shared-cache disk hit"
    (!cross_disk >= 1);
  (* the supervisor must bring the victim back *)
  let deadline = Clock.now () +. 20.0 in
  let rec wait_restart () =
    match List.assoc_opt victim (Supervisor.pids supervisor) with
    | Some pid when pid <> victim_pid -> true
    | _ ->
      if Clock.now () > deadline then false
      else begin
        Thread.delay 0.1;
        wait_restart ()
      end
  in
  require "kill phase: supervisor restarted the worker" (wait_restart ());
  require "kill phase: restart callback fired" (Atomic.get restarts >= 1);
  (* --- report --- *)
  let columns =
    [
      Table.column "phase";
      Table.column ~align:Table.Right "requests";
      Table.column ~align:Table.Right "wall time";
      Table.column ~align:Table.Right "req/s";
    ]
  in
  Table.print ~columns
    ~rows:
      [
        [ "baseline (1 worker)"; string_of_int count;
          Printf.sprintf "%.3f s" base_wall; Printf.sprintf "%.1f" base_rps ];
        [ Printf.sprintf "fleet (%d workers)" workers; string_of_int count;
          Printf.sprintf "%.3f s" fleet_wall; Printf.sprintf "%.1f" fleet_rps ];
      ];
  Printf.printf
    "\nspeedup %.2fx; same-worker routing %.1f%%; kill: %d shed, %d \
     cross-worker disk hits, restart ok\n"
    speedup (100.0 *. same_worker) !shed !cross_disk;
  require "routing: >= 90%% same-worker for repeated fingerprints"
    (same_worker >= 0.9);
  let min_speedup =
    Option.map float_of_string (Sys.getenv_opt "MSOC_FLEET_MIN_SPEEDUP")
  in
  (match min_speedup with
  | Some m ->
    if speedup < m then
      failwith
        (Printf.sprintf "fleet bench: speedup %.2f below required %.2f" speedup
           m)
  | None ->
    Printf.printf
      "(speedup not asserted: MSOC_FLEET_MIN_SPEEDUP unset — single-core \
       hosts cannot express worker parallelism)\n");
  let json =
    Export.Object
      [
        ("workers", Export.Int workers);
        ("requests", Export.Int count);
        ("baseline_rps", Export.Float base_rps);
        ("fleet_rps", Export.Float fleet_rps);
        ("speedup", Export.Float speedup);
        ( "min_speedup",
          match min_speedup with
          | Some m -> Export.Float m
          | None -> Export.Null );
        ("same_worker_fraction", Export.Float same_worker);
        ("dropped", Export.Int 0);
        ( "kill",
          Export.Object
            [
              ("victim", Export.String victim);
              ("answered", Export.Int (count_some second_results));
              ("shed", Export.Int !shed);
              ("cross_worker_disk_hits", Export.Int !cross_disk);
              ("bit_identical", Export.Bool !identical);
              ("restarted", Export.Bool true);
            ] );
      ]
  in
  let path = "BENCH_fleet.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Export.to_string json ^ "\n"));
  Printf.printf "wrote %s\n" path
