(* serve-open: the resident daemon, one request kind at a time.

   For every round the benchmark spawns the built [msoc_plan serve] on a
   Unix socket with a fresh on-disk cache, a 4-entry memory cache and
   one dispatch job, and sends it the round's requests over one
   connection, one request outstanding at a time. A daemon of its own
   per round means no round pays for the heap or the cache files the
   rounds before it left, so the seed's round order does not move the
   times; the daemon's start-up, from spawn until it answers [stats] and
   takes the connection, is the round's set-up, outside its latency.
   No recorded request log exists, so the benchmark weighs no traffic
   mix: every round holds one request of each kind below, in this
   order, and each kind's latency is reported on its own. Each is a
   fact about the code:
   - plan_miss: a plan for a key and a (width, analog subset) structure
     no earlier request used — prepare, plan, verify, render, store;
   - plan_memory: the same request again, from the memory cache;
   - plan_reweight: the same structure at another weight, a miss on a
     resident prepared structure ({!Msoc_testplan.Evaluate.reweight});
   - optimize_delta: Cost_Optimizer with delta 0.5 on that structure;
   - optimize_bnb: branch-and-bound with max_evals 16 on it;
   - cosim: one Table-2 spec with 3 Monte-Carlo trials;
   - explore: a width sweep over 24/32/40, which is never cached;
   - plan_disk: the round's first plan again. The four answers stored
     since have pushed it out of the 4-entry memory cache, so it comes
     from the disk cache.
   Every answer's [cached] field must say what its kind claims.

   An op is one round; its latency runs from the first send to the
   arrival of the last answer, and each request's from its send to the
   arrival of its response line, stamped before it is parsed. The
   rounds are fixed (round r has width [widths.(r mod 7)], so every
   width recurs, and a (width, subset) pair of its own); the seed
   orders them. *)

module Protocol = Msoc_serve.Protocol
module Export = Msoc_testplan.Export
open Msoc_testplan

let widths = [| 16; 24; 32; 40; 48; 56; 64 |]
let subsets = [| "A,B,C,D,E"; "A,B,C"; "C,D,E"; "A,C,E"; "B,D" |]
let weights = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 |]
let explore_widths = [ 24; 32; 40 ]
let deadline_ms = 30_000.0
let memory_cache = 4
let verify_count = 10

(* Rounds in a default run. *)
let default_rounds = 18

type kind =
  | Plan_miss
  | Plan_memory
  | Plan_reweight
  | Optimize_delta
  | Optimize_bnb
  | Cosim
  | Explore
  | Plan_disk

(* One round, in order. *)
let kinds =
  [| Plan_miss; Plan_memory; Plan_reweight; Optimize_delta; Optimize_bnb; Cosim; Explore; Plan_disk |]

let kind_name = function
  | Plan_miss -> "plan_miss"
  | Plan_memory -> "plan_memory"
  | Plan_reweight -> "plan_reweight"
  | Optimize_delta -> "optimize_delta"
  | Optimize_bnb -> "optimize_bnb"
  | Cosim -> "cosim"
  | Explore -> "explore"
  | Plan_disk -> "plan_disk"

(* The envelope's [cached] field each kind must carry. *)
let expected_cache = function
  | Plan_memory -> Some "memory"
  | Plan_disk -> Some "disk"
  | _ -> None

type round = {
  index : int;  (* fixed: names the request ids and the round's key *)
  width : int;
  subset : string;
  weight : float;
  reweight : float;
  spec : string;
  lines : string array;  (* one request line per kind, pre-rendered *)
}

let id_of index kind = Printf.sprintf "r%d.%s" index (kind_name kind)

let request_line r kind =
  let at weight =
    [
      ("width", Export.Int r.width);
      ("analog", Export.String r.subset);
      ("weight_time", Export.Float weight);
    ]
  in
  let op, params =
    match kind with
    | Plan_miss | Plan_memory | Plan_disk -> (Protocol.Plan, at r.weight)
    | Plan_reweight -> (Protocol.Plan, at r.reweight)
    | Optimize_delta -> (Protocol.Optimize, at r.weight @ [ ("delta", Export.Float 0.5) ])
    | Optimize_bnb ->
      ( Protocol.Optimize,
        at r.weight @ [ ("strategy", Export.String "bnb"); ("max_evals", Export.Int 16) ] )
    | Cosim ->
      ( Protocol.Cosim,
        at r.weight
        @ [ ("spec", Export.String r.spec); ("trials", Export.Int 3); ("seed", Export.Int 7) ] )
    | Explore ->
      ( Protocol.Explore,
        [
          ("analog", Export.String r.subset);
          ("weight_time", Export.Float r.weight);
          ("widths", Export.List (List.map (fun w -> Export.Int w) explore_widths));
        ] )
  in
  Protocol.request_to_line
    (Protocol.request ~deadline_ms ~params:(Export.Object params) ~id:(id_of r.index kind) op)

(* Round r's (width, subset) pair is (r mod 7, (r + r / 7) mod 5): the
   first 35 rounds never repeat a structure. *)
let make_rounds ctx ~rounds =
  let rng = Msoc_util.Rng.create ~seed:ctx.Workload.seed in
  let specs = Array.of_list Msoc_cosim.Testbench.spec_names in
  let nw = Array.length widths and ns = Array.length subsets and nk = Array.length weights in
  if rounds > nw * ns then invalid_arg "Serve_open.make_rounds: more rounds than structures";
  Measure.shuffled rng
    (Array.init rounds (fun r ->
         let round =
           {
             index = r;
             width = widths.(r mod nw);
             subset = subsets.((r + (r / nw)) mod ns);
             weight = weights.(r mod nk);
             reweight = weights.((r + 4) mod nk);
             spec = specs.(r mod Array.length specs);
             lines = [||];
           }
         in
         { round with lines = Array.map (request_line round) kinds }))

(* --- the daemon --- *)

type daemon = {
  pid : int;
  socket : string;
  cache_dir : string;
  err_log : string;
  mutable reaped : bool;
}

type exit_info = {
  peak_rss_mb : float;
  minor_words : float;  (* from the runtime's exit statistics *)
  major_words : float;
  major_collections : float;
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let with_connection socket f =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f (Unix.in_channel_of_descr fd) (Unix.out_channel_of_descr fd))

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let stats_line = Protocol.request_to_line (Protocol.request ~id:"stats" Protocol.Stats)

let stats socket =
  with_connection socket (fun ic oc ->
      send oc stats_line;
      match Protocol.response_of_line (input_line ic) with
      | Ok r when r.Protocol.status = Protocol.Success -> r.Protocol.result
      | Ok r -> failwith ("stats: " ^ Protocol.status_name r.Protocol.status)
      | Error e -> failwith ("stats: " ^ e))

let reap d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Measure.now () +. 10.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
        if Measure.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    d.reaped <- true
  end

(* Readiness: poll [stats] until the daemon answers, never a fixed
   sleep. A daemon that exits or stays silent past the timeout fails
   the run. The poll interval (0.2 ms) is small against the daemon's
   start-up (~5 ms), which is most of the serve-open [setup_s]. *)
let wait_ready d =
  let deadline = Measure.now () +. 30.0 in
  let rec poll () =
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ ->
      d.reaped <- true;
      failwith "serve daemon exited before answering stats"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    match stats d.socket with
    | _ -> ()
    | exception (Unix.Unix_error _ | End_of_file | Sys_error _) ->
      if Measure.now () > deadline then failwith "serve daemon not ready after 30 s"
      else begin
        Unix.sleepf 0.0002;
        poll ()
      end
  in
  poll ()

let exit_stat lines key =
  match Option.bind (Measure.field lines key) float_of_string_opt with
  | Some v -> v
  | None -> Float.nan

(* Spawn a daemon, wait until it answers, run [f] on it, then stop it
   with SIGTERM and wait for it on every path, exceptions included, and
   remove its socket, cache directory and log. *)
let with_daemon ~exe ~dir ~tag f =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let cache_dir = Filename.concat dir (tag ^ "-cache") in
  let err_log = Filename.concat dir (tag ^ ".err") in
  let env =
    Array.append [| "OCAMLRUNPARAM=v=0x400" |]
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
            (Array.to_list (Unix.environment ()))))
  in
  let argv =
    [|
      exe; "serve"; "--socket"; socket; "--cache-dir"; cache_dir; "--memory-cache";
      string_of_int memory_cache; "--jobs"; "1";
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        let err =
          Unix.openfile err_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
        in
        Fun.protect
          ~finally:(fun () -> Unix.close err)
          (fun () -> Unix.create_process_env exe argv env null null err))
  in
  let d = { pid; socket; cache_dir; err_log; reaped = false } in
  Fun.protect
    ~finally:(fun () ->
      reap d;
      List.iter rm_rf [ socket; cache_dir; err_log ])
    (fun () ->
      wait_ready d;
      let v = f d in
      let peak_rss_mb = Measure.peak_rss_mb ~pid:d.pid () in
      reap d;
      let lines = Measure.read_lines err_log in
      ( v,
        {
          peak_rss_mb;
          minor_words = exit_stat lines "minor_words";
          major_words = exit_stat lines "major_words";
          major_collections = exit_stat lines "major_collections";
        } ))

(* --- one round --- *)

type answer = { line : string; latency_ms : float }

(* The op: the round's requests, one at a time, each in a span named
   after its kind. *)
let run_round ic oc round =
  Array.mapi
    (fun i kind ->
      Trace.span ("serve." ^ kind_name kind) (fun () ->
          let t0 = Measure.now () in
          send oc round.lines.(i);
          let line = input_line ic in
          { line; latency_ms = Measure.ms_since t0 }))
    kinds

let parse a =
  match Protocol.response_of_line a.line with
  | Ok r -> r
  | Error e -> failwith ("malformed response line: " ^ e)

(* A result with its wall-clock fields ([wall_ms] in search statistics)
   removed: everything left is a pure function of the request. *)
let rec deterministic = function
  | Export.Object fields ->
    Export.Object
      (List.filter_map
         (fun (k, v) -> if k = "wall_ms" then None else Some (k, deterministic v))
         fields)
  | Export.List items -> Export.List (List.map deterministic items)
  | json -> json

let result_text (r : Protocol.response) = Export.to_string (deterministic r.Protocol.result)

let rec all_finite = function
  | Export.Float f -> Float.is_finite f
  | Export.List items -> List.for_all all_finite items
  | Export.Object fields -> List.for_all (fun (_, v) -> all_finite v) fields
  | _ -> true

let cached_name = Option.value ~default:"none"

let index_of kind =
  let rec find i = if kinds.(i) = kind then i else find (i + 1) in
  find 0

(* What a checked round keeps: per kind, its latency and its envelope. *)
type kept = { ms : float; resp : Protocol.response }

(* Every answer is an [ok] envelope for its own request, from the cache
   level its kind names, with finite numbers; the memory and disk hits
   repeat the miss byte for byte, and the sweep has every width. *)
let check round answers =
  let first = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !first = None then first := Some m) fmt in
  let resps = Array.map parse answers in
  Array.iteri
    (fun i kind ->
      let r = resps.(i) and name = kind_name kind in
      if r.Protocol.id <> id_of round.index kind then fail "%s: answer to %S" name r.Protocol.id
      else if r.Protocol.status <> Protocol.Success then
        fail "%s: %s %s" name (Protocol.status_name r.Protocol.status)
          (Option.value r.Protocol.error ~default:"")
      else if r.Protocol.cached <> expected_cache kind then
        fail "%s: cached %s, expected %s" name (cached_name r.Protocol.cached)
          (cached_name (expected_cache kind))
      else if not (all_finite r.Protocol.result) then fail "%s: non-finite number" name)
    kinds;
  let resp kind = resps.(index_of kind) in
  if !first = None then begin
    let miss = result_text (resp Plan_miss) in
    if result_text (resp Plan_memory) <> miss then fail "memory hit differs from the miss";
    if result_text (resp Plan_disk) <> miss then fail "disk hit differs from the miss";
    match Export.member "points" (resp Explore).Protocol.result with
    | Some (Export.List points) when List.length points = List.length explore_widths -> ()
    | _ -> fail "explore: not one point per width"
  end;
  match !first with
  | None -> Ok (Array.map2 (fun a resp -> { ms = a.latency_ms; resp }) answers resps)
  | Some m -> Error m

(* --- checks after the timed passes --- *)

let one_shot_plan ~width ~subset ~weight =
  let problem =
    Problem.make ~soc:(Msoc_itc02.Synthetic.p93791s ())
      ~analog_cores:
        (List.map
           (fun label -> Msoc_analog.Catalog.find ~label)
           (String.split_on_char ',' subset))
      ~tam_width:width ~weight_time:weight ()
  in
  Export.to_string (Export.plan_json (Plan.run ~search:(Plan.Heuristic { delta = 0.0 }) problem))

(* Byte-compare up to [verify_count] distinct plan answers (the misses,
   then the reweighted plans) with a one-shot [Plan.run] of the same
   problem. *)
let verify_plans rounds (p : kept array Workload.pass) =
  let candidates =
    List.concat_map
      (fun kind ->
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i round ->
                  Option.map
                    (fun answers ->
                      let weight = if kind = Plan_reweight then round.reweight else round.weight in
                      (round, weight, answers.(index_of kind).resp))
                    p.Workload.results.(i))
                rounds)))
      [ Plan_miss; Plan_reweight ]
  in
  let chosen = List.filteri (fun i _ -> i < verify_count) candidates in
  let mismatched =
    List.filter
      (fun (round, weight, resp) ->
        let same =
          one_shot_plan ~width:round.width ~subset:round.subset ~weight = result_text resp
        in
        if not same then
          Printf.eprintf "serve-open: %s differs from the one-shot plan\n%!" resp.Protocol.id;
        not same)
      chosen
  in
  (List.length chosen, List.length mismatched)

(* The answers are pure functions of the requests: two passes over the
   same rounds on two fresh daemons must agree byte for byte. *)
let cross_check (a : kept array Workload.pass) (b : kept array Workload.pass) =
  let diff = ref 0 in
  Array.iteri
    (fun i x ->
      match (x, b.Workload.results.(i)) with
      | Some x, Some y ->
        Array.iteri
          (fun k kx ->
            if result_text kx.resp <> result_text y.(k).resp then begin
              incr diff;
              Printf.eprintf "serve-open: %s answered differently by the two passes\n%!"
                kx.resp.Protocol.id
            end)
          x
      | _ -> ())
    a.Workload.results;
  !diff

let digest rounds (p : kept array Workload.pass) =
  let buf = Buffer.create 65536 in
  Array.iteri
    (fun i round ->
      match p.Workload.results.(i) with
      | Some answers ->
        Array.iteri
          (fun k a ->
            Printf.bprintf buf "%d %s %s\n" round.index (kind_name kinds.(k)) (result_text a.resp))
          answers
      | None -> Printf.bprintf buf "%d failed\n" round.index)
    rounds;
  Workload.digest_of buf

(* --- the workload --- *)

let daemon_exe root =
  match
    List.find_opt Sys.file_exists
      [
        Filename.concat root "_build/default/bin/msoc_plan.exe";
        Filename.concat root "bin/msoc_plan.exe";
      ]
  with
  | Some exe -> exe
  | None -> failwith "serve-open: msoc_plan.exe is not built (dune build bin/msoc_plan.exe)"

let with_tmp_dir root f =
  let base = Filename.concat root ".msoc_bench" in
  if not (Sys.file_exists base) then Sys.mkdir base 0o755;
  let dir = Filename.concat base (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.rmdir base with Sys_error _ -> ())
    (fun () -> f dir)

let packs_of stats_json =
  match Option.bind (Export.member "metrics" stats_json) (Export.member "packs") with
  | Some (Export.Int p) -> p
  | _ -> 0

(* One pass over [rounds], each on a daemon of its own: the pass, the
   TAM packs the daemons issued, and their exit statistics. *)
let daemon_pass ~exe ~dir ~traced rounds =
  let packs = ref 0 and exits = ref [] in
  let session round f =
    let v, exit =
      with_daemon ~exe ~dir ~tag:(Printf.sprintf "r%d" round.index) (fun d ->
          let v = with_connection d.socket (fun ic oc -> f (ic, oc)) in
          packs := !packs + packs_of (stats d.socket);
          v)
    in
    exits := exit :: !exits;
    v
  in
  let pass =
    Workload.run_pass ~traced ~ops:rounds ~session
      ~run:(fun (ic, oc) round -> run_round ic oc round)
      ~check ~probe:(fun _ _ -> ())
  in
  (pass, !packs, !exits)

(* Per kind, the median latency over the pass's checked rounds, and the
   client-side wait: latency minus the daemon's [elapsed_ms] (socket
   transport, the daemon's reader thread, rendering and parsing). *)
let kind_metrics (p : kept array Workload.pass) =
  let oks = Workload.ok_results p in
  let latencies k = Array.of_list (List.map (fun a -> a.(k).ms) oks) in
  let wait =
    Array.of_list
      (List.concat_map
         (fun answers ->
           Array.to_list
             (Array.map
                (fun a -> a.ms -. Option.value a.resp.Protocol.elapsed_ms ~default:0.0)
                answers))
         oks)
  in
  Array.to_list
    (Array.mapi
       (fun k kind ->
         Workload.metric ("serve." ^ kind_name kind ^ "_ms") "ms" (Measure.median (latencies k)))
       kinds)
  @ Workload.
      [
        metric "serve.wait_ms_p50" "ms" (Measure.median wait);
        metric "serve.wait_ms_p90" "ms" (Measure.quantile wait 0.9);
      ]

let run_workload ctx =
  let exe = daemon_exe ctx.Workload.root in
  let rounds = make_rounds ctx ~rounds:(Workload.rounds ctx ~default:default_rounds) in
  let n = Array.length rounds in
  with_tmp_dir ctx.Workload.root (fun dir ->
      let untraced, packs, exits = daemon_pass ~exe ~dir ~traced:false rounds in
      let traced =
        if ctx.Workload.traced then begin
          Trace.reset ();
          let t, _, _ = daemon_pass ~exe ~dir ~traced:true rounds in
          Some t
        end
        else None
      in
      let checked, mismatched = verify_plans rounds untraced in
      let disagree = Option.fold ~none:0 ~some:(cross_check untraced) traced in
      let passes = (untraced, traced) in
      let per_round f = List.fold_left (fun acc e -> acc +. f e) 0.0 exits /. float_of_int n in
      let peak_rss_mb = List.fold_left (fun acc e -> Float.max acc e.peak_rss_mb) 0.0 exits in
      let per_layer =
        match traced with
        | None -> []
        | Some t ->
          kind_metrics untraced
          @ Workload.
              [
                metric "serve.packs_per_op" "count" (float_of_int packs /. float_of_int n);
                metric "gc.minor_mw_per_op" "Mw" (per_round (fun e -> e.minor_words) /. 1e6);
                metric "gc.major_mw_per_op" "Mw" (per_round (fun e -> e.major_words) /. 1e6);
                metric "gc.major_collections_per_op" "count"
                  (per_round (fun e -> e.major_collections));
              ]
          @ Workload.trace_metrics untraced t
      in
      let end_to_end =
        List.filter
          (fun (m : Workload.metric) ->
            not (List.mem m.Workload.name [ "peak_rss_mb"; "alloc_mw_per_op" ]))
          (Workload.end_to_end untraced)
        @ Workload.
            [
              metric "peak_rss_mb" "MB" peak_rss_mb;
              metric "alloc_mw_per_op" "Mw" (per_round (fun e -> e.minor_words) /. 1e6);
            ]
      in
      {
        Workload.attempted = Workload.attempted passes + checked;
        failed = Workload.failed passes + mismatched + disagree;
        end_to_end;
        per_layer;
        digest = digest rounds untraced;
        params =
          [
            ("rounds", Export.Int n);
            ("kinds", Export.List (Array.to_list (Array.map (fun k -> Export.String (kind_name k)) kinds)));
            ("memory_cache", Export.Int memory_cache);
            ("deadline_ms", Export.Float deadline_ms);
            ("verified_plans", Export.Int checked);
            ("packs", Export.Int packs);
          ];
      })
