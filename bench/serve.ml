(* serve-throughput: the resident service path, measured (PR 3).

   Drives Service.handle through full wire envelopes (parse -> dispatch
   -> cache -> render) with a mixed plan/optimize stream cycling over
   widths and weights, twice: a cold pass that fills the result cache
   and a warm pass that replays the identical stream. Asserts every
   envelope comes back ok, the warm pass is all cache hits, results are
   bit-identical across passes, and an expired deadline yields a
   deadline_exceeded envelope rather than a crash.

   Request count comes from MSOC_SERVE_REQUESTS (default 200) so the CI
   smoke job can run a short stream. *)

module Protocol = Msoc_serve.Protocol
module Service = Msoc_serve.Service
module Metrics = Msoc_serve.Metrics
module Cache = Msoc_serve.Cache
module Export = Msoc_testplan.Export
module Table = Msoc_util.Ascii_table

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let request_lines count =
  let ops = [| Protocol.Plan; Protocol.Optimize |] in
  let widths = [| 16; 24; 32; 48 |] in
  let weights = [| 0.25; 0.5; 0.75 |] in
  List.init count (fun i ->
      let params =
        Export.Object
          [
            ("width", Export.Int widths.(i mod Array.length widths));
            ( "weight_time",
              Export.Float weights.(i mod Array.length weights) );
          ]
      in
      Protocol.request_to_line
        (Protocol.request ~params
           ~id:(Printf.sprintf "q%d" i)
           ops.(i mod Array.length ops)))

(* the full service path, from wire line to wire line *)
let pass service lines =
  List.map
    (fun line ->
      match Protocol.request_of_line line with
      | Error (_, e) -> failwith ("serve-throughput: bad request line: " ^ e)
      | Ok req -> Service.handle service req)
    lines

let run () =
  Printf.printf "\n=== serve-throughput: resident service path (PR 3) ===\n\n";
  let count =
    match Sys.getenv_opt "MSOC_SERVE_REQUESTS" with
    | Some s -> int_of_string s
    | None -> 200
  in
  let lines = request_lines count in
  let metrics = Metrics.create () in
  let service = Service.create ~metrics ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) @@ fun () ->
  let cold, t_cold = time (fun () -> pass service lines) in
  let warm_mark = Cache.stats (Service.cache service) in
  let warm, t_warm = time (fun () -> pass service lines) in
  let stats = Cache.stats (Service.cache service) in
  let ok rs =
    List.for_all
      (fun (r : Protocol.response) -> r.Protocol.status = Protocol.Success)
      rs
  in
  if not (ok cold && ok warm) then
    failwith "serve-throughput: a request did not come back ok";
  let warm_hits =
    stats.Cache.memory_hits + stats.Cache.disk_hits
    - warm_mark.Cache.memory_hits - warm_mark.Cache.disk_hits
  in
  if warm_hits <> count then
    failwith "serve-throughput: warm pass was not fully served from cache";
  List.iter2
    (fun (a : Protocol.response) (b : Protocol.response) ->
      if
        Export.to_string a.Protocol.result
        <> Export.to_string b.Protocol.result
      then failwith ("serve-throughput: warm result differs for " ^ a.Protocol.id))
    cold warm;
  let columns =
    [
      Table.column "pass";
      Table.column ~align:Table.Right "requests";
      Table.column ~align:Table.Right "wall time";
      Table.column ~align:Table.Right "req/s";
      Table.column ~align:Table.Right "cache hits";
    ]
  in
  let row name t hits =
    [
      name;
      string_of_int count;
      Printf.sprintf "%.3f s" t;
      Printf.sprintf "%.0f" (float_of_int count /. Float.max 1e-9 t);
      string_of_int hits;
    ]
  in
  Table.print ~columns
    ~rows:
      [
        row "cold" t_cold (warm_mark.Cache.memory_hits + warm_mark.Cache.disk_hits);
        row "warm" t_warm warm_hits;
      ];
  Printf.printf
    "\n%d distinct configurations; warm pass bit-identical to cold: true\n"
    stats.Cache.memory_entries;
  (* an expired deadline must produce an envelope, never a crash *)
  let expired =
    Service.handle service
      (Protocol.request ~deadline_ms:1e-6
         ~params:(Export.Object [ ("width", Export.Int 32) ])
         ~id:"deadline" Protocol.Plan)
  in
  if expired.Protocol.status <> Protocol.Deadline_exceeded then
    failwith "serve-throughput: expired deadline did not map to deadline_exceeded";
  Printf.printf "deadline_exceeded envelope on an expired budget: ok\n";
  let snapshot = Metrics.snapshot metrics in
  Printf.printf "latency histogram samples: %d, timeouts: %d\n"
    snapshot.Metrics.latency_count
    (Option.value
       (List.assoc_opt "deadline_exceeded" snapshot.Metrics.statuses)
       ~default:0)
