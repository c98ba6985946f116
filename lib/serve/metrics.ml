module Export = Msoc_testplan.Export

let ops = Protocol.[ Plan; Explore; Optimize; Cosim; Stats; Shutdown ]

let statuses =
  Protocol.
    [ Success; Bad_request; Server_error; Overloaded; Deadline_exceeded;
      Shutting_down; Unavailable ]

let n_buckets = 22

let bucket_bounds_ms =
  Array.init n_buckets (fun k -> 0.25 *. Float.of_int (1 lsl k))

type t = {
  started_at : float;
  requests : int Atomic.t array;  (* indexed like [ops] *)
  statuses : int Atomic.t array;  (* indexed like [statuses] *)
  malformed : int Atomic.t;
  cache_memory_hits : int Atomic.t;
  cache_disk_hits : int Atomic.t;
  cache_misses : int Atomic.t;
  packs : int Atomic.t;
  latency_count : int Atomic.t;
  latency_sum_us : int Atomic.t;  (* integral so Atomic can carry it *)
  buckets : int Atomic.t array;  (* per-bucket (not cumulative) + overflow *)
}

let atomics n = Array.init n (fun _ -> Atomic.make 0)

let create () =
  {
    started_at = Msoc_util.Clock.now ();
    requests = atomics (List.length ops);
    statuses = atomics (List.length statuses);
    malformed = Atomic.make 0;
    cache_memory_hits = Atomic.make 0;
    cache_disk_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
    packs = Atomic.make 0;
    latency_count = Atomic.make 0;
    latency_sum_us = Atomic.make 0;
    buckets = atomics (n_buckets + 1);
  }

let index_of x xs =
  let rec go i = function
    | [] -> assert false
    | y :: rest -> if x = y then i else go (i + 1) rest
  in
  go 0 xs

let incr_request t op = Atomic.incr t.requests.(index_of op ops)

let incr_status t status = Atomic.incr t.statuses.(index_of status statuses)

let incr_malformed t = Atomic.incr t.malformed

let cache_memory_hit t = Atomic.incr t.cache_memory_hits

let cache_disk_hit t = Atomic.incr t.cache_disk_hits

let cache_miss t = Atomic.incr t.cache_misses

let add_packs t n = ignore (Atomic.fetch_and_add t.packs n)

let bucket_index ms =
  let rec go k = if k >= n_buckets || ms <= bucket_bounds_ms.(k) then k else go (k + 1) in
  go 0

let observe_latency t ~seconds =
  let seconds = Float.max 0.0 seconds in
  Atomic.incr t.latency_count;
  ignore
    (Atomic.fetch_and_add t.latency_sum_us
       (int_of_float (Float.round (seconds *. 1e6))));
  Atomic.incr t.buckets.(bucket_index (seconds *. 1e3))

type snapshot = {
  uptime_s : float;
  requests : (string * int) list;
  statuses : (string * int) list;
  malformed : int;
  cache_memory_hits : int;
  cache_disk_hits : int;
  cache_misses : int;
  packs : int;
  latency_count : int;
  latency_sum_ms : float;
  latency_buckets : (float * int) list;
}

let snapshot t =
  let named names array name_of =
    List.mapi (fun i x -> (name_of x, Atomic.get array.(i))) names
    |> List.filter (fun (_, n) -> n > 0)
  in
  let cumulative =
    let sum = ref 0 in
    List.init (n_buckets + 1) (fun k ->
        sum := !sum + Atomic.get t.buckets.(k);
        let bound = if k < n_buckets then bucket_bounds_ms.(k) else infinity in
        (bound, !sum))
  in
  {
    uptime_s = Msoc_util.Clock.now () -. t.started_at;
    requests = named ops t.requests Protocol.op_name;
    statuses = named statuses t.statuses Protocol.status_name;
    malformed = Atomic.get t.malformed;
    cache_memory_hits = Atomic.get t.cache_memory_hits;
    cache_disk_hits = Atomic.get t.cache_disk_hits;
    cache_misses = Atomic.get t.cache_misses;
    packs = Atomic.get t.packs;
    latency_count = Atomic.get t.latency_count;
    latency_sum_ms = float_of_int (Atomic.get t.latency_sum_us) /. 1e3;
    latency_buckets = cumulative;
  }

let snapshot_json t =
  let s = snapshot t in
  let counts kvs = Export.Object (List.map (fun (k, n) -> (k, Export.Int n)) kvs) in
  Export.Object
    [
      ("uptime_s", Export.Float s.uptime_s);
      ("requests", counts s.requests);
      ("statuses", counts s.statuses);
      ("malformed", Export.Int s.malformed);
      ( "cache",
        Export.Object
          [
            ("memory_hits", Export.Int s.cache_memory_hits);
            ("disk_hits", Export.Int s.cache_disk_hits);
            ("misses", Export.Int s.cache_misses);
          ] );
      ("packs", Export.Int s.packs);
      ( "latency",
        Export.Object
          [
            ("count", Export.Int s.latency_count);
            ("sum_ms", Export.Float s.latency_sum_ms);
            ( "buckets",
              Export.List
                (List.map
                   (fun (le, n) ->
                     Export.Object
                       [
                         ( "le_ms",
                           (* "inf" is not JSON; encode the overflow
                              bound as a string *)
                           if le = infinity then Export.String "inf"
                           else Export.Float le );
                         ("count", Export.Int n);
                       ])
                   s.latency_buckets) );
          ] );
    ]
