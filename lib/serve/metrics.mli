(** Serve observability: monotonic counters and a latency histogram.

    All updates are lock-free ([Atomic]) so connection threads (which
    count malformed lines and overload rejections) and the dispatch
    thread can bump them concurrently; {!snapshot} reads are
    tear-tolerant (each counter is individually consistent), which is
    the usual contract for scrape-style metrics.

    The latency histogram has fixed log-spaced buckets — upper bounds
    0.25 ms · 2^k for k = 0..21 (0.25 ms .. ~524 s) plus an overflow
    bucket — cumulative in the snapshot, Prometheus-style. *)

type t

val create : unit -> t
(** Counters at zero; uptime measured from this call. *)

val incr_request : t -> Protocol.op -> unit

val incr_status : t -> Protocol.status -> unit

val incr_malformed : t -> unit
(** Lines that failed envelope parsing (answered with [bad_request],
    but counted separately from well-formed bad requests). *)

val cache_memory_hit : t -> unit

val cache_disk_hit : t -> unit

val cache_miss : t -> unit

val add_packs : t -> int -> unit
(** TAM-optimizer runs a request actually executed (0 on cache hits). *)

val observe_latency : t -> seconds:float -> unit

type snapshot = {
  uptime_s : float;
  requests : (string * int) list;  (** by op name, ops with traffic *)
  statuses : (string * int) list;  (** by status name *)
  malformed : int;
  cache_memory_hits : int;
  cache_disk_hits : int;
  cache_misses : int;
  packs : int;
  latency_count : int;
  latency_sum_ms : float;
  latency_buckets : (float * int) list;
      (** (upper bound ms, cumulative count); the overflow bucket is
          [(infinity, latency_count)] *)
}

val snapshot : t -> snapshot

val snapshot_json : t -> Msoc_testplan.Export.json
(** The [stats] response payload. *)
