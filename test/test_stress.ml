(* Deterministic race stress tests: hammer the two shared-state
   structures the analyzer's concurrency rules guard — the
   Msoc_util.Bounded_queue admission valve and the serve LRU cache —
   from several domains at once, then assert invariants that any lost
   update, duplicated element or torn LRU link would break. Domain
   scheduling is nondeterministic, but every workload is seeded and
   every assertion is interleaving-independent, so a failure is a real
   race, never a flaky schedule. *)

module Bounded_queue = Msoc_util.Bounded_queue
module Cache = Msoc_serve.Cache
module Export = Msoc_testplan.Export

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Bounded_queue: N producers, M consumers, nothing lost --- *)

let producers = 4
let consumers = 3
let items_per_producer = 400

let test_queue_hammer () =
  let q = Bounded_queue.create ~capacity:32 in
  let consume () =
    let rec go acc =
      match Bounded_queue.pop q with
      | Some item -> go (item :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let produce p =
    for seq = 1 to items_per_producer do
      (* try_push never blocks: spin on backpressure like a reader
         thread re-offering a connection *)
      while not (Bounded_queue.try_push q (p, seq)) do
        Domain.cpu_relax ()
      done
    done
  in
  let consumer_domains = List.init consumers (fun _ -> Domain.spawn consume) in
  let producer_domains =
    List.init producers (fun p -> Domain.spawn (fun () -> produce p))
  in
  List.iter Domain.join producer_domains;
  Bounded_queue.close q;
  let batches = List.map Domain.join consumer_domains in
  let popped = List.concat batches in
  checki "every item popped exactly once"
    (producers * items_per_producer)
    (List.length popped);
  let expected =
    List.concat_map
      (fun p -> List.init items_per_producer (fun i -> (p, i + 1)))
      (List.init producers Fun.id)
  in
  checkb "popped multiset = pushed multiset" true
    (List.sort compare popped = List.sort compare expected);
  (* FIFO holds per producer: within one consumer's pop order, a
     producer's sequence numbers only ever increase *)
  List.iteri
    (fun c batch ->
      let last = Array.make producers 0 in
      List.iter
        (fun (p, seq) ->
          checkb
            (Printf.sprintf "consumer %d sees producer %d in order" c p)
            true (seq > last.(p));
          last.(p) <- seq)
        batch)
    batches;
  checkb "queue drained" true (Bounded_queue.pop q = None);
  checkb "queue closed" true (Bounded_queue.is_closed q)

(* --- Bounded_queue.try_push: close lands mid-stream --- *)

(* The close contract for producers: a push that returned [true] left
   its element where the drain will find it, a push that returned
   [false] on a closed queue left nothing. The invariant — popped
   multiset = accepted multiset, each producer's accepted run a prefix
   of its sequence — holds for every interleaving, so a failure is a
   real race. *)

let push_producers = 4
let push_per_producer = 400

let push_stream q p =
  (* spins on backpressure, stops at the first push the close rejects
     (the queue never reopens, so acceptance is a prefix of the
     sequence) *)
  let rec go seq acc =
    if seq > push_per_producer then acc
    else if Bounded_queue.try_push q (p, seq) then go (seq + 1) ((p, seq) :: acc)
    else if Bounded_queue.is_closed q then acc
    else begin
      Domain.cpu_relax ();
      go seq acc
    end
  in
  go 1 []

let check_push_invariants ~popped ~accepted =
  checkb "popped multiset = accepted multiset" true
    (List.sort compare popped = List.sort compare (List.concat accepted));
  List.iteri
    (fun p acc ->
      let seqs = List.rev_map snd acc in
      checkb
        (Printf.sprintf "producer %d accepted a prefix" p)
        true
        (seqs = List.init (List.length seqs) succ))
    accepted

let test_queue_push_close_mid_stream () =
  (* active consumer: the consumer itself fires the close after a
     fixed number of pops, mid-flight for every producer *)
  let q = Bounded_queue.create ~capacity:4 in
  let close_after = 100 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go n acc =
          match Bounded_queue.pop q with
          | Some item ->
            if n = close_after then Bounded_queue.close q;
            go (n + 1) (item :: acc)
          | None -> acc
        in
        go 1 [])
  in
  let producer_domains =
    List.init push_producers (fun p -> Domain.spawn (fun () -> push_stream q p))
  in
  let accepted = List.map Domain.join producer_domains in
  let popped = Domain.join consumer in
  checkb "close landed mid-stream" true
    (List.length popped >= close_after
    && List.length popped < push_producers * push_per_producer);
  check_push_invariants ~popped ~accepted

(* --- serve LRU cache: concurrent find/store, no torn entries --- *)

let cache_domains = 4
let cache_ops = 3000
let key_space = 48
let cache_capacity = 16

let key_of i = Printf.sprintf "stress%02d" i
let value_of key = Export.Object [ ("key", Export.String key) ]
let rendered key = Export.to_string (value_of key)

let test_cache_hammer () =
  let cache = Cache.create ~memory_capacity:cache_capacity () in
  let hammer seed =
    let rng = Random.State.make [| 0x5eed; seed |] in
    let finds = ref 0 in
    for op = 1 to cache_ops do
      let key = key_of (Random.State.int rng key_space) in
      if Random.State.int rng 3 = 0 then Cache.store cache ~key (value_of key)
      else begin
        incr finds;
        (match Cache.find cache ~key with
        | None -> ()
        | Some (json, Cache.Memory) ->
          (* a hit must return exactly what some store wrote for this
             key — a torn LRU would surface as a foreign payload *)
          if Export.to_string json <> rendered key then
            Alcotest.failf "cache returned a foreign payload for %s" key
        | Some (_, Cache.Disk) ->
          Alcotest.failf "disk hit without a disk level (%s)" key)
      end;
      if op mod 512 = 0 then begin
        let s = Cache.stats cache in
        if s.Cache.memory_entries > cache_capacity then
          Alcotest.failf "cache over capacity: %d entries"
            s.Cache.memory_entries
      end
    done;
    !finds
  in
  let domains =
    List.init cache_domains (fun d -> Domain.spawn (fun () -> hammer d))
  in
  let finds = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  let s = Cache.stats cache in
  checki "every find is a hit or a miss" finds
    (s.Cache.memory_hits + s.Cache.misses);
  checkb "within capacity" true (s.Cache.memory_entries <= cache_capacity);
  checki "no disk traffic" 0 (s.Cache.disk_hits + s.Cache.disk_writes);
  (* quiesced cache still behaves: a store is immediately findable *)
  let key = key_of 0 in
  Cache.store cache ~key (value_of key);
  checkb "post-hammer store/find" true
    (match Cache.find cache ~key with
    | Some (json, Cache.Memory) -> Export.to_string json = rendered key
    | _ -> false)

let suites =
  [
    ( "stress",
      [
        Alcotest.test_case "bounded queue multi-domain hammer" `Quick
          test_queue_hammer;
        Alcotest.test_case "push/close race mid-stream" `Quick
          test_queue_push_close_mid_stream;
        Alcotest.test_case "serve cache multi-domain hammer" `Quick
          test_cache_hammer;
      ] );
  ]
