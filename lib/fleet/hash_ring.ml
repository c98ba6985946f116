(* Consistent hashing with virtual nodes. Each worker id is hashed at
   [replicas] points on a 64-bit ring; a key routes to the worker
   owning the first point at or clockwise after the key's hash. Adding
   or removing one worker moves only the keys whose arcs it owned —
   every other key keeps its worker, which is what keeps per-worker
   prepared-structure and memo caches warm across fleet resizes. *)

type t = {
  ids : string array;
  points : (int64 * int) array;  (* (ring position, index into ids), sorted *)
}

(* FNV-1a 64-bit over the bytes, then a splitmix64 finalizer: FNV
   alone clusters nearby suffixes ("w0#1", "w0#2", ...) — the
   finalizer spreads them over the whole ring. *)
let hash64 s =
  let fnv_offset = 0xcbf29ce484222325L in
  let fnv_prime = 0x100000001b3L in
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  let z = ref !h in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
  Int64.logxor !z (Int64.shift_right_logical !z 31)

let create ?(replicas = 64) ids =
  if ids = [] then invalid_arg "Hash_ring.create: no workers";
  if replicas < 1 then invalid_arg "Hash_ring.create: replicas must be >= 1";
  let ids = Array.of_list ids in
  let points =
    Array.init
      (Array.length ids * replicas)
      (fun k ->
        let w = k / replicas and r = k mod replicas in
        (hash64 (Printf.sprintf "%s#%d" ids.(w) r), w))
  in
  Array.sort
    (fun (a, _) (b, _) -> Int64.unsigned_compare a b)
    points;
  { ids; points }

(* First point at or clockwise after [h] (wrapping), by binary search
   over the sorted point array. *)
let successor_index t h =
  let n = Array.length t.points in
  let rec go lo hi =
    (* invariant: answer is in [lo, hi], where n means "wrap to 0" *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let p, _ = t.points.(mid) in
      if Int64.unsigned_compare p h >= 0 then go lo mid else go (mid + 1) hi
  in
  go 0 n mod n

let lookup t key =
  let _, w = t.points.(successor_index t (hash64 key)) in
  t.ids.(w)

let successors t key =
  let n = Array.length t.points in
  let start = successor_index t (hash64 key) in
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  (* walk clockwise collecting each distinct worker once *)
  let k = ref 0 in
  while !k < n && Hashtbl.length seen < Array.length t.ids do
    let _, w = t.points.((start + !k) mod n) in
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.add seen w ();
      order := t.ids.(w) :: !order
    end;
    incr k
  done;
  List.rev !order
