(* Clocks, order statistics, process probes and the host-speed kernel
   shared by every workload. All timing goes through the monotonic
   clock: a wall-clock step during a run must not show up as a
   latency. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ms_since t0 = (now () -. t0) *. 1e3

(* --- order statistics --- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics (the "type 7" rule).
   [nan] on an empty sample, so a missing measurement can never pass
   for a zero. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then Float.nan
  else sum xs /. float_of_int (Array.length xs)

(* The Harrell-Davis estimate of quantile [q]: a weighted mean of every
   order statistic, the i-th weighted by the mass a Beta(q(n+1),
   (1-q)(n+1)) density puts on [(i-1)/n, i/n] (midpoint rule, 64 cells
   per order statistic). Unlike a single order statistic it does not
   jump when one op near the quantile runs a little faster or slower,
   which on a sample of unlike ops (widths 16 to 64, say) makes it about
   twice as steady from run to run. [nan] on an empty sample. *)
let hd_quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let alpha = q *. float_of_int (n + 1) and beta = (1.0 -. q) *. float_of_int (n + 1) in
    let cells = 64 in
    let log_density =
      Array.init (n * cells) (fun j ->
          let t = (float_of_int j +. 0.5) /. float_of_int (n * cells) in
          ((alpha -. 1.0) *. log t) +. ((beta -. 1.0) *. log (1.0 -. t)))
    in
    let peak = Array.fold_left Float.max Float.neg_infinity log_density in
    let weights = Array.make n 0.0 in
    Array.iteri
      (fun j l -> weights.(j / cells) <- weights.(j / cells) +. exp (l -. peak))
      log_density;
    sum (Array.mapi (fun i x -> weights.(i) *. x) a) /. sum weights

let ratio num den = if den = 0.0 then 0.0 else num /. den

let per n x = ratio x (float_of_int n)

(* --- allocation --- *)

type gc = { minor : float; major : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    major = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor = b.minor -. a.minor;
    major = b.major -. a.major;
    major_collections = b.major_collections - a.major_collections;
  }

let gc_zero = { minor = 0.0; major = 0.0; major_collections = 0 }

let gc_add a b =
  {
    minor = a.minor +. b.minor;
    major = a.major +. b.major;
    major_collections = a.major_collections + b.major_collections;
  }

(* --- /proc probes --- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec loop acc =
          match input_line ic with
          | line -> loop (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        loop [])

(* The value after ["Key:"] on the first line that starts with it. *)
let field lines key =
  let prefix = key ^ ":" in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        Some
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else None)
    lines

(* VmHWM (peak resident set) of [pid], or of this process. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | Some p -> Printf.sprintf "/proc/%d/status" p
    | None -> "/proc/self/status"
  in
  match field (read_lines path) "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> (
      match float_of_string_opt kb with
      | Some kb -> kb /. 1024.0
      | None -> Float.nan)
    | [] -> Float.nan)
  | None -> Float.nan

(* CPUs this process may run on ("0-1,4" -> 3). *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> Option.fold ~none:0 ~some:(fun _ -> 1) (int_of_string_opt a)
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b >= a -> b - a + 1
      | _ -> 0)
    | _ -> 0
  in
  match field (read_lines "/proc/self/status") "Cpus_allowed_list" with
  | Some list ->
    let n =
      List.fold_left
        (fun acc r -> acc + count_range r)
        0
        (String.split_on_char ',' list)
    in
    if n > 0 then n else Domain.recommended_domain_count ()
  | None -> Domain.recommended_domain_count ()

(* The commit of a git checkout at [root], read without running git;
   "unknown" outside one. *)
let git_rev root =
  let git = Filename.concat root ".git" in
  match read_lines (Filename.concat git "HEAD") with
  | head :: _ when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read_lines (Filename.concat git name) with
    | rev :: _ -> String.trim rev
    | [] -> (
      let packed =
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ rev; n ] when n = name -> Some rev
            | _ -> None)
          (read_lines (Filename.concat git "packed-refs"))
      in
      match packed with Some rev -> rev | None -> "unknown"))
  | rev :: _ when String.length (String.trim rev) = 40 -> String.trim rev
  | _ -> "unknown"

(* --- host speed --- *)

module Int_map = Map.Make (Int)

(* A fixed reference kernel: 50,000 pseudo-random inserts into a
   Stdlib map, then a fold over it. Like the program it allocates
   heavily, promotes and chases pointers, so a busy shared host slows
   it about as much as it slows the program; it calls no code of the
   repository, so no change to the program moves it. *)
let ref_kernel_ms () =
  let t0 = now () in
  let state = ref 12345 and m = ref Int_map.empty in
  for _ = 1 to 50_000 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.add (!state land 0xfffff) (float_of_int !state) !m
  done;
  ignore
    (Sys.opaque_identity (Int_map.fold (fun k v acc -> acc +. v +. float_of_int k) !m 0.0));
  (now () -. t0) *. 1e3

(* The kernel's median time on the host the benchmark was defined on
   (a 2-vCPU Xeon VM): end-to-end times are scaled to it. *)
let ref_kernel_nominal_ms = 40.0

(* --- seeded input helpers --- *)

(* The midpoints of [n] equal strata of [0, 1): a fixed sample of [n]
   values with an even spread. Workloads draw their weights at these
   points, so every seed runs the same amount of work and the seed only
   orders it. *)
let grid n = Array.init n (fun k -> (float_of_int k +. 0.5) /. float_of_int n)

let shuffled rng a =
  let a = Array.copy a in
  Msoc_util.Rng.shuffle rng a;
  a

(* Stable text for floats that enter an output digest. *)
let digest_float f = Printf.sprintf "%.17g" f
