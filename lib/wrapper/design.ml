module Types = Msoc_itc02.Types

type chain = {
  scan : int list;
  input_cells : int;
  output_cells : int;
  bidir_cells : int;
}

type t = {
  core : Types.core;
  width : int;
  used_width : int;
  chains : chain array;
  scan_in : int;
  scan_out : int;
}

let chain_scan_in c =
  Msoc_util.Numeric.sum_int c.scan + c.input_cells + c.bidir_cells

let chain_scan_out c =
  Msoc_util.Numeric.sum_int c.scan + c.output_cells + c.bidir_cells

let time ~patterns si so = ((1 + Int.max si so) * patterns) + Int.min si so

let test_time t = time ~patterns:t.core.Types.patterns t.scan_in t.scan_out

(* --- the kernel --- *)

type kernel = {
  source : Types.core;
  lengths : int array;  (* scan-chain lengths, longest first *)
  owner : int array;  (* wrapper chain holding each of [lengths] *)
  (* One slot per wrapper chain; a design at width k uses the first k. *)
  load : int array;  (* scan cells *)
  count : int array;  (* scan chains *)
  ins : int array;  (* input cells *)
  outs : int array;  (* output cells *)
  bids : int array;  (* bidir cells *)
  base : int array;  (* max(si, so) before the bidirs *)
  (* The last design. *)
  mutable used : int;
  mutable si : int;
  mutable so : int;
}

let kernel (core : Types.core) ~max_width =
  if max_width <= 0 then invalid_arg "Design.kernel: max_width must be positive";
  if List.exists (fun l -> l < 0) core.scan_chains then
    invalid_arg "Design.kernel: negative scan-chain length";
  let lengths = Array.of_list core.scan_chains in
  Array.sort (fun a b -> Int.compare b a) lengths;
  let slots () = Array.make max_width 0 in
  {
    source = core;
    lengths;
    owner = Array.make (Array.length lengths) 0;
    load = slots ();
    count = slots ();
    ins = slots ();
    outs = slots ();
    bids = slots ();
    base = slots ();
    used = 1;
    si = 0;
    so = 0;
  }

(* The cells each chain receives when [n] unit cells are levelled onto
   the first [k] chains of depths [load], one at a time, each topping up
   the least-loaded chain (the lowest index among ties). That greedy's
   end state has a closed form. With need h = sum_i max 0 (h - load.(i)),
   take the highest level h with need h <= n: every chain below h rises
   to h, and the n - need h cells left over go one each to the
   lowest-index chains at h (fewer cells than chains at h, or h would
   not be the highest). O(k log n); the greedy, which rescans every
   chain per cell, is O(n k). [need] and [highest] are top-level so the
   levelling allocates no closure. *)
let need load k h =
  let acc = ref 0 in
  for i = 0 to k - 1 do
    let d = h - load.(i) in
    if d > 0 then acc := !acc + d
  done;
  !acc

(* need lo <= n < need (hi + 1) *)
let rec highest load k n lo hi =
  if lo = hi then lo
  else
    let mid = lo + ((hi - lo + 1) / 2) in
    if need load k mid <= n then highest load k n mid hi
    else highest load k n lo (mid - 1)

let level load k n cells =
  let lowest = ref load.(0) in
  for i = 1 to k - 1 do
    lowest := Int.min !lowest load.(i)
  done;
  let h = highest load k n !lowest (!lowest + n) in
  let spare = ref (n - need load k h) in
  for i = 0 to k - 1 do
    let l = load.(i) in
    let c = if l < h then h - l else 0 in
    if l <= h && !spare > 0 then begin
      cells.(i) <- c + 1;
      decr spare
    end
    else cells.(i) <- c
  done

let run kn ~width:k =
  if k <= 0 || k > Array.length kn.load then
    invalid_arg "Design.run: width outside 1..max_width";
  let { source = core; lengths; owner; load; count; ins; outs; bids; base; _ } = kn in
  Array.fill load 0 k 0;
  Array.fill count 0 k 0;
  (* Best-fit decreasing: each scan chain, longest first, goes to the
     wrapper chain with the least scan load, the lowest index among
     ties. *)
  for j = 0 to Array.length lengths - 1 do
    let best = ref 0 in
    for i = 1 to k - 1 do
      if load.(i) < load.(!best) then best := i
    done;
    owner.(j) <- !best;
    load.(!best) <- load.(!best) + lengths.(j);
    count.(!best) <- count.(!best) + 1
  done;
  level load k core.inputs ins;
  level load k core.outputs outs;
  (* A bidirectional cell deepens both sides, so place it where it
     least increases max(si, so). *)
  for i = 0 to k - 1 do
    base.(i) <- load.(i) + Int.max ins.(i) outs.(i)
  done;
  level base k core.bidirs bids;
  let used = ref 0 and si = ref 0 and so = ref 0 in
  for i = 0 to k - 1 do
    if count.(i) > 0 || ins.(i) + outs.(i) + bids.(i) > 0 then incr used;
    si := Int.max !si (load.(i) + ins.(i) + bids.(i));
    so := Int.max !so (load.(i) + outs.(i) + bids.(i))
  done;
  kn.used <- Int.max 1 !used;
  kn.si <- !si;
  kn.so <- !so;
  time ~patterns:core.patterns !si !so

let used_width kn = kn.used

let floor_time kn =
  let longest = if Array.length kn.lengths = 0 then 0 else kn.lengths.(0) in
  time ~patterns:kn.source.Types.patterns longest longest

let design core ~width =
  if width <= 0 then invalid_arg "Design.design: width must be positive";
  let kn = kernel core ~max_width:width in
  ignore (run kn ~width);
  (* Walking the scan chains shortest first and consing leaves each
     wrapper chain's list longest first. *)
  let scan = Array.make width [] in
  for j = Array.length kn.lengths - 1 downto 0 do
    scan.(kn.owner.(j)) <- kn.lengths.(j) :: scan.(kn.owner.(j))
  done;
  let chains =
    Array.init width (fun i ->
        {
          scan = scan.(i);
          input_cells = kn.ins.(i);
          output_cells = kn.outs.(i);
          bidir_cells = kn.bids.(i);
        })
  in
  { core; width; used_width = kn.used; chains; scan_in = kn.si; scan_out = kn.so }

let test_time_at core ~width = test_time (design core ~width)
