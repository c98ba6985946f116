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

(* The cells each chain receives when [n] unit cells are levelled onto
   chains of depths [load], one at a time, each topping up the
   least-loaded chain (the lowest index among ties). That greedy's end
   state has a closed form. With need h = sum_i max 0 (h - load.(i)),
   take the highest level h with need h <= n: every chain below h rises
   to h, and the n - need h cells left over go one each to the
   lowest-index chains at h (fewer cells than chains at h, or h would
   not be the highest). O(k log n) for k chains; the greedy, which
   rescans every chain per cell, is O(n k). *)
let level load n =
  let need h = Array.fold_left (fun acc l -> acc + max 0 (h - l)) 0 load in
  (* need lo <= n < need (hi + 1) *)
  let rec highest lo hi =
    if lo = hi then lo
    else
      let mid = lo + ((hi - lo + 1) / 2) in
      if need mid <= n then highest mid hi else highest lo (mid - 1)
  in
  let lowest = Array.fold_left min max_int load in
  let h = highest lowest (lowest + n) in
  let cells = Array.map (fun l -> max 0 (h - l)) load in
  let spare = ref (n - need h) in
  Array.iteri
    (fun i l ->
      if l <= h && !spare > 0 then begin
        cells.(i) <- cells.(i) + 1;
        decr spare
      end)
    load;
  cells

let design (core : Types.core) ~width =
  if width <= 0 then invalid_arg "Design.design: width must be positive";
  let bins = Partition.bfd ~k:width ~weight:Fun.id core.scan_chains in
  let scan = Array.map (fun (b : int Partition.bin) -> b.load) bins in
  let inputs = level scan core.inputs in
  let outputs = level scan core.outputs in
  let si = Array.map2 ( + ) scan inputs and so = Array.map2 ( + ) scan outputs in
  (* A bidirectional cell deepens both sides, so place it where it
     least increases max(si, so). *)
  let bidirs = level (Array.map2 max si so) core.bidirs in
  let chains =
    Array.mapi
      (fun i (b : int Partition.bin) ->
        {
          scan = b.items;
          input_cells = inputs.(i);
          output_cells = outputs.(i);
          bidir_cells = bidirs.(i);
        })
      bins
  in
  let non_empty c =
    c.scan <> [] || c.input_cells + c.output_cells + c.bidir_cells > 0
  in
  let used_width = Array.fold_left (fun n c -> if non_empty c then n + 1 else n) 0 chains in
  let scan_in = Array.fold_left (fun m c -> max m (chain_scan_in c)) 0 chains in
  let scan_out = Array.fold_left (fun m c -> max m (chain_scan_out c)) 0 chains in
  { core; width; used_width = max 1 used_width; chains; scan_in; scan_out }

let test_time t =
  let si = t.scan_in and so = t.scan_out in
  ((1 + max si so) * t.core.Types.patterns) + min si so

let test_time_at core ~width = test_time (design core ~width)
