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

let time ~patterns si so = ((1 + Int.max si so) * patterns) + Int.min si so

(* --- the kernel --- *)

type kernel = {
  source : Types.core;
  lengths : int array;  (* scan-chain lengths, longest first *)
  positive : int;  (* how many of [lengths] are positive *)
  cells_in : int;  (* scan + input + bidir cells: the scan-in side's total *)
  cells_out : int;  (* scan + output + bidir cells *)
  owner : int array;  (* wrapper chain holding each of [lengths] *)
  max_width : int;
  (* One slot per wrapper chain; a design at width k uses the first k.
     The arrays start at the kernel's guess of the widest design (see
     [kernel]) and double when [run] is asked for a wider one, up to
     [max_width]. *)
  mutable load : int array;  (* scan cells *)
  mutable count : int array;  (* scan chains *)
  mutable ins : int array;  (* input cells *)
  mutable outs : int array;  (* output cells *)
  mutable bids : int array;  (* bidir cells *)
  mutable base : int array;  (* max(si, so) before the bidirs *)
  (* The last design. *)
  mutable used : int;
  mutable si : int;
  mutable so : int;
}

let kernel (core : Types.core) ~max_width =
  if max_width <= 0 then invalid_arg "Design.kernel: max_width must be positive";
  if List.exists (fun l -> l < 0) core.scan_chains then
    invalid_arg "Design.kernel: negative scan-chain length";
  (* [lower_bound] needs T monotone in si and so (patterns >= 0), and
     the levelling's descent a non-negative cell count. *)
  if core.inputs < 0 || core.outputs < 0 || core.bidirs < 0 || core.patterns < 0 then
    invalid_arg "Design.kernel: negative terminal or pattern count";
  let lengths = Array.of_list core.scan_chains in
  Array.sort (fun a b -> Int.compare b a) lengths;
  let scan = Array.fold_left ( + ) 0 lengths in
  let cells_in = scan + core.inputs + core.bidirs and cells_out = scan + core.outputs + core.bidirs in
  (* A staircase rarely designs much past the width where
     [lower_bound] stops falling, ceil (max cells / max 1 L): past it,
     only while its designs miss the bound, and best-fit decreasing
     meets it within a few widths. So the slots start a quarter past
     that width, not at [max_width] ([run] grows them). *)
  let longest = if Array.length lengths = 0 then 1 else Int.max 1 lengths.(0) in
  let settled = (Int.max cells_in cells_out + longest - 1) / longest in
  let slots () = Array.make (Int.min max_width (settled + (settled / 4) + 1)) 0 in
  {
    source = core;
    lengths;
    positive = Array.fold_left (fun n l -> if l > 0 then n + 1 else n) 0 lengths;
    cells_in;
    cells_out;
    owner = Array.make (Array.length lengths) 0;
    max_width;
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
   take the highest level H with need H <= n: every chain below H rises
   to H, and the n - need H cells left over go one each to the
   lowest-index chains at H (fewer cells than chains at H, or H would
   not be the highest). The greedy, which rescans every chain per cell,
   is O(n k).

   H is found from above. For the lowest depth m and the total depth s
   of the k chains, need h >= h - m and need h >= k h - s, so H <= m + n
   and H <= (n + s)/k (rounded down); the search starts at the smaller.
   At a level h with need h > n, let A be the chains below h, holding
   s_A: every h' <= h has need h' >= |A| h' - s_A, so H <= (n + s_A)/|A|,
   which is below h. Each step is one pass over the chains, and the
   search stops at the first h with need h <= n, which is H. A step
   that keeps A stops at the next level, so there are at most k + 1
   passes; on the ITC'02 SOCs at widths up to 1024, at most four. *)
let level load k n cells =
  let lowest = ref load.(0) and total = ref 0 in
  for i = 0 to k - 1 do
    let l = load.(i) in
    if l < !lowest then lowest := l;
    total := !total + l
  done;
  let h = ref (Int.min (!lowest + n) ((n + !total) / k)) and need = ref (n + 1) in
  while !need > n do
    let below = ref 0 and sum = ref 0 in
    need := 0;
    for i = 0 to k - 1 do
      let l = load.(i) in
      if l < !h then begin
        need := !need + !h - l;
        incr below;
        sum := !sum + l
      end
    done;
    if !need > n then h := (n + !sum) / !below
  done;
  let h = !h in
  let spare = ref (n - !need) in
  for i = 0 to k - 1 do
    let l = load.(i) in
    let c = if l < h then h - l else 0 in
    if l <= h && !spare > 0 then begin
      cells.(i) <- c + 1;
      decr spare
    end
    else cells.(i) <- c
  done

(* Slots for a design [k] wide, doubling: [run] keeps nothing in them
   from one design to the next. *)
let grow kn k =
  let slots = Array.make (Int.min kn.max_width (Int.max k (2 * Array.length kn.load))) 0 in
  kn.load <- slots;
  kn.count <- Array.copy slots;
  kn.ins <- Array.copy slots;
  kn.outs <- Array.copy slots;
  kn.bids <- Array.copy slots;
  kn.base <- Array.copy slots

let run kn ~width:k =
  if k <= 0 || k > kn.max_width then invalid_arg "Design.run: width outside 1..max_width";
  if k > Array.length kn.load then grow kn k;
  let { source = core; lengths; owner; load; count; ins; outs; bids; base; _ } = kn in
  (* Best-fit decreasing: each scan chain, longest first, goes to the
     wrapper chain with the least scan load, the lowest index among
     ties. While positive chains fill empty slots, that slot is the
     next empty one, so the first min(positive, k) are placed directly. *)
  let direct = Int.min kn.positive k in
  for j = 0 to direct - 1 do
    owner.(j) <- j;
    load.(j) <- lengths.(j);
    count.(j) <- 1
  done;
  Array.fill load direct (k - direct) 0;
  Array.fill count direct (k - direct) 0;
  for j = direct to Array.length lengths - 1 do
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

let longest kn = if Array.length kn.lengths = 0 then 0 else kn.lengths.(0)

let floor_time kn =
  let l = longest kn in
  time ~patterns:kn.source.Types.patterns l l

(* A top-level function, so the bound allocates no closure. *)
let depth ~longest k cells = Int.max longest ((cells + k - 1) / k)

let lower_bound kn ~width:k =
  if k <= 0 then invalid_arg "Design.lower_bound: width must be positive";
  let longest = longest kn in
  time ~patterns:kn.source.Types.patterns (depth ~longest k kn.cells_in)
    (depth ~longest k kn.cells_out)

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
