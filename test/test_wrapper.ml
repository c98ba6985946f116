(* Tests for Msoc_wrapper: Design_wrapper (its BFD scan-chain
   partition, its levelling and its kernel) and the Pareto staircase. *)

module Types = Msoc_itc02.Types
module Design = Msoc_wrapper.Design
module Pareto = Msoc_wrapper.Pareto

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* The test time the kernel designs for a core at one width. *)
let test_time_at core ~width = Design.run (Design.kernel core ~max_width:width) ~width

let test_time (d : Design.t) = test_time_at d.Design.core ~width:d.Design.width

(* --- Scan-chain partition: the BFD inside Design.design --- *)

(* A core with only scan chains, so each wrapper chain's depth is its
   scan load. Built around [Types.core]'s check so that zero and
   negative lengths reach the partition. *)
let chains_core chains =
  {
    (Types.core ~id:1 ~name:"bfd" ~inputs:0 ~outputs:0 ~bidirs:0 ~scan_chains:[]
       ~patterns:1)
    with
    Types.scan_chains = chains;
  }

(* The deepest wrapper chain's scan load. *)
let max_scan_load chains ~width =
  Array.fold_left
    (fun m c -> max m (List.fold_left ( + ) 0 c.Design.scan))
    0 (Design.design (chains_core chains) ~width).Design.chains

let test_bfd_conserves_items () =
  let items = [ 5; 3; 8; 1; 9; 2 ] in
  let d = Design.design (chains_core items) ~width:3 in
  let all = Array.to_list d.Design.chains |> List.concat_map (fun c -> c.Design.scan) in
  Alcotest.(check (list int)) "items conserved" (List.sort compare items)
    (List.sort compare all)

let test_bfd_loads_consistent () =
  (* The kernel reads si, so and the used width off its buffers; the
     chain records must agree. *)
  let core =
    Types.core ~id:1 ~name:"loads" ~inputs:9 ~outputs:5 ~bidirs:3
      ~scan_chains:[ 7; 7; 7; 7; 1 ] ~patterns:10
  in
  let d = Design.design core ~width:4 in
  let deepest f = Array.fold_left (fun m c -> max m (f c)) 0 d.Design.chains in
  let scan c = List.fold_left ( + ) 0 c.Design.scan in
  let scan_in c = scan c + c.Design.input_cells + c.Design.bidir_cells
  and scan_out c = scan c + c.Design.output_cells + c.Design.bidir_cells in
  checki "si = deepest chain" (deepest scan_in) d.Design.scan_in;
  checki "so = deepest chain" (deepest scan_out) d.Design.scan_out;
  checki "used width = non-empty chains" 4 d.Design.used_width

let test_bfd_balances_equal_items () =
  checki "perfect balance" 5 (max_scan_load [ 5; 5; 5; 5 ] ~width:4)

let test_bfd_single_bin () =
  checki "everything in one bin" 12 (max_scan_load [ 3; 4; 5 ] ~width:1)

let test_bfd_more_bins_than_items () =
  checki "max load is biggest item" 6 (max_scan_load [ 6; 2 ] ~width:10)

let test_bfd_rejects_bad_input () =
  let negative = chains_core [ 3; -1 ] in
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "width 0" (fun () -> ignore (Design.design (chains_core [ 1 ]) ~width:0));
  rejects "negative length" (fun () -> ignore (Design.design negative ~width:2));
  rejects "negative length in a staircase" (fun () ->
      ignore (Pareto.staircase negative ~max_width:4));
  rejects "max_width 0" (fun () -> ignore (Pareto.staircase (chains_core [ 1 ]) ~max_width:0));
  (* The lower bound needs T monotone, and the levelling n >= 0 cells. *)
  rejects "negative inputs" (fun () ->
      ignore (Pareto.staircase { (chains_core [ 1 ]) with Types.inputs = -1 } ~max_width:4));
  rejects "negative patterns" (fun () ->
      ignore (Pareto.staircase { (chains_core [ 1 ]) with Types.patterns = -1 } ~max_width:4));
  let kernel = Design.kernel (chains_core [ 4; 2 ]) ~max_width:3 in
  rejects "run width 0" (fun () -> ignore (Design.run kernel ~width:0));
  rejects "run past max_width" (fun () -> ignore (Design.run kernel ~width:4))

(* --- Design --- *)

let scan_core =
  Types.core ~id:1 ~name:"scan" ~inputs:20 ~outputs:10 ~bidirs:4
    ~scan_chains:[ 120; 80; 80; 40 ] ~patterns:100

let comb_core =
  Types.core ~id:2 ~name:"comb" ~inputs:60 ~outputs:30 ~bidirs:0 ~scan_chains:[]
    ~patterns:500

let test_design_depths () =
  let d = Design.design scan_core ~width:2 in
  (* BFD over 2 bins: {120, 40} vs {80, 80} -> both 160 scan cells;
     I/O cells level on top. *)
  checkb "si >= scan partition depth" true (d.Design.scan_in >= 160);
  checkb "si accounts inputs" true
    (d.Design.scan_in <= 160 + ((20 + 4) / 2) + 1 + 4);
  checki "uses both chains" 2 d.Design.used_width

let test_design_test_time_formula () =
  let d = Design.design scan_core ~width:4 in
  let si = d.Design.scan_in and so = d.Design.scan_out in
  checki "T matches formula" (((1 + max si so) * 100) + min si so) (test_time d)

let test_design_width_one () =
  let d = Design.design scan_core ~width:1 in
  checki "all scan on one chain" (320 + 20 + 4) d.Design.scan_in;
  checki "scan out side" (320 + 10 + 4) d.Design.scan_out

let test_design_combinational () =
  let d = Design.design comb_core ~width:6 in
  checki "inputs spread over 6" 10 d.Design.scan_in;
  checki "outputs spread over 6" 5 d.Design.scan_out;
  checkb "time = (1+si)*p + so" true (test_time d = ((1 + 10) * 500) + 5)

let test_design_used_width_bounded () =
  let d = Design.design comb_core ~width:200 in
  checkb "cannot use more chains than cells" true (d.Design.used_width <= 90);
  checkb "at least one" true (d.Design.used_width >= 1)

let test_design_monotone_enough () =
  (* Doubling the width never increases the designed test time. *)
  let t1 = test_time_at scan_core ~width:1 in
  let t2 = test_time_at scan_core ~width:2 in
  let t4 = test_time_at scan_core ~width:4 in
  checkb "staircase trend" true (t1 >= t2 && t2 >= t4)

let test_design_rejects_zero_width () =
  match Design.design scan_core ~width:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 0 accepted"

(* --- Pareto --- *)

let test_staircase_strictly_decreasing () =
  let points = Pareto.points (Pareto.staircase scan_core ~max_width:16) in
  let rec check_pairs = function
    | (a : Pareto.point) :: (b : Pareto.point) :: rest ->
      checkb "width increases" true (b.Pareto.width > a.Pareto.width);
      checkb "time decreases" true (b.Pareto.time < a.Pareto.time);
      check_pairs (b :: rest)
    | [ _ ] | [] -> ()
  in
  check_pairs points

let test_staircase_time_at () =
  let s = Pareto.staircase scan_core ~max_width:16 in
  checki "time at min width" (test_time_at scan_core ~width:1)
    (Pareto.time_at s ~width:1);
  checkb "wider never slower" true
    (Pareto.time_at s ~width:16 <= Pareto.time_at s ~width:2);
  (* Querying beyond the widest point returns the widest time. *)
  checki "saturates" (Pareto.min_time s) (Pareto.time_at s ~width:1000)

let test_staircase_below_min_width () =
  let s = Pareto.fixed ~width:4 ~time:100 in
  match Pareto.time_at s ~width:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width below minimum accepted"

let test_fixed_staircase () =
  let s = Pareto.fixed ~width:5 ~time:42 in
  checki "min width" 5 (Pareto.min_width s);
  checki "min time" 42 (Pareto.min_time s);
  checki "time past the point" 42 (Pareto.time_at s ~width:60)

let test_staircase_dominance_vs_design () =
  (* Every staircase point is at least as good as the raw design at
     the same width (the frontier may only improve on it). *)
  let s = Pareto.staircase scan_core ~max_width:12 in
  List.iter
    (fun (p : Pareto.point) ->
      checkb "frontier beats or ties design" true
        (p.Pareto.time <= test_time_at scan_core ~width:p.Pareto.width))
    (Pareto.points s)

(* Every staircase point, for every core of three SOCs at every
   max_width 1..64, hashed. The digest was taken with the cell-by-cell
   greedy that [Reference] keeps, so any change to what Design_wrapper
   builds shows here. *)
let golden_staircase_digest = "cb6fc6713d97a0fce6e889c78ca5e8ce"

let test_staircase_golden () =
  let socs =
    [
      Msoc_itc02.Soc_file.load "../data/p93791s.soc";
      Msoc_itc02.Synthetic.p22810s ();
      Msoc_itc02.Synthetic.d281s ();
    ]
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (soc : Types.soc) ->
      List.iter
        (fun (core : Types.core) ->
          for w = 1 to 64 do
            Printf.bprintf buf "%s/%d/%d:" soc.Types.name core.Types.id w;
            List.iter
              (fun (p : Pareto.point) -> Printf.bprintf buf " %d,%d" p.Pareto.width p.Pareto.time)
              (Pareto.points (Pareto.staircase core ~max_width:w));
            Buffer.add_char buf '\n'
          done)
        soc.Types.cores)
    socs;
  Alcotest.(check string) "staircase digest" golden_staircase_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Reference: the cell-by-cell greedy Design_wrapper --- *)

(* The cell-by-cell greedy, kept as the reference: each cell in turn
   tops up the chain with the smallest load, rescanning every chain.
   [Design.design] must build exactly what this builds, and
   [Pareto.staircase] must keep exactly the frontier [staircase] keeps
   from designing every width. *)
module Reference = struct
  open Design

  let chain_scan_in c = List.fold_left ( + ) 0 c.scan + c.input_cells + c.bidir_cells

  let chain_scan_out c = List.fold_left ( + ) 0 c.scan + c.output_cells + c.bidir_cells

  (* the closed form T = (1 + max(si, so)) * p + min(si, so) *)
  let test_time d =
    ((1 + Int.max d.scan_in d.scan_out) * d.core.Types.patterns) + Int.min d.scan_in d.scan_out

  type 'a bin = { load : int; items : 'a list }

  (* Best-fit decreasing: sort items by decreasing weight, always place
     into the currently shortest bin (the lowest index among ties). *)
  let bfd ~k ~weight items =
    if k <= 0 then invalid_arg "Partition.bfd: k must be positive";
    if List.exists (fun it -> weight it < 0) items then
      invalid_arg "Partition.bfd: negative weight";
    let bins = Array.make k { load = 0; items = [] } in
    let sorted = List.sort (fun a b -> compare (weight b) (weight a)) items in
    let shortest () =
      let best = ref 0 in
      for i = 1 to k - 1 do
        if bins.(i).load < bins.(!best).load then best := i
      done;
      !best
    in
    let place it =
      let i = shortest () in
      bins.(i) <- { load = bins.(i).load + weight it; items = it :: bins.(i).items }
    in
    List.iter place sorted;
    (* Heavier-first within a bin: items were placed in decreasing weight
       order, so reversing the accumulated list restores it. *)
    Array.map (fun b -> { b with items = List.rev b.items }) bins

  (* Level [n] unit cells onto the bins, each time topping up the bin
     whose [load] is currently smallest. O(n*k) with tiny constants; the
     largest ITC'02-class cores have a few hundred terminals. *)
  let level_cells ~load ~add bins n =
    for _ = 1 to n do
      let best = ref 0 in
      for i = 1 to Array.length bins - 1 do
        if load bins.(i) < load bins.(!best) then best := i
      done;
      bins.(!best) <- add bins.(!best)
    done

  let design (core : Types.core) ~width =
    if width <= 0 then invalid_arg "Design.design: width must be positive";
    let scan_bins = bfd ~k:width ~weight:Fun.id core.scan_chains in
    let chains =
      Array.map
        (fun (b : int bin) ->
          { scan = b.items; input_cells = 0; output_cells = 0; bidir_cells = 0 })
        scan_bins
    in
    level_cells
      ~load:chain_scan_in
      ~add:(fun c -> { c with input_cells = c.input_cells + 1 })
      chains core.inputs;
    level_cells
      ~load:chain_scan_out
      ~add:(fun c -> { c with output_cells = c.output_cells + 1 })
      chains core.outputs;
    (* A bidirectional cell deepens both sides, so place it where it
       least increases max(si, so). *)
    level_cells
      ~load:(fun c -> max (chain_scan_in c) (chain_scan_out c))
      ~add:(fun c -> { c with bidir_cells = c.bidir_cells + 1 })
      chains core.bidirs;
    let non_empty c =
      c.scan <> [] || c.input_cells + c.output_cells + c.bidir_cells > 0
    in
    let used_width = Array.fold_left (fun n c -> if non_empty c then n + 1 else n) 0 chains in
    let scan_in = Array.fold_left (fun m c -> max m (chain_scan_in c)) 0 chains in
    let scan_out = Array.fold_left (fun m c -> max m (chain_scan_out c)) 0 chains in
    { core; width; used_width = max 1 used_width; chains; scan_in; scan_out }

  (* The frontier fold over every width 1..max_width: no kernel and no
     early exit. *)
  let staircase core ~max_width : Pareto.point list =
    if max_width <= 0 then invalid_arg "Pareto.staircase: max_width must be positive";
    let add (frontier : Pareto.point list) w =
      let d = design core ~width:w in
      let time = test_time d in
      (* Use the wires the design actually occupies, not the budget: a
         64-wide budget on a 3-chain combinational core may build only a
         handful of non-empty chains. *)
      let width = d.used_width in
      match frontier with
      | [] -> [ { Pareto.width; time } ]
      | best :: _ ->
        if time < best.time && width > best.width then { width; time } :: frontier
        else if time < best.time && width <= best.width then
          (* strictly better at no more wires: replace dominated points *)
          { width; time } :: List.filter (fun (p : Pareto.point) -> p.width < width) frontier
        else frontier
    in
    let frontier = List.fold_left add [] (List.init max_width (fun i -> i + 1)) in
    List.rev frontier
end

let qcheck_tests =
  let open QCheck in
  let core_arb =
    make
      (let open Gen in
       let* inputs = int_range 1 200 in
       let* outputs = int_range 1 150 in
       let* bidirs = int_range 0 40 in
       let* chains = list_size (int_range 0 10) (int_range 10 400) in
       let* patterns = int_range 1 2000 in
       return
         (Types.core ~id:1 ~name:"q" ~inputs ~outputs ~bidirs ~scan_chains:chains
            ~patterns))
  in
  (* Cores [core_arb] never draws: no inputs, outputs or bidirs, up to
     40 scan chains with many equal lengths (ties between chains), and
     widths up to 96, often more wrapper chains than cells. *)
  let terminals hi = Gen.frequency [ (1, Gen.return 0); (3, Gen.int_range 0 hi) ] in
  let chain_length =
    Gen.frequency
      [ (1, Gen.int_range 1 400); (2, Gen.map (fun x -> 20 * x) (Gen.int_range 1 4)) ]
  in
  let design_core =
    let open Gen in
    let* inputs = terminals 200 in
    let* outputs = terminals 150 in
    let* bidirs = terminals 40 in
    let* chains = list_size (int_range 0 40) chain_length in
    return (inputs, outputs, bidirs, chains)
  in
  let design_arb =
    make
      ~print:(fun ((c : Types.core), w) ->
        Printf.sprintf "width %d, inputs %d, outputs %d, bidirs %d, chains [%s]" w
          c.Types.inputs c.Types.outputs c.Types.bidirs
          (String.concat "; " (List.map string_of_int c.Types.scan_chains)))
      (let open Gen in
       let* inputs, outputs, bidirs, chains = design_core in
       let* width = int_range 1 96 in
       return
         ( Types.core ~id:1 ~name:"q" ~inputs ~outputs ~bidirs ~scan_chains:chains
             ~patterns:1,
           width ))
  in
  (* [design_arb]'s cores with patterns 1..2000, so T trades si against
     so as real cores do, and a max_width of 1..96; plus cores whose
     floor comes at width 1 (one scan chain, no terminals) and
     combinational cores with more terminals than max_width, which never
     reach their floor and sweep every width. *)
  let sweep_arb =
    make
      ~print:(fun ((c : Types.core), max_width) ->
        Printf.sprintf
          "max_width %d, patterns %d, inputs %d, outputs %d, bidirs %d, chains [%s]"
          max_width c.Types.patterns c.Types.inputs c.Types.outputs c.Types.bidirs
          (String.concat "; " (List.map string_of_int c.Types.scan_chains)))
      (let open Gen in
       let* max_width = int_range 1 96 in
       let* patterns = int_range 1 2000 in
       let floor_at_one = map (fun l -> (0, 0, 0, [ l ])) chain_length in
       let combinational =
         let* inputs = int_range (max_width + 1) (max_width + 200) in
         let* outputs = terminals 150 in
         let* bidirs = terminals 40 in
         return (inputs, outputs, bidirs, [])
       in
       let* inputs, outputs, bidirs, chains =
         frequency [ (6, design_core); (1, floor_at_one); (1, combinational) ]
       in
       return
         ( Types.core ~id:1 ~name:"q" ~inputs ~outputs ~bidirs ~scan_chains:chains
             ~patterns,
           max_width ))
  in
  [
    Test.make ~name:"bfd max load >= ceil(total/k) and >= max item" ~count:300
      (pair (int_range 1 16) (list_of_size (Gen.int_range 1 30) (int_range 0 500)))
      (fun (k, items) ->
        let total = List.fold_left ( + ) 0 items in
        let biggest = List.fold_left max 0 items in
        let load = max_scan_load items ~width:k in
        load >= (total + k - 1) / k && load >= biggest);
    Test.make ~name:"bfd within 4/3 OPT bound for makespan" ~count:300
      (pair (int_range 1 8) (list_of_size (Gen.int_range 1 20) (int_range 1 100)))
      (fun (k, items) ->
        let total = List.fold_left ( + ) 0 items in
        let biggest = List.fold_left max 0 items in
        let opt_lb = max biggest ((total + k - 1) / k) in
        (* LPT guarantee: load <= (4/3 - 1/(3k)) OPT *)
        3 * max_scan_load items ~width:k <= 4 * opt_lb + biggest);
    Test.make ~name:"staircase monotone for random cores" ~count:100 core_arb
      (fun core ->
        let points = Pareto.points (Pareto.staircase core ~max_width:20) in
        let rec ok = function
          | (a : Pareto.point) :: (b : Pareto.point) :: rest ->
            a.Pareto.width < b.Pareto.width && a.Pareto.time > b.Pareto.time
            && ok (b :: rest)
          | [ _ ] | [] -> true
        in
        ok points);
    Test.make ~name:"design si/so bound the per-chain loads" ~count:100 core_arb
      (fun core ->
        let d = Design.design core ~width:6 in
        Array.for_all
          (fun c ->
            Reference.chain_scan_in c <= d.Design.scan_in
            && Reference.chain_scan_out c <= d.Design.scan_out)
          d.Design.chains);
    Test.make ~name:"design equals the cell-by-cell reference" ~count:1000
      design_arb (fun (core, width) ->
        Design.design core ~width = Reference.design core ~width);
    Test.make ~name:"staircase equals the every-width reference sweep" ~count:500
      sweep_arb (fun (core, max_width) ->
        Pareto.points (Pareto.staircase core ~max_width)
        = Reference.staircase core ~max_width);
    Test.make ~name:"lower bound <= the design at every width 1..96" ~count:300
      sweep_arb (fun (core, _) ->
        let kernel = Design.kernel core ~max_width:96 in
        List.for_all
          (fun width -> Design.lower_bound kernel ~width <= Design.run kernel ~width)
          (List.init 96 succ));
    Test.make ~name:"design conserves cells" ~count:100 core_arb
      (fun core ->
        let d = Design.design core ~width:5 in
        let ins = Array.fold_left (fun a c -> a + c.Design.input_cells) 0 d.Design.chains in
        let outs = Array.fold_left (fun a c -> a + c.Design.output_cells) 0 d.Design.chains in
        let bids = Array.fold_left (fun a c -> a + c.Design.bidir_cells) 0 d.Design.chains in
        let scan =
          Array.fold_left
            (fun a c -> a + List.fold_left ( + ) 0 c.Design.scan)
            0 d.Design.chains
        in
        ins = core.Types.inputs && outs = core.Types.outputs
        && bids = core.Types.bidirs
        && scan = Types.scan_cells core);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "wrapper.partition",
      [
        Alcotest.test_case "conserves items" `Quick test_bfd_conserves_items;
        Alcotest.test_case "loads consistent" `Quick test_bfd_loads_consistent;
        Alcotest.test_case "balances equal items" `Quick test_bfd_balances_equal_items;
        Alcotest.test_case "single bin" `Quick test_bfd_single_bin;
        Alcotest.test_case "more bins than items" `Quick test_bfd_more_bins_than_items;
        Alcotest.test_case "rejects bad input" `Quick test_bfd_rejects_bad_input;
      ] );
    ( "wrapper.design",
      [
        Alcotest.test_case "depths" `Quick test_design_depths;
        Alcotest.test_case "test time formula" `Quick test_design_test_time_formula;
        Alcotest.test_case "width one" `Quick test_design_width_one;
        Alcotest.test_case "combinational" `Quick test_design_combinational;
        Alcotest.test_case "used width bounded" `Quick test_design_used_width_bounded;
        Alcotest.test_case "monotone trend" `Quick test_design_monotone_enough;
        Alcotest.test_case "rejects zero width" `Quick test_design_rejects_zero_width;
      ] );
    ( "wrapper.pareto",
      [
        Alcotest.test_case "strictly decreasing" `Quick test_staircase_strictly_decreasing;
        Alcotest.test_case "time_at" `Quick test_staircase_time_at;
        Alcotest.test_case "below min width" `Quick test_staircase_below_min_width;
        Alcotest.test_case "fixed point" `Quick test_fixed_staircase;
        Alcotest.test_case "dominates raw design" `Quick test_staircase_dominance_vs_design;
        Alcotest.test_case "golden staircases" `Quick test_staircase_golden;
      ] );
    ("wrapper.properties", qcheck_tests);
  ]
