(* Tests for Msoc_util: deterministic RNG, combinatorics, tables and
   numeric helpers. *)

module Rng = Msoc_util.Rng
module Combinat = Msoc_util.Combinat
module Table = Msoc_util.Ascii_table
module Numeric = Msoc_util.Numeric

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Rng --- *)

let draw_bits rng = Int64.bits_of_float (Rng.float rng ~bound:1.0)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (draw_bits a) (draw_bits b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = List.init 16 (fun _ -> draw_bits a = draw_bits b) in
  checkb "streams differ" true (List.exists not same)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng ~bound:7 in
    checkb "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng ~bound:0))

let test_rng_int_in_inclusive () =
  let rng = Rng.create ~seed:4 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Rng.int_in rng ~lo:3 ~hi:5 in
    checkb "in [3,5]" true (v >= 3 && v <= 5);
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true
  done;
  checkb "lo reached" true !seen_lo;
  checkb "hi reached" true !seen_hi

let test_rng_float_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng ~bound:2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_float_mean () =
  let rng = Rng.create ~seed:6 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng ~bound:1.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_pick_shuffle () =
  let rng = Rng.create ~seed:8 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 50 do
    checkb "pick member" true (Array.mem (Rng.pick rng arr) arr)
  done;
  let arr2 = Array.init 20 Fun.id in
  Rng.shuffle rng arr2;
  let sorted = Array.copy arr2 in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 20 Fun.id) sorted

let test_rng_log_uniform () =
  let rng = Rng.create ~seed:9 in
  let lows = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    let v = Rng.log_uniform_int rng ~lo:10 ~hi:10_000 in
    checkb "in range" true (v >= 10 && v <= 10_000);
    if v < 100 then incr lows
  done;
  (* log-uniform: ~1/3 of draws per decade, far more than uniform's ~1%. *)
  checkb "log-uniform favors small values" true (!lows > n / 5)

(* --- Combinat --- *)

let set_partitions xs = List.of_seq (Combinat.set_partitions_seq xs)

let test_set_partitions_counts () =
  List.iter
    (fun (n, bell) ->
      let xs = List.init n Fun.id in
      checki (Printf.sprintf "Bell(%d)" n) bell (List.length (set_partitions xs)))
    [ (0, 1); (1, 1); (2, 2); (3, 5); (4, 15); (5, 52); (6, 203) ]

let test_set_partitions_are_partitions () =
  let xs = [ 1; 2; 3; 4 ] in
  List.iter
    (fun p ->
      let flat = List.concat p |> List.sort compare in
      check Alcotest.(list int) "covers all elements" xs flat;
      checkb "no empty blocks" true (List.for_all (fun b -> b <> []) p))
    (set_partitions xs)

let test_set_partitions_distinct () =
  let xs = [ 1; 2; 3; 4; 5 ] in
  let canon p = List.map (List.sort compare) p |> List.sort compare in
  let keys = List.map canon (set_partitions xs) in
  checki "all distinct" 52 (List.length (List.sort_uniq compare keys))

let test_bell_number () =
  checki "Bell 0" 1 (Combinat.bell_number 0);
  checki "Bell 5" 52 (Combinat.bell_number 5);
  checki "Bell 10" 115975 (Combinat.bell_number 10)

let test_bell_matches_enumeration () =
  for n = 0 to 7 do
    checki
      (Printf.sprintf "bell(%d) = #partitions" n)
      (Combinat.bell_number n)
      (List.length (set_partitions (List.init n Fun.id)))
  done

let test_pairs () =
  check Alcotest.(list (pair int int)) "pairs of 3" [ (1, 2); (1, 3); (2, 3) ]
    (Combinat.pairs [ 1; 2; 3 ]);
  checki "C(5,2)" 10 (List.length (Combinat.pairs [ 1; 2; 3; 4; 5 ]))

let test_block_sizes () =
  check Alcotest.(list int) "sorted descending" [ 3; 2; 1 ]
    (Combinat.partitions_with_block_sizes [ [ 1 ]; [ 2; 3 ]; [ 4; 5; 6 ] ])

let test_group_by () =
  let grouped = Combinat.group_by (fun x -> x mod 3) [ 0; 1; 2; 3; 4; 5; 6 ] in
  check Alcotest.(list (pair int (list int))) "groups in first-seen order"
    [ (0, [ 0; 3; 6 ]); (1, [ 1; 4 ]); (2, [ 2; 5 ]) ]
    grouped

(* --- Ascii_table --- *)

let test_table_render () =
  let columns = [ Table.column "name"; Table.column ~align:Table.Right "n" ] in
  let out = Table.render ~columns ~rows:[ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  checkb "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  checki "header + sep + 2 rows + trailing" 5 (List.length lines);
  (* all lines same width *)
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  checkb "aligned" true (List.for_all (fun w -> w = List.nth widths 0) widths)

let test_table_pads_short_rows () =
  let columns = [ Table.column "a"; Table.column "b" ] in
  let out = Table.render ~columns ~rows:[ [ "only" ] ] in
  checkb "renders" true (String.length out > 0)

let test_table_rejects_wide_rows () =
  let columns = [ Table.column "a" ] in
  Alcotest.check_raises "wide row" (Invalid_argument "Ascii_table.render: row wider than header")
    (fun () -> ignore (Table.render ~columns ~rows:[ [ "x"; "y" ] ]))

let test_int_cell () =
  check Alcotest.string "thousands" "1,234,567" (Table.int_cell 1_234_567);
  check Alcotest.string "small" "42" (Table.int_cell 42);
  check Alcotest.string "negative" "-1,000" (Table.int_cell (-1000));
  check Alcotest.string "zero" "0" (Table.int_cell 0)

let test_float_cell () =
  check Alcotest.string "one decimal" "61.5" (Table.float_cell 61.53);
  check Alcotest.string "two decimals" "2.45" (Table.float_cell ~decimals:2 2.449)

(* --- Numeric --- *)

let test_close () =
  checkb "equal" true (Numeric.close 1.0 1.0);
  checkb "tiny rel diff" true (Numeric.close 1.0 (1.0 +. 1e-12));
  checkb "big diff" false (Numeric.close 1.0 1.1)

let test_percent_of () =
  check Alcotest.(float 1e-9) "50%" 50.0 (Numeric.percent_of 1.0 2.0);
  Alcotest.check_raises "zero whole" (Invalid_argument "Numeric.percent_of: zero whole")
    (fun () -> ignore (Numeric.percent_of 1.0 0.0))

let test_ceil_div () =
  checki "exact" 3 (Numeric.ceil_div 9 3);
  checki "round up" 4 (Numeric.ceil_div 10 3);
  checki "zero" 0 (Numeric.ceil_div 0 5)

(* the inverse [db] must have: amplitude from decibels *)
let from_db d = Float.pow 10.0 (d /. 20.0)

let test_db_roundtrip () =
  checkb "db(1) = 0" true (Numeric.close (Numeric.db 1.0) 0.0 ~abs_tol:1e-9);
  checkb "-3dB magnitude" true
    (Numeric.close ~rel:1e-3 (Numeric.db (1.0 /. Float.sqrt 2.0)) (-3.0103));
  checkb "roundtrip" true (Numeric.close (from_db (Numeric.db 0.35)) 0.35)

let test_clamp () =
  checki "clamped lo" 1 (Numeric.clamp_int ~lo:1 ~hi:9 (-2));
  checki "clamped hi" 9 (Numeric.clamp_int ~lo:1 ~hi:9 12)

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"set_partitions count = bell_number"
      (int_range 0 7)
      (fun n ->
        List.length (set_partitions (List.init n Fun.id))
        = Combinat.bell_number n);
    Test.make ~name:"ceil_div a b is smallest q with q*b >= a"
      (pair (int_range 0 10000) (int_range 1 500))
      (fun (a, b) ->
        let q = Numeric.ceil_div a b in
        (q * b >= a) && ((q - 1) * b < a));
    Test.make ~name:"rng int_in stays inclusive"
      (pair small_int (pair (int_range (-50) 50) (int_range 0 100)))
      (fun (seed, (lo, span)) ->
        let rng = Rng.create ~seed in
        let v = Rng.int_in rng ~lo ~hi:(lo + span) in
        v >= lo && v <= lo + span);
    Test.make ~name:"group_by preserves all elements"
      (list (int_range 0 20))
      (fun xs ->
        let grouped = Combinat.group_by (fun x -> x mod 4) xs in
        let flat = List.concat_map snd grouped in
        List.sort compare flat = List.sort compare xs);
    Test.make ~name:"from_db inverts db"
      (float_range 1e-6 1e6)
      (fun x -> Numeric.close ~rel:1e-9 (from_db (Numeric.db x)) x);
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in_inclusive;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "float mean" `Quick test_rng_float_mean;
        Alcotest.test_case "pick and shuffle" `Quick test_rng_pick_shuffle;
        Alcotest.test_case "log uniform" `Quick test_rng_log_uniform;
      ] );
    ( "util.combinat",
      [
        Alcotest.test_case "partition counts" `Quick test_set_partitions_counts;
        Alcotest.test_case "partitions valid" `Quick test_set_partitions_are_partitions;
        Alcotest.test_case "partitions distinct" `Quick test_set_partitions_distinct;
        Alcotest.test_case "bell numbers" `Quick test_bell_number;
        Alcotest.test_case "bell matches enumeration" `Quick test_bell_matches_enumeration;
        Alcotest.test_case "pairs" `Quick test_pairs;
        Alcotest.test_case "block sizes" `Quick test_block_sizes;
        Alcotest.test_case "group_by" `Quick test_group_by;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
        Alcotest.test_case "rejects wide rows" `Quick test_table_rejects_wide_rows;
        Alcotest.test_case "int cell" `Quick test_int_cell;
        Alcotest.test_case "float cell" `Quick test_float_cell;
      ] );
    ( "util.numeric",
      [
        Alcotest.test_case "close" `Quick test_close;
        Alcotest.test_case "percent_of" `Quick test_percent_of;
        Alcotest.test_case "ceil_div" `Quick test_ceil_div;
        Alcotest.test_case "db" `Quick test_db_roundtrip;
        Alcotest.test_case "clamp" `Quick test_clamp;
      ] );
    ("util.properties", qcheck_tests);
  ]
