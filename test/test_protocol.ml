(* Tests for the protocol-level models: the cycle-accurate scan
   simulation (test/scan_sim.ml, which must re-derive the closed-form
   test time), sigma-delta conversion, and the test-data volume
   analysis. *)

module Types = Msoc_itc02.Types
module Design = Msoc_wrapper.Design
module Sd = Msoc_mixedsig.Sigma_delta
module Volume = Msoc_itc02.Volume

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Scan_sim: the formula is a theorem of the protocol --- *)

let sample_core ~patterns ~chains =
  Types.core ~id:1 ~name:"sim" ~inputs:14 ~outputs:9 ~bidirs:3
    ~scan_chains:chains ~patterns

let test_scan_sim_matches_formula () =
  List.iter
    (fun (patterns, chains, width) ->
      let d = Design.design (sample_core ~patterns ~chains) ~width in
      checki
        (Printf.sprintf "p=%d chains=%d w=%d" patterns (List.length chains) width)
        (Scan_sim.formula_cycles d)
        (Scan_sim.simulated_cycles d))
    [
      (1, [], 1); (1, [ 50 ], 1); (10, [ 100; 80 ], 2); (7, [ 33 ], 4);
      (100, [ 120; 80; 80; 40 ], 3); (5, [ 10; 10; 10 ], 8); (2, [ 500 ], 16);
    ]

let test_scan_sim_trace_structure () =
  let d = Design.design (sample_core ~patterns:3 ~chains:[ 20; 20 ]) ~width:2 in
  let trace = Scan_sim.simulate d in
  checki "trace length = simulated cycles" (Scan_sim.simulated_cycles d)
    (List.length trace);
  let captures =
    List.length (List.filter (fun e -> e = Scan_sim.Capture) trace)
  in
  checki "one capture per pattern" 3 captures;
  (* the trace must start with the priming shift-in *)
  checkb "starts with shifts" true
    (match trace with Scan_sim.Shift :: _ -> true | _ -> false)

(* The cycle-level scan simulation equals the formula on random cores. *)
let test_scan_sim_qcheck =
  QCheck.Test.make ~name:"random cores" ~count:200
    QCheck.(quad (int_range 1 300) (int_range 0 6) (int_range 10 200) (int_range 1 12))
    (fun (patterns, n_chains, chain_len, width) ->
      let chains = List.init n_chains (fun _ -> chain_len) in
      let d = Design.design (sample_core ~patterns ~chains) ~width in
      Scan_sim.simulated_cycles d = Scan_sim.formula_cycles d)

let test_scan_sim_summary () =
  let d = Design.design (sample_core ~patterns:3 ~chains:[ 20 ]) ~width:1 in
  let s = Scan_sim.trace_summary d in
  checkb "mentions patterns" true (String.length s > 20)

(* --- Sigma-delta --- *)

let test_sd_enob_improves_with_osr () =
  let enob osr = Sd.measured_enob ~order:Sd.Second ~osr ~fs:2.048e6 ~signal_hz:1_000.0 () in
  let e32 = enob 32 and e128 = enob 128 in
  checkb
    (Printf.sprintf "osr 128 (%.1f bits) beats osr 32 (%.1f bits) by > 2" e128 e32)
    true
    (e128 > e32 +. 2.0);
  checkb "audio-grade at osr 128" true (e128 > 10.0)

let test_sd_second_order_beats_first () =
  let enob order = Sd.measured_enob ~order ~osr:64 ~fs:2.048e6 ~signal_hz:1_000.0 () in
  checkb "steeper noise shaping" true (enob Sd.Second > enob Sd.First +. 1.0)

let test_sd_validation () =
  (* the CIC decimator needs a ratio of at least 2 *)
  List.iter
    (fun osr ->
      match Sd.measured_enob ~osr ~fs:2.048e6 ~signal_hz:1_000.0 () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "osr %d accepted" osr)
    [ 1; 0; -4 ]

(* --- Volume --- *)

let test_volume_core_stats () =
  let c =
    Types.core ~id:1 ~name:"v" ~inputs:10 ~outputs:5 ~bidirs:2
      ~scan_chains:[ 100; 50 ] ~patterns:20
  in
  let soc = Types.soc ~name:"s" ~cores:[ c ] in
  (* the stimulus streams 150 + 10 + 2 bits per pattern *)
  checki "in bits" (20 * (150 + 10 + 2)) (Volume.ate_depth_bits soc ~width:1);
  (* the report's row: in and out bits per pattern, patterns, total *)
  let row =
    List.find
      (fun l -> String.length l > 1 && l.[0] = 'v')
      (String.split_on_char '\n' (Volume.report soc))
  in
  let cells = List.filter (fun s -> s <> "" && s <> "|") (String.split_on_char ' ' row) in
  let int_cell = Msoc_util.Ascii_table.int_cell in
  Alcotest.(check (list string))
    "out bits and total"
    [ "v"; int_cell 162; int_cell (150 + 5 + 2); "20"; int_cell (20 * (162 + 157)) ]
    cells;
  checki "matches Types.test_data_volume" (Types.test_data_volume c) (20 * (162 + 157))

let test_volume_soc_stats () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let report = Volume.report soc in
  let has_line prefix =
    List.exists (String.starts_with ~prefix) (String.split_on_char '\n' report)
  in
  List.iter
    (fun (c : Types.core) -> checkb "one row per core" true (has_line c.Types.name))
    soc.Types.cores;
  let sum = List.fold_left (fun a c -> a + Types.test_data_volume c) 0 soc.Types.cores in
  checkb "total is the sum" true
    (has_line (Printf.sprintf "total: %s bits" (Msoc_util.Ascii_table.int_cell sum)))

let test_volume_ate_depth () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let d16 = Volume.ate_depth_bits soc ~width:16 in
  let d32 = Volume.ate_depth_bits soc ~width:32 in
  checkb "wider TAM, shallower memory" true (d32 < d16);
  checkb "halving relation" true (abs ((2 * d32) - d16) <= 2)

let test_volume_report () =
  let soc = Msoc_itc02.Synthetic.d281s () in
  let r = Volume.report soc in
  checkb "has total line" true (String.length r > 100)

let suites =
  [
    ( "protocol.scan_sim",
      [
        Alcotest.test_case "matches formula" `Quick test_scan_sim_matches_formula;
        Alcotest.test_case "trace structure" `Quick test_scan_sim_trace_structure;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick test_scan_sim_qcheck;
        Alcotest.test_case "summary" `Quick test_scan_sim_summary;
      ] );
    ( "protocol.sigma_delta",
      [
        Alcotest.test_case "enob vs osr" `Slow test_sd_enob_improves_with_osr;
        Alcotest.test_case "2nd beats 1st order" `Slow test_sd_second_order_beats_first;
        Alcotest.test_case "validation" `Quick test_sd_validation;
      ] );
    ( "protocol.volume",
      [
        Alcotest.test_case "core stats" `Quick test_volume_core_stats;
        Alcotest.test_case "soc stats" `Quick test_volume_soc_stats;
        Alcotest.test_case "ate depth" `Quick test_volume_ate_depth;
        Alcotest.test_case "report" `Quick test_volume_report;
      ] );
  ]
