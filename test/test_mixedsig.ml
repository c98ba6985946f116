(* Tests for Msoc_mixedsig: quantization, converter models (Fig. 4),
   hardware cost model (§5), the analog test wrapper (Fig. 1) and the
   shared wrapper (Fig. 2). *)

module Quantize = Msoc_mixedsig.Quantize
module Dac = Msoc_mixedsig.Dac
module Adc = Msoc_mixedsig.Adc
module Cost_model = Msoc_mixedsig.Cost_model
module Wrapper = Msoc_mixedsig.Wrapper
module Shared_wrapper = Msoc_mixedsig.Shared_wrapper
module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))
let range = Quantize.default_range

(* --- Quantize --- *)

let test_quantize_roundtrip_error () =
  let bits = 8 in
  let lsb = Quantize.step ~bits ~range in
  for i = 0 to 100 do
    let v = 0.02 +. (float_of_int i *. 0.039) in
    let err = Float.abs (Fixtures.roundtrip ~bits ~range v -. v) in
    checkb "error <= LSB/2" true (err <= (lsb /. 2.0) +. 1e-12)
  done

let test_quantize_clipping () =
  checki "below range -> 0" 0 (Fixtures.encode ~bits:8 ~range (-1.0));
  checki "above range -> max" 255 (Fixtures.encode ~bits:8 ~range 9.0)

let test_quantize_decode_validation () =
  match Quantize.decode ~bits:8 ~range 256 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "code 256 accepted at 8 bits"

let test_quantize_monotone () =
  let prev = ref (-1) in
  for i = 0 to 400 do
    let v = float_of_int i /. 100.0 in
    let c = Fixtures.encode ~bits:8 ~range v in
    checkb "encode monotone" true (c >= !prev);
    prev := c
  done

(* --- Dac --- *)

let test_dac_ideal_matches_quantize () =
  List.iter
    (fun arch ->
      let dac = Dac.create arch ~bits:8 in
      for code = 0 to 255 do
        checkb "ideal DAC = decode" true
          (Msoc_util.Numeric.close ~abs_tol:1e-12
             (Dac.convert dac code)
             (Quantize.decode ~bits:8 ~range code))
      done)
    [ Dac.Full_string; Dac.Modular ]

let test_dac_ideal_inl_dnl_zero () =
  let dac = Dac.create Dac.Modular ~bits:8 in
  checkb "INL ~ 0" true (Dac.inl_lsb dac < 1e-9)

let test_dac_mismatch_degrades () =
  let ideal = Dac.create Dac.Modular ~bits:8 in
  let sloppy = Dac.create ~mismatch_sigma:0.05 ~seed:5 Dac.Modular ~bits:8 in
  checkb "mismatch worsens INL" true (Dac.inl_lsb sloppy > Dac.inl_lsb ideal);
  checkb "INL still bounded" true (Dac.inl_lsb sloppy < 16.0)

let test_dac_monotone_modular_small_mismatch () =
  let dac = Dac.create ~mismatch_sigma:0.01 ~seed:3 Dac.Modular ~bits:8 in
  let prev = ref neg_infinity in
  (* modest resistor spread keeps a string DAC monotone *)
  for code = 0 to 255 do
    let v = Dac.convert dac code in
    checkb "monotone" true (v > !prev);
    prev := v
  done

let test_dac_validation () =
  (match Dac.create Dac.Modular ~bits:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "odd modular bits accepted");
  let dac = Dac.create Dac.Full_string ~bits:4 in
  match Dac.convert dac 16 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range code accepted"

(* --- Adc --- *)

let test_adc_ideal_matches_quantize () =
  List.iter
    (fun arch ->
      let adc = Adc.create arch ~bits:8 in
      for i = 0 to 1000 do
        let v = float_of_int i /. 250.0 in
        checki
          (Printf.sprintf "code at %.3f" v)
          (Fixtures.encode ~bits:8 ~range v)
          (Adc.convert adc v)
      done)
    [ Adc.Flash; Adc.Modular_pipeline ]

let test_adc_dac_adc_consistency () =
  (* ADC(DAC(code)) = code for every code: cell centers re-digitize to
     the same code in both architectures. *)
  let dac = Dac.create Dac.Modular ~bits:8 in
  List.iter
    (fun arch ->
      let adc = Adc.create arch ~bits:8 in
      for code = 0 to 255 do
        checki "roundtrip code" code (Adc.convert adc (Dac.convert dac code))
      done)
    [ Adc.Flash; Adc.Modular_pipeline ]

let test_adc_clipping () =
  let adc = Adc.create Adc.Modular_pipeline ~bits:8 in
  checki "below range" 0 (Adc.convert adc (-2.0));
  checki "above range" 255 (Adc.convert adc 10.0)

let test_adc_threshold_noise_small_impact () =
  let noisy = Adc.create ~threshold_sigma_lsb:0.4 ~seed:9 Adc.Modular_pipeline ~bits:8 in
  let worst = ref 0 in
  for code = 0 to 255 do
    let v = Quantize.decode ~bits:8 ~range code in
    let got = Adc.convert noisy v in
    worst := max !worst (abs (got - code))
  done;
  checkb "sub-LSB noise shifts codes by few LSB" true (!worst <= 4)

let test_adc_code_edges () =
  (* 15 ideal thresholds, 0.25 V apart: the code steps at each *)
  let adc = Adc.create Adc.Flash ~bits:4 in
  List.iteri
    (fun i edge ->
      checki (Printf.sprintf "below edge %d" i) i (Adc.convert adc (edge -. 1e-9));
      checki (Printf.sprintf "above edge %d" i) (i + 1) (Adc.convert adc (edge +. 1e-9)))
    (List.init 15 (fun i -> 0.25 *. float_of_int (i + 1)))

(* --- Cost_model --- *)

let test_cost_counts () =
  checki "flash comparators" 255 (Cost_model.flash_comparators ~bits:8);
  checki "modular comparators" 30 (Cost_model.modular_comparators ~bits:8);
  checki "string resistors" 256 (Cost_model.string_dac_resistors ~bits:8);
  checki "modular resistors" 32 (Cost_model.modular_dac_resistors ~bits:8)

let test_cost_reduction_factor () =
  (* The paper: 256 vs 32 comparators — "a factor of 8". *)
  checkb "~8x at 8 bits" true
    (let r = Cost_model.comparator_reduction ~bits:8 in
     r > 8.0 && r < 9.0);
  checkb "grows with resolution" true
    (Cost_model.comparator_reduction ~bits:12 > Cost_model.comparator_reduction ~bits:8)

let test_cost_area_reference () =
  checkf 1e-9 "0.02 mm2 at 0.5um" 0.02
    (Cost_model.wrapper_area_mm2 ~tech_um:0.5 ());
  (* scaled to the paper's 0.12um core technology *)
  let scaled = Cost_model.wrapper_area_mm2 ~tech_um:0.12 () in
  checkb "smaller in finer tech" true (scaled < 0.02);
  (* paper: wrapper is 1/8 of a core in 0.12um when the wrapper stays
     in 0.5um => core = 0.16 mm2; same-tech ratio then <= 1/30. *)
  let core_mm2 = 0.02 *. 8.0 in
  let ratio = scaled /. core_mm2 in
  checkb
    (Printf.sprintf "same-tech ratio 1/%.0f <= 1/30" (1.0 /. ratio))
    true (ratio <= 1.0 /. 30.0)

let test_cost_area_higher_resolution () =
  checkb "10-bit wrapper larger" true
    (Cost_model.wrapper_area_mm2 ~bits:10 ~tech_um:0.5 ()
    > Cost_model.wrapper_area_mm2 ~bits:8 ~tech_um:0.5 ())

(* --- Wrapper --- *)

let fc_test = List.nth Catalog.core_a.Spec.tests 1 (* f_c: fs 1.5 MHz, w 4 *)

let test_wrapper_configure () =
  let w = Wrapper.create ~bits:8 () in
  let w = Wrapper.configure_for_test w ~system_clock_hz:50.0e6 fc_test in
  let cfg = Wrapper.config w in
  checkb "core-test mode" true (cfg.Wrapper.mode = Wrapper.Core_test);
  checki "divide ratio 33" 33 cfg.Wrapper.divide_ratio;
  checki "ser-par 2 (8 bits over 4 wires)" 2 cfg.Wrapper.serial_to_parallel;
  checkf 1.0 "fs ~ 1.5MHz" (50.0e6 /. 33.0) (Wrapper.sample_rate_hz w ~system_clock_hz:50.0e6)

let test_wrapper_test_cycles () =
  let w = Wrapper.create ~bits:8 () in
  let w = Wrapper.configure_for_test w ~system_clock_hz:50.0e6 fc_test in
  checki "cycles = samples * s2p * divide" (100 * 2 * 33)
    (Wrapper.test_cycles w ~samples:100)

let test_wrapper_mode_guards () =
  let w = Wrapper.create ~bits:8 () in
  (match Wrapper.apply_core_test w ~core:Fun.id ~stimulus:[| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "core test in normal mode accepted");
  (match Wrapper.self_test_max_error_lsb w ~samples:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self test in normal mode accepted");
  checkb "created in normal mode" true ((Wrapper.config w).Wrapper.mode = Wrapper.Normal)

let test_wrapper_self_test () =
  let w = Wrapper.set_mode (Wrapper.create ~bits:8 ()) Wrapper.Self_test in
  checkb "ideal loopback exact" true
    (Wrapper.self_test_max_error_lsb w ~samples:256 < 1.0)

let test_wrapper_core_test_identity_core () =
  let w = Wrapper.set_mode (Wrapper.create ~bits:8 ()) Wrapper.Core_test in
  let stimulus = Array.init 256 Fun.id in
  let response = Wrapper.apply_core_test w ~core:Fun.id ~stimulus in
  checkb "identity core returns codes" true (response = stimulus)

let test_wrapper_core_test_gain_core () =
  let w = Wrapper.set_mode (Wrapper.create ~bits:8 ()) Wrapper.Core_test in
  let stimulus = Array.init 100 (fun i -> i) in
  let halver samples = Array.map (fun v -> v /. 2.0) samples in
  let response = Wrapper.apply_core_test w ~core:halver ~stimulus in
  Array.iteri
    (fun i r ->
      checkb "halved codes" true (abs (r - (i / 2)) <= 1))
    response

let test_wrapper_rejects_fast_test () =
  let w = Wrapper.create ~bits:8 () in
  let fast =
    Spec.test ~name:"x" ~f_low_hz:1.0e6 ~f_high_hz:1.0e6 ~f_sample_hz:80.0e6
      ~cycles:10 ~tam_width:1 ~resolution_bits:8
  in
  match Wrapper.configure_for_test w ~system_clock_hz:50.0e6 fast with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fs above system clock accepted"

let test_wrapper_resolution_mismatch () =
  let adc = Adc.create Adc.Flash ~bits:10 in
  match Wrapper.create ~adc ~bits:8 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched converter accepted"

(* --- Shared_wrapper --- *)

let test_shared_sizing () =
  let sw =
    Shared_wrapper.create ~system_clock_hz:200.0e6 [ Catalog.core_c; Catalog.core_d ]
  in
  (* bits = max(10, 8): the full 10-bit code range passes the
     converters, moved by at most the 1 mV crosstalk (< 1 LSB) *)
  let stim = [| 0; 1; 512; 1022; 1023 |] in
  let resp =
    Shared_wrapper.run_test sw ~core_label:"C" ~core:Fun.id
      ~test:(List.nth Catalog.core_c.Spec.tests 0)
      ~stimulus:stim
  in
  Array.iteri
    (fun i r -> checkb "converter built at 10 bits" true (abs (r - stim.(i)) <= 1))
    resp

let test_shared_requires_clock () =
  (* core D needs 78 MHz sampling; a 50 MHz system clock cannot. *)
  match Shared_wrapper.create ~system_clock_hz:50.0e6 [ Catalog.core_d ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted core faster than clock"

let test_shared_rejects_non_member () =
  let sw = Shared_wrapper.create ~system_clock_hz:200.0e6 [ Catalog.core_a ] in
  match
    Shared_wrapper.run_test sw ~core_label:"C" ~core:Fun.id
      ~test:(List.nth Catalog.core_c.Spec.tests 0)
      ~stimulus:[| 0 |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-member accepted"

let test_shared_crosstalk_bounded () =
  (* Default 1 mV crosstalk shifts 8-bit codes (LSB ~ 15.6 mV) by at
     most 1. *)
  let sw = Shared_wrapper.create ~system_clock_hz:200.0e6 [ Catalog.core_a ] in
  let stim = Array.init 200 (fun i -> (i * 5) mod 256) in
  let resp =
    Shared_wrapper.run_test sw ~core_label:"A" ~core:Fun.id
      ~test:(List.nth Catalog.core_a.Spec.tests 0)
      ~stimulus:stim
  in
  Array.iteri
    (fun i r -> checkb "<= 1 LSB shift" true (abs (r - stim.(i)) <= 1))
    resp

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"quantize roundtrip error bounded" ~count:300
      (pair (int_range 4 12) (float_range 0.0 4.0))
      (fun (bits, v) ->
        let lsb = Quantize.step ~bits ~range in
        Float.abs (Fixtures.roundtrip ~bits ~range v -. v) <= (lsb /. 2.0) +. 1e-12);
    Test.make ~name:"adc(dac(code)) = code at any even resolution" ~count:50
      (pair (int_range 2 6) (int_range 0 10_000))
      (fun (half_bits, code_seed) ->
        let bits = 2 * half_bits in
        let dac = Dac.create Dac.Modular ~bits in
        let adc = Adc.create Adc.Modular_pipeline ~bits in
        let code = code_seed mod (1 lsl bits) in
        Adc.convert adc (Dac.convert dac code) = code);
    Test.make ~name:"comparator reduction = flash/modular" ~count:20
      (int_range 2 8)
      (fun half ->
        let bits = 2 * half in
        Msoc_util.Numeric.close
          (Cost_model.comparator_reduction ~bits)
          (float_of_int (Cost_model.flash_comparators ~bits)
          /. float_of_int (Cost_model.modular_comparators ~bits)));
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ( "mixedsig.quantize",
      [
        Alcotest.test_case "roundtrip error" `Quick test_quantize_roundtrip_error;
        Alcotest.test_case "clipping" `Quick test_quantize_clipping;
        Alcotest.test_case "decode validation" `Quick test_quantize_decode_validation;
        Alcotest.test_case "monotone" `Quick test_quantize_monotone;
      ] );
    ( "mixedsig.dac",
      [
        Alcotest.test_case "ideal matches quantize" `Quick test_dac_ideal_matches_quantize;
        Alcotest.test_case "ideal INL/DNL zero" `Quick test_dac_ideal_inl_dnl_zero;
        Alcotest.test_case "mismatch degrades" `Quick test_dac_mismatch_degrades;
        Alcotest.test_case "monotone with small mismatch" `Quick test_dac_monotone_modular_small_mismatch;
        Alcotest.test_case "validation" `Quick test_dac_validation;
      ] );
    ( "mixedsig.adc",
      [
        Alcotest.test_case "ideal matches quantize" `Quick test_adc_ideal_matches_quantize;
        Alcotest.test_case "dac-adc consistency" `Quick test_adc_dac_adc_consistency;
        Alcotest.test_case "clipping" `Quick test_adc_clipping;
        Alcotest.test_case "threshold noise" `Quick test_adc_threshold_noise_small_impact;
        Alcotest.test_case "code edges" `Quick test_adc_code_edges;
      ] );
    ( "mixedsig.cost",
      [
        Alcotest.test_case "component counts" `Quick test_cost_counts;
        Alcotest.test_case "8x reduction" `Quick test_cost_reduction_factor;
        Alcotest.test_case "area reference + scaling" `Quick test_cost_area_reference;
        Alcotest.test_case "resolution scaling" `Quick test_cost_area_higher_resolution;
      ] );
    ( "mixedsig.wrapper",
      [
        Alcotest.test_case "configure for test" `Quick test_wrapper_configure;
        Alcotest.test_case "test cycles" `Quick test_wrapper_test_cycles;
        Alcotest.test_case "mode guards" `Quick test_wrapper_mode_guards;
        Alcotest.test_case "self test" `Quick test_wrapper_self_test;
        Alcotest.test_case "core test identity" `Quick test_wrapper_core_test_identity_core;
        Alcotest.test_case "core test gain" `Quick test_wrapper_core_test_gain_core;
        Alcotest.test_case "rejects fast test" `Quick test_wrapper_rejects_fast_test;
        Alcotest.test_case "resolution mismatch" `Quick test_wrapper_resolution_mismatch;
      ] );
    ( "mixedsig.shared",
      [
        Alcotest.test_case "sizing" `Quick test_shared_sizing;
        Alcotest.test_case "requires clock" `Quick test_shared_requires_clock;
        Alcotest.test_case "rejects non-member" `Quick test_shared_rejects_non_member;
        Alcotest.test_case "crosstalk bounded" `Quick test_shared_crosstalk_bounded;
      ] );
    ("mixedsig.properties", qcheck_tests);
  ]
