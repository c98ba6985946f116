(* Tests for the metrology additions: sine-histogram converter BIST
   (IEEE 1241 style). *)

module Adc = Msoc_mixedsig.Adc
module Bist = Msoc_mixedsig.Bist

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- sine histogram --- *)

let test_histogram_ideal_adc () =
  let adc = Adc.create Adc.Modular_pipeline ~bits:8 in
  let r = Bist.sine_histogram ~samples:200_000 adc in
  checki "no missing codes" 0 r.Bist.missing_codes;
  checkb (Printf.sprintf "INL %.3f < 0.3 LSB" r.Bist.inl_lsb) true
    (r.Bist.inl_lsb < 0.3);
  checkb (Printf.sprintf "DNL %.3f < 0.5 LSB" r.Bist.dnl_lsb) true
    (r.Bist.dnl_lsb < 0.5)

let test_histogram_detects_bad_adc () =
  let good = Adc.create Adc.Modular_pipeline ~bits:8 in
  let bad =
    Adc.create ~threshold_sigma_lsb:2.0 ~seed:31 Adc.Modular_pipeline ~bits:8
  in
  let rg = Bist.sine_histogram ~samples:120_000 good in
  let rb = Bist.sine_histogram ~samples:120_000 bad in
  checkb
    (Printf.sprintf "bad INL %.2f > good %.2f + 0.5" rb.Bist.inl_lsb rg.Bist.inl_lsb)
    true
    (rb.Bist.inl_lsb > rg.Bist.inl_lsb +. 0.5)

let test_histogram_flash_vs_pipeline_agree () =
  (* Both ideal architectures implement the same transfer function, so
     the histogram test must agree on them. *)
  let flash = Bist.sine_histogram ~samples:100_000 (Adc.create Adc.Flash ~bits:8) in
  let pipe =
    Bist.sine_histogram ~samples:100_000 (Adc.create Adc.Modular_pipeline ~bits:8)
  in
  checkb "same INL to 0.05 LSB" true
    (Float.abs (flash.Bist.inl_lsb -. pipe.Bist.inl_lsb) < 0.05)

let test_histogram_validation () =
  let adc = Adc.create Adc.Flash ~bits:6 in
  (match Bist.sine_histogram ~samples:10 adc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tiny sample count accepted");
  match Bist.sine_histogram ~overdrive:0.9 adc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "under-range sine accepted"

let suites =
  [
    ( "metrology.histogram",
      [
        Alcotest.test_case "ideal ADC" `Quick test_histogram_ideal_adc;
        Alcotest.test_case "detects bad ADC" `Quick test_histogram_detects_bad_adc;
        Alcotest.test_case "flash vs pipeline" `Quick test_histogram_flash_vs_pipeline_agree;
        Alcotest.test_case "validation" `Quick test_histogram_validation;
      ] );
  ]
