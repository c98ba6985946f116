(* Datasheet run: every specification test of Table 2 executed through
   one analog test wrapper, for one device.

   Table 2 lists *what* each core is tested for (gain, cut-off, THD,
   IIP3, DC offset, slew rate, dynamic range); this example shows those
   tests actually happening: the co-simulation testbench's seven
   programs characterize one device purely with digital stimuli and
   responses through the wrapper, and each extracted value is checked
   against its specification limits.

     dune exec examples/datasheet.exe *)

module Testbench = Msoc_cosim.Testbench
module Variation = Msoc_mixedsig.Variation

(* A specification limit and its verdict. *)
type verdict = { name : string; value : float; limit_low : float; limit_high : float }

let passed v = v.value >= v.limit_low && v.value <= v.limit_high

let pp_verdict ppf v =
  Format.fprintf ppf "%-12s %10.4g  [%g .. %g]  %s" v.name v.value v.limit_low
    v.limit_high
    (if passed v then "PASS" else "FAIL")

(* The device: 0.95x pass-band gain, a 60 kHz 2nd-order roll-off and a
   2 mV noise floor, measured through a 10-bit wrapper at 1.7 MS/s.
   The testbench gives each spec its own core around those values. *)
let device =
  {
    Testbench.ideal with
    Testbench.variation =
      { (Variation.nominal ~bits:10 ()) with Variation.noise_sigma_v = 0.002 };
    gain_nominal = 0.95;
    fc_nominal = 60_000.0;
  }

(* The datasheet: each spec's name, the scale its readout is listed
   in, and its limits. *)
let datasheet =
  [
    (Testbench.Gain, "g_pb", 1.0, 0.9, 1.05);
    (Testbench.Fc, "f_c (kHz)", 1.0e-3, 50.0, 70.0);
    (Testbench.Thd, "THD (%)", 100.0, 0.0, 1.0);
    (Testbench.Iip3, "IIP3 (V)", 1.0, 3.0, Float.infinity);
    (Testbench.Dc_offset, "V_off (mV)", 1000.0, -40.0, 40.0);
    (Testbench.Slew, "SR (V/us)", 1.0, 0.3, 1.0);
    (Testbench.Dr, "DR (dB)", 1.0, 40.0, Float.infinity);
  ]

let () =
  Printf.printf
    "Characterizing the device through a %d-bit analog test wrapper\n\
     (fs = %.1f MHz, %d-sample records)\n\n"
    device.Testbench.variation.Variation.bits
    (device.Testbench.fs /. 1.0e6)
    device.Testbench.samples;
  let verdicts =
    List.map
      (fun (spec, name, scale, limit_low, limit_high) ->
        let r = Testbench.run ~config:device spec in
        let v = { name; value = scale *. r.Testbench.measured; limit_low; limit_high } in
        (* the direct probe of the same core, for the skeptical reader *)
        Format.printf "%a  (direct %.4g)@." pp_verdict v (scale *. r.Testbench.direct);
        v)
      datasheet
  in
  let failures = List.filter (fun v -> not (passed v)) verdicts in
  Printf.printf "\n%d/%d specifications met%s\n"
    (List.length verdicts - List.length failures)
    (List.length verdicts)
    (if failures = [] then " - device would ship." else " - device fails test.");
  (* The offset FAIL is genuine: the device's 50 mV output offset sits
     outside the +-40 mV limit, and the direct probe reads the same.
     The wrapped, all-digital test catches it. *)
  Printf.printf
    "\nGround truth: gain 0.95 (x0.994 roll-off at the 20 kHz tone), fc \
     60 kHz, offset 50 mV - a real violation, caught through the wrapper, \
     slew limiter 0.5 V/us, IIP3 = sqrt(4/3 * 0.95/0.02) ~ 7.96 V.\n"
