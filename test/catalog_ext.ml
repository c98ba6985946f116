(* Extension cores beyond the paper's five: the pool that
   test_catalog_ext and the sharing-enumeration reference
   (test_sharing_ref) draw from.

   The paper's catalog is deliberately mid-frequency and low-to-mid
   resolution, which is why all 26 sharing combinations are feasible.
   These three extra cores populate the corners of the requirement
   space, so the compatibility rule of §3 actually bites:

   - F — PLL block: a fast, low-resolution core (40 MHz sampling for
     the jitter proxy test). Sharing F with a high-resolution core is
     forbidden under the default policy.
   - G — sigma-delta audio ADC front-end: 12-bit resolution at audio
     rates; the "high-resolution and low-speed" archetype. F and G
     can never share a wrapper.
   - H — temperature sensor: a tiny, slow DC core that can share with
     anything.

   Frequencies/cycle counts are chosen in the style of Table 2; they
   are our additions, not paper data. *)

module Spec = Msoc_analog.Spec

let t = Spec.test

let khz v = v *. 1.0e3
let mhz v = v *. 1.0e6

let core_f =
  Spec.core ~label:"F" ~name:"PLL block"
    ~tests:
      [
        (* lock-time proxy: observe the control voltage settling *)
        t ~name:"t_lock" ~f_low_hz:0. ~f_high_hz:0. ~f_sample_hz:(mhz 1.)
          ~cycles:20_000 ~tam_width:1 ~resolution_bits:8;
        (* jitter proxy: digitize the divided clock edge positions *)
        t ~name:"jitter" ~f_low_hz:(mhz 10.) ~f_high_hz:(mhz 10.) ~f_sample_hz:(mhz 40.)
          ~cycles:12_000 ~tam_width:4 ~resolution_bits:6;
      ]

let core_g =
  Spec.core ~label:"G" ~name:"Sigma-delta audio ADC front-end"
    ~tests:
      [
        t ~name:"ENOB" ~f_low_hz:(khz 1.) ~f_high_hz:(khz 20.) ~f_sample_hz:(mhz 3.072)
          ~cycles:98_304 ~tam_width:2 ~resolution_bits:12;
        t ~name:"g_pb" ~f_low_hz:(khz 1.) ~f_high_hz:(khz 1.) ~f_sample_hz:(khz 48.)
          ~cycles:24_000 ~tam_width:1 ~resolution_bits:12;
      ]

let core_h =
  Spec.core ~label:"H" ~name:"Temperature sensor"
    ~tests:
      [
        t ~name:"V_dc" ~f_low_hz:0. ~f_high_hz:0. ~f_sample_hz:(khz 10.)
          ~cycles:2_000 ~tam_width:1 ~resolution_bits:8;
      ]

(* The paper's A..E plus F, G and H — eight cores. *)
let extended = Msoc_analog.Catalog.all @ [ core_f; core_g; core_h ]
