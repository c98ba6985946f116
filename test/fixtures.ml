(* Fixtures, generators and oracles the tests share and no executable
   needs: a small mixed-signal instance, digital jobs over arbitrary
   staircases, a synthetic interconnect netlist, Monte-Carlo bounds and
   verdict tolerances, the lint and quantizer entries on one value, the
   references' clamp and mean, a filter's magnitude response, a kernel
   run on a copy and the hierarchical .soc printer. *)

module Types = Msoc_itc02.Types
module Full = Msoc_itc02.Full
module Scan = Msoc_itc02.Scan
module Catalog = Msoc_analog.Catalog

(* 8 digital cores + analog cores C, D, E: small enough for exhaustive
   plans in a test. *)
let d281m ?(weight_time = 0.5) ~tam_width () =
  Msoc_testplan.Problem.make ~soc:(Msoc_itc02.Synthetic.d281s ())
    ~analog_cores:[ Catalog.core_c; Catalog.core_d; Catalog.core_e ] ~tam_width
    ~weight_time ()

(* A digital job over any staircase, no power, precedence or
   conflict. *)
let digital_job ~label staircase =
  {
    Msoc_tam.Job.label;
    staircase;
    exclusion = None;
    power = 0;
    predecessors = [];
    conflicts = [];
  }

(* Each core drives the next one in id order. *)
let neighbor_chain (soc : Types.soc) ~patterns =
  let sorted =
    List.sort (fun (a : Types.core) b -> compare a.Types.id b.Types.id) soc.Types.cores
  in
  let rec pairs : Types.core list -> Msoc_testplan.Interconnect.link list = function
    | a :: (b :: _ as rest) ->
      Msoc_testplan.Interconnect.link ~from_core:a.Types.name ~to_core:b.Types.name
        ~patterns
      :: pairs rest
    | [ _ ] | [] -> []
  in
  pairs sorted

(* Monte-Carlo variation bounds: the sampler's default process corners
   (bits 6/8/10, mismatch 2 %, comparator noise 0.5 LSB, core noise
   3 mV, fc ±10 %, gain ±5 %) with overrides. *)
let variation_ranges ?(bits_choices = [ 6; 8; 10 ]) ?(dac_mismatch_sigma_max = 0.02)
    ?(adc_threshold_sigma_lsb_max = 0.5) ?(noise_sigma_v_max = 0.003)
    ?(fc_shift_pct_max = 10.0) ?(gain_shift_pct_max = 5.0) () =
  {
    Msoc_mixedsig.Variation.bits_choices;
    dac_mismatch_sigma_max;
    adc_threshold_sigma_lsb_max;
    noise_sigma_v_max;
    fc_shift_pct_max;
    gain_shift_pct_max;
  }

(* The documented default tolerance of each spec's verdict. *)
let default_tolerance_pct = function
  | Msoc_cosim.Testbench.Gain | Fc -> 5.0
  | Slew -> 20.0
  | Dr -> 25.0
  | Thd | Iip3 -> 40.0
  | Dc_offset -> 50.0

(* The lint findings of a .soc text, through the file entry the CLI's
   [check] runs. *)
let lint_text text =
  let path = Filename.temp_file "msoc_lint" ".soc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      fst (Msoc_check.Lint.load path))

(* The clamp and the mean the DSP references were written with, as
   calls: their float results come back boxed, so a NaN's sign through
   the reference's arithmetic does not hang on register allocation. *)
let clamp ~lo ~hi v = Float.min hi (Float.max lo v)

let mean = function
  | [] -> invalid_arg "Fixtures.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* One voltage to its code through the record entry, and back: the
   ideal ADC and the ideal ADC→DAC path. *)
let encode ~bits ~range v =
  let into = [| 0 |] in
  Msoc_mixedsig.Quantize.encode_into ~bits ~range [| v |] ~into;
  into.(0)

let roundtrip ~bits ~range v =
  Msoc_mixedsig.Quantize.decode ~bits ~range (encode ~bits ~range v)

(* |H(e^{j2πf/fs})| of a biquad cascade: the oracle for the Butterworth
   design and for the wrapped gain readouts. *)
let magnitude_response (t : Msoc_signal.Filter.t) ~fs f =
  let w = 2.0 *. Float.pi *. f /. fs in
  let z1 = Complex.polar 1.0 (-.w) in
  let z2 = Complex.mul z1 z1 in
  let section_gain (s : Msoc_signal.Filter.biquad) =
    let num =
      Complex.add
        (Complex.add { re = s.b0; im = 0.0 } (Complex.mul { re = s.b1; im = 0.0 } z1))
        (Complex.mul { re = s.b2; im = 0.0 } z2)
    in
    let den =
      Complex.add
        (Complex.add Complex.one (Complex.mul { re = s.a1; im = 0.0 } z1))
        (Complex.mul { re = s.a2; im = 0.0 } z2)
    in
    Complex.norm num /. Complex.norm den
  in
  List.fold_left (fun acc s -> acc *. section_gain s) 1.0 (t :> Msoc_signal.Filter.biquad list)

(* The -3 dB frequency of a low-pass cascade, by bisection on
   (0, fs/2) over [magnitude_response].
   @raise Not_found if the response never crosses -3 dB. *)
let cutoff_minus3db t ~fs =
  let target = 1.0 /. Float.sqrt 2.0 in
  let dc = magnitude_response t ~fs 1.0e-3 in
  let level f = magnitude_response t ~fs f /. dc in
  let nyquist = fs /. 2.0 in
  if level (nyquist *. 0.999999) > target then raise Not_found;
  let rec bisect lo hi iterations =
    if iterations = 0 then (lo +. hi) /. 2.0
    else
      let mid = (lo +. hi) /. 2.0 in
      if level mid > target then bisect mid hi (iterations - 1)
      else bisect lo mid (iterations - 1)
  in
  bisect 1.0e-3 (nyquist *. 0.999999) 80

(* A record-to-record stage: the in-place kernel run on a copy. *)
let on_copy kernel x =
  let y = Array.copy x in
  kernel y;
  y

(* Lift a flat SOC: every core becomes a level-1 module with one
   scan-using, TAM-using test. *)
let full_of_flat (soc : Types.soc) =
  {
    Full.name = soc.Types.name;
    modules =
      List.map
        (fun (c : Types.core) ->
          {
            Full.id = c.Types.id;
            level = 1;
            name = c.Types.name;
            inputs = c.Types.inputs;
            outputs = c.Types.outputs;
            bidirs = c.Types.bidirs;
            scan_chains = c.Types.scan_chains;
            tests =
              [ { Full.index = 1; scan_use = true; tam_use = true; patterns = c.Types.patterns } ];
          })
        soc.Types.cores;
  }

(* The hierarchical dialect [Full.of_string] reads, one [Module] line
   and its [Test] lines per module.
   @raise Invalid_argument when a name would not read back as one
   token. *)
let full_to_string (t : Full.t) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "SocName %s\n" (Scan.token_name ~what:"full_to_string: SOC" t.Full.name);
  List.iter
    (fun (m : Full.module_) ->
      Printf.bprintf buf "Module %d Level %d Name %s Inputs %d Outputs %d Bidirs %d" m.Full.id
        m.Full.level
        (Scan.token_name ~what:"full_to_string: module" m.Full.name)
        m.Full.inputs m.Full.outputs m.Full.bidirs;
      Scan.add_chains buf m.Full.scan_chains;
      Buffer.add_char buf '\n';
      List.iter
        (fun (test : Full.test) ->
          Printf.bprintf buf "Test %d ScanUse %d TamUse %d Patterns %d\n" test.Full.index
            (Bool.to_int test.Full.scan_use) (Bool.to_int test.Full.tam_use) test.Full.patterns)
        m.Full.tests)
    t.Full.modules;
  Buffer.contents buf
