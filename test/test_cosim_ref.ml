(* Bit-identity of the Monte-Carlo program and its DUT.

   [Ref] below keeps, verbatim, the testbench path that rebuilt every
   die-independent part of a spec test on every run: the stimulus
   (tones summed per sample), the readout with the Hann window's
   coefficients recomputed for every spectrum and the fc program's input
   spectrum recomputed per run, and a DUT whose noise stream is drawn
   twice, once per path. [Ref.monte_carlo] is Monte_carlo.run's trial
   loop over it, one whole run per die. The program/trial split must
   reproduce every output of it bit for bit:
   - a QCheck property over every spec, record lengths from the spec's
     minimum to 5000 samples (exact powers of two included), sampling
     rates of 1.7 MHz, 640 kHz and 26 MHz, and three dies per case (a
     sampled one, the nominal one and a sampled one without noise)
     compares both readouts' float bits, the error's, the verdict and
     the whole trace, and every trial of Monte_carlo.run, serial and on
     a 2-domain pool, against [Ref.monte_carlo], whose dies are drawn
     from the default ranges or one of three others (no noise; 4, 12
     and 16 bits; comparator noise large enough to put most stage
     banks out of order);
   - a golden pin: an MD5 over Monte_carlo.run for the seven specs at
     seeds 1 and 7, 20 trials, 4551 and 512 samples, taken at the
     reference code.
   [Ref.batch] keeps, verbatim, Dut.batch as it was before the in-place
   DUT: every stage a record-to-record model (test_dsp_ref.ml's
   [Ref.Mapped.Models]), composed inside [biased], so each stage and
   each side of the bias allocated its own array. A second property
   runs both over each spec's stage list for a sampled die and over
   random lists of up to five stages, the noise stream restarted at
   every record, and compares two records' float bits (or the
   rejection) through one model, and that neither record was written;
   [Dut.batch_into], run in place with its noise drawn for the
   record's length, a longer or a shorter one, must match [Ref.batch]
   with the noise drawn for that length.
   Two more properties hold the trial's workspace to the fresh path:
   for every spec, dies at 6, 8 and 10 bits run through one workspace
   in shuffled order (the last twice) must each read what a fresh
   [Testbench.run_program] reads, bit for bit; and a serial
   Monte-Carlo sweep (one workspace) must equal the same sweep on a
   2-domain pool (one workspace per chunk). *)

module Testbench = Msoc_cosim.Testbench
module Monte_carlo = Msoc_cosim.Monte_carlo
module Engine = Msoc_cosim.Engine
module Scheduler = Msoc_cosim.Scheduler
module Dut = Msoc_cosim.Dut
module Variation = Msoc_mixedsig.Variation
module Wrapper = Msoc_mixedsig.Wrapper
module Quantize = Msoc_mixedsig.Quantize
module Tone = Msoc_signal.Tone
module Spectrum = Msoc_signal.Spectrum
module Goertzel = Msoc_signal.Goertzel
module Cutoff = Msoc_signal.Cutoff
module Distortion = Msoc_signal.Distortion
module Fft = Msoc_signal.Fft
module Pool = Msoc_util.Pool
module Rng = Msoc_util.Rng

module Ref = struct
  open Testbench

  (* --- the behavioral cores each spec probes --- *)

  let shifted nominal pct = nominal *. (1.0 +. (pct /. 100.0))

  let dut_for config spec =
    let v = config.variation in
    let fc = shifted config.fc_nominal v.Variation.fc_shift_pct in
    let g = shifted config.gain_nominal v.Variation.gain_shift_pct in
    let with_noise ?(floor = 0.0) stages =
      let sigma = Float.max floor v.Variation.noise_sigma_v in
      if sigma > 0.0 then
        stages @ [ Dut.Noise { sigma; seed = v.Variation.noise_seed } ]
      else stages
    in
    let stages =
      match spec with
      | Gain | Fc -> with_noise [ Dut.Gain g; Dut.Lowpass { order = 2; fc } ]
      | Dr ->
        (* A noiseless float path has unbounded SINAD; the DR core owns
           a physical noise floor so the direct measurement is finite. *)
        with_noise ~floor:0.002 [ Dut.Gain g; Dut.Lowpass { order = 2; fc } ]
      | Thd ->
        with_noise [ Dut.Polynomial { a1 = g; a2 = 0.005; a3 = 0.01 } ]
      | Iip3 ->
        with_noise [ Dut.Polynomial { a1 = g; a2 = 0.0; a3 = 0.02 } ]
      | Dc_offset -> with_noise [ Dut.Gain g; Dut.Dc_offset 0.05 ]
      | Slew ->
        (* Process variation moves the bias current, hence the slew. *)
        with_noise
          [ Dut.Gain g;
            Dut.Slew_limited
              { max_slew_v_per_s = shifted 5.0e5 v.Variation.fc_shift_pct } ]
    in
    Dut.make ~bias:config.bias ~fs:config.fs stages

  (* --- stimulus programs --- *)

  let pad_of config = Fft.next_pow2 config.samples

  let coherent config f = Tone.coherent_freq ~fs:config.fs ~n:(pad_of config) f

  (* Stimulus frequencies ride the sampling rate so a program stays
     alias-free at any test's fs (the calibration path runs each Table-2
     test at its own rate). The ratios reproduce the Fig. 5 values at
     the default 1.7 MS/s: [scaled config 20.0] is 20 kHz there. *)
  let scaled config khz_at_1p7m =
    coherent config (config.fs *. (khz_at_1p7m /. 1700.0))

  let tone_stimulus config ~tones ~amplitude =
    Tone.sample
      ~tones:(List.map (fun hz -> Tone.tone ~amplitude hz) tones)
      ~fs:config.fs ~n:config.samples
    |> Array.map (fun v -> v +. config.bias)

  let step_stimulus config ~step_volts =
    let half = config.samples / 2 in
    Array.init config.samples (fun i ->
        if i < half then config.bias -. (step_volts /. 2.0)
        else config.bias +. (step_volts /. 2.0))

  type stimulus = { samples_v : float array; tones : float list; amplitude : float }

  let stimulus_for config spec =
    match spec with
    | Gain ->
      let f = scaled config 20.0 in
      { samples_v = tone_stimulus config ~tones:[ f ] ~amplitude:1.0;
        tones = [ f ]; amplitude = 1.0 }
    | Fc ->
      (* Fig. 5's three-tone program: one tone in the pass band, one at
         the knee, one in the stop band. *)
      let tones = List.map (scaled config) [ 20.0; 60.0; 150.0 ] in
      { samples_v = tone_stimulus config ~tones ~amplitude:0.6; tones;
        amplitude = 0.6 }
    | Thd ->
      let f = scaled config 10.0 in
      { samples_v = tone_stimulus config ~tones:[ f ] ~amplitude:1.2;
        tones = [ f ]; amplitude = 1.2 }
    | Iip3 ->
      let f1 = scaled config 45.0 and f2 = scaled config 55.0 in
      { samples_v = tone_stimulus config ~tones:[ f1; f2 ] ~amplitude:0.7;
        tones = [ f1; f2 ]; amplitude = 0.7 }
    | Dc_offset ->
      { samples_v = Array.make config.samples config.bias; tones = [];
        amplitude = 0.0 }
    | Slew ->
      { samples_v = step_stimulus config ~step_volts:1.5; tones = [];
        amplitude = 1.5 }
    | Dr ->
      let f = scaled config 20.0 in
      { samples_v = tone_stimulus config ~tones:[ f ] ~amplitude:1.0;
        tones = [ f ]; amplitude = 1.0 }

  (* --- extraction (identical DSP on both paths) --- *)

  let spectrum config x = Spectrum.analyze ~fs:config.fs ~pad_to:(pad_of config) x

  let mean x = Array.fold_left ( +. ) 0.0 x /. float_of_int (Array.length x)

  (* The spec's readout of a response record. What depends on the
     stimulus alone (the Fc program's input spectrum) is computed once,
     for both paths. *)
  let extract config spec ~stimulus =
    match (spec, stimulus.tones) with
    | Gain, [ f ] ->
      (* Goertzel, the ATE fast path: evaluated at exactly the stimulus
         frequency, no FFT grid. *)
      fun response ->
        Goertzel.amplitude ~fs:config.fs ~f
          (Array.map (fun v -> v -. config.bias) response)
        /. stimulus.amplitude
    | Fc, tones ->
      let s_in = spectrum config stimulus.samples_v in
      fun response ->
        Cutoff.from_spectra ~order:2 ~input:s_in ~output:(spectrum config response) tones
    | Thd, [ f ] -> fun response -> Distortion.thd (spectrum config response) ~fundamental:f
    | Iip3, [ f1; f2 ] ->
      fun response ->
        (Distortion.imd3 (spectrum config response) ~f1 ~f2).Distortion.iip3_rel
    | Dc_offset, _ -> fun response -> mean response -. config.bias
    | Slew, _ ->
      fun response ->
        let max_slope = ref 0.0 in
        for i = 1 to Array.length response - 1 do
          let slope = Float.abs (response.(i) -. response.(i - 1)) *. config.fs in
          if slope > !max_slope then max_slope := slope
        done;
        !max_slope /. 1.0e6 (* V/us *)
    | Dr, [ f ] ->
      fun response ->
        let m = mean response in
        let ac = Array.map (fun v -> v -. m) response in
        Distortion.sinad_db (spectrum config ac) ~fundamental:f
    | (Gain | Thd | Iip3 | Dr), _ ->
      invalid_arg "Testbench.extract: stimulus does not match the spec's program"

  let unit_label = function
    | Gain -> "V/V"
    | Fc -> "Hz"
    | Thd -> "ratio"
    | Iip3 -> "V"
    | Dc_offset -> "V"
    | Slew -> "V/us"
    | Dr -> "dB"

  (* --- the program --- *)

  let run ?tolerance_pct ?(config = default) spec =
    let tolerance_pct =
      match tolerance_pct with
      | Some t -> t
      | None -> Fixtures.default_tolerance_pct spec
    in
    let dut = dut_for config spec in
    let stimulus = stimulus_for config spec in
    let readout = extract config spec ~stimulus in
    (* Direct path: a bench probe on the bare core — no converters. *)
    let direct = readout (Dut.batch dut stimulus.samples_v) in
    (* Wrapped path: digital words through DAC → DUT → ADC. *)
    let bits = config.variation.Variation.bits in
    let range = Quantize.default_range in
    let codes = Array.map (Fixtures.encode ~bits ~range) stimulus.samples_v in
    let wrapper =
      Wrapper.set_mode (Variation.wrapper config.variation) Wrapper.Core_test
    in
    let trace = Engine.run ~wrapper ~dut ~stimulus_codes:codes in
    let response =
      Array.map (Quantize.decode ~bits ~range) trace.Engine.response
    in
    let measured = readout response in
    let error_pct =
      if direct = 0.0 then Float.abs measured *. 100.0
      else 100.0 *. Float.abs (measured -. direct) /. Float.abs direct
    in
    {
      spec;
      measured;
      direct;
      unit_label = unit_label spec;
      error_pct;
      tolerance_pct;
      pass = error_pct <= tolerance_pct;
      trace;
    }

  (* --- Dut.batch: a fresh array per stage and around the bias --- *)

  module Models = Test_dsp_ref.Ref.Mapped.Models

  let batch_stage ~fs ~samples = function
    | Dut.Gain g -> Models.gain g
    | Dut.Dc_offset c -> Models.dc_offset c
    | Dut.Lowpass { order; fc } -> Models.lowpass ~order ~fc ~fs
    | Dut.Polynomial { a1; a2; a3 } -> Models.polynomial ~a1 ~a2 ~a3
    | Dut.Slew_limited { max_slew_v_per_s } ->
      Models.slew_limited ~max_slew_v_per_s ~fs
    | Dut.Noise { sigma; seed } -> (
      match samples with
      | None -> Models.additive_noise ~seed ~sigma
      | Some n -> Models.add_draws ~sigma (Models.gaussian_draws ~seed n))

  let batch ?samples (t : Dut.t) =
    Models.biased ~bias:t.Dut.bias
      (Models.compose (List.map (batch_stage ~fs:t.Dut.fs ~samples) t.Dut.stages))

  (* --- Monte_carlo.run's trial loop --- *)

  let run_trial ?ranges ~config ~tolerance_pct ~seed spec index =
    let variation = Variation.sample ?ranges ~master:seed ~trial:index () in
    let config = Testbench.with_variation variation config in
    let r = run ?tolerance_pct ~config spec in
    {
      Monte_carlo.index;
      variation;
      measured = r.Testbench.measured;
      direct = r.Testbench.direct;
      error_pct = r.Testbench.error_pct;
      pass = r.Testbench.pass;
    }

  let monte_carlo ?ranges ?(config = Testbench.default) ?tolerance_pct ?pool ~trials
      ~seed spec =
    let indices = List.init trials (fun i -> i + 1) in
    let one = run_trial ?ranges ~config ~tolerance_pct ~seed spec in
    match pool with
    | Some pool -> Pool.map pool one indices
    | None -> List.map one indices
end

(* --- rendering: every compared field, floats by their bits --- *)

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)

let result_text (r : Testbench.result) =
  let t = r.Testbench.trace in
  Printf.sprintf "%s measured %s direct %s error %s tol %s pass %b unit %s | %d %d %d %d | %s"
    (Testbench.spec_name r.Testbench.spec)
    (bits r.Testbench.measured) (bits r.Testbench.direct) (bits r.Testbench.error_pct)
    (bits r.Testbench.tolerance_pct) r.Testbench.pass r.Testbench.unit_label
    t.Engine.samples t.Engine.tam_cycles t.Engine.scheduler.Scheduler.processed
    t.Engine.scheduler.Scheduler.peak_queue
    (String.concat " " (Array.to_list (Array.map string_of_int t.Engine.response)))

let trial_text (t : Monte_carlo.trial) =
  Printf.sprintf "%d %s %s %s %b [%s]" t.Monte_carlo.index (bits t.Monte_carlo.measured)
    (bits t.Monte_carlo.direct) (bits t.Monte_carlo.error_pct) t.Monte_carlo.pass
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ bits v) (Variation.fields t.Monte_carlo.variation)))

(* An outcome is the rendering or the exception's text: a record the
   reference rejects must be rejected the same way. *)
let outcome render f = match f () with x -> render x | exception e -> "raised " ^ Printexc.to_string e

(* --- the property --- *)

let rates = [| 1.7e6; 640.0e3; 26.0e6 |]

(* From the spec's minimum to 5000 samples: a third of the draws an
   exact power of two in that range, a few the two ends. *)
let draw_samples rng spec =
  let lo = Testbench.min_samples spec and hi = 5000 in
  match Rng.int rng ~bound:8 with
  | 0 -> lo
  | 1 -> hi
  | 2 | 3 | 4 ->
    let pows = List.filter (fun p -> p >= lo && p <= hi) (List.init 13 (fun k -> 1 lsl k)) in
    Rng.pick rng (Array.of_list pows)
  | _ -> Rng.int_in rng ~lo ~hi

type case = {
  spec : Testbench.spec;
  config : Testbench.config;
  tolerance_pct : float option;
  dies : (string * Variation.t) list;
  ranges : Variation.ranges option;
  mc_seed : int;
  trials : int;
}

let draw_case seed =
  let rng = Rng.create ~seed in
  let spec = Rng.pick rng (Array.of_list Testbench.specs) in
  let samples = draw_samples rng spec in
  let fs = Rng.pick rng rates in
  let config = { Testbench.default with Testbench.samples; fs } in
  let sampled () =
    Variation.sample ~master:(Rng.int rng ~bound:1_000_000) ~trial:(Rng.int_in rng ~lo:1 ~hi:50) ()
  in
  let dies =
    [
      ("sampled", sampled ());
      ("nominal", Variation.nominal ~bits:(2 * Rng.int_in rng ~lo:2 ~hi:8) ());
      ("noiseless", { (sampled ()) with Variation.noise_sigma_v = 0.0 });
    ]
  in
  let tolerance_pct =
    if Rng.bool rng then None else Some (Rng.float_in rng ~lo:0.5 ~hi:60.0)
  in
  (* the third runs comparator noise of up to 4 stage spacings at 10
     bits (128 LSBs), so most trials' stage banks are out of order *)
  let ranges =
    match Rng.int rng ~bound:4 with
    | 0 -> Some (Fixtures.variation_ranges ~noise_sigma_v_max:0.0 ())
    | 1 -> Some (Fixtures.variation_ranges ~bits_choices:[ 4; 12; 16 ] ~noise_sigma_v_max:0.01 ())
    | 2 -> Some (Fixtures.variation_ranges ~adc_threshold_sigma_lsb_max:128.0 ())
    | _ -> None
  in
  {
    spec;
    config;
    tolerance_pct;
    dies;
    ranges;
    mc_seed = Rng.int rng ~bound:1_000_000;
    trials = Rng.int_in rng ~lo:1 ~hi:3;
  }

let describe c =
  Printf.sprintf "%s samples %d fs %g" (Testbench.spec_name c.spec) c.config.Testbench.samples
    c.config.Testbench.fs

let same_as_reference seed =
  let c = draw_case seed in
  let { spec; tolerance_pct; config; _ } = c in
  List.iter
    (fun (name, die) ->
      let config = Testbench.with_variation die config in
      let got = outcome result_text (fun () -> Testbench.run ?tolerance_pct ~config spec) in
      let want = outcome result_text (fun () -> Ref.run ?tolerance_pct ~config spec) in
      if got <> want then
        QCheck.Test.fail_reportf "%s, %s die:\n got  %s\n want %s" (describe c) name got want)
    c.dies;
  let trials_text f = outcome (fun ts -> String.concat "\n" (List.map trial_text ts)) f in
  let ranges = c.ranges and seed = c.mc_seed and trials = c.trials in
  let want =
    trials_text (fun () -> Ref.monte_carlo ?ranges ~config ?tolerance_pct ~trials ~seed spec)
  in
  let serial =
    trials_text (fun () ->
        fst (Monte_carlo.run ?ranges ~config ?tolerance_pct ~trials ~seed spec))
  in
  let pooled =
    trials_text (fun () ->
        Pool.with_pool ~jobs:2 (fun pool ->
            fst (Monte_carlo.run ?ranges ~config ?tolerance_pct ~pool ~trials ~seed spec)))
  in
  if serial <> want then
    QCheck.Test.fail_reportf "%s, Monte-Carlo serial:\n got  %s\n want %s" (describe c) serial
      want;
  if pooled <> want then
    QCheck.Test.fail_reportf "%s, Monte-Carlo on 2 domains:\n got  %s\n want %s" (describe c)
      pooled want;
  true

(* --- the in-place DUT --- *)

(* A stage list: one spec's core for a sampled die, or up to five
   stages of any kind with drawn parameters (a slew that is not
   positive included, which both sides must reject alike). *)
let draw_stages rng ~fs =
  if Rng.bool rng then
    let spec = Rng.pick rng (Array.of_list Testbench.specs) in
    let die = Variation.sample ~master:(Rng.int rng ~bound:1_000_000) ~trial:(Rng.int_in rng ~lo:1 ~hi:50) () in
    (Testbench.dut_for (Testbench.with_variation die { Testbench.default with Testbench.fs }) spec)
      .Dut.stages
  else
    List.init (Rng.int_in rng ~lo:0 ~hi:5) (fun _ ->
        match Rng.int rng ~bound:6 with
        | 0 -> Dut.Gain (Rng.float_in rng ~lo:(-2.0) ~hi:2.0)
        | 1 -> Dut.Dc_offset (Rng.float_in rng ~lo:(-0.5) ~hi:0.5)
        | 2 -> Dut.Lowpass { order = Rng.int_in rng ~lo:1 ~hi:8; fc = fs *. Rng.float_in rng ~lo:0.001 ~hi:0.45 }
        | 3 ->
          Dut.Polynomial
            { a1 = Rng.float_in rng ~lo:0.5 ~hi:1.5; a2 = Rng.float_in rng ~lo:(-0.1) ~hi:0.1;
              a3 = Rng.float_in rng ~lo:(-0.1) ~hi:0.1 }
        | 4 ->
          Dut.Slew_limited
            { max_slew_v_per_s = Rng.pick rng [| 0.0; Rng.float_in rng ~lo:1.0e3 ~hi:1.0e8 |] }
        | _ -> Dut.Noise { sigma = Rng.float_in rng ~lo:0.0 ~hi:0.05; seed = Rng.int rng ~bound:1_000_000 })

let same_bits = Test_dsp_ref.same_bits

let batch_matches seed =
  let rng = Rng.create ~seed in
  let fs = Rng.pick rng rates in
  let stages = draw_stages rng ~fs in
  let dut = Dut.make ~bias:(Rng.float_in rng ~lo:0.0 ~hi:4.0) ~fs stages in
  let n = Rng.int_in rng ~lo:1 ~hi:5000 in
  (* [batch_into]'s draws: made for exactly [n] (twice as likely), for
     more or for fewer *)
  let samples =
    match Rng.int rng ~bound:4 with
    | 0 -> None
    | 1 -> Some n
    | 2 -> Some (n + Rng.int_in rng ~lo:1 ~hi:100)
    | _ -> Some (max 0 (n - Rng.int_in rng ~lo:1 ~hi:100))
  in
  let model = Dut.batch dut and reference = Ref.batch dut in
  let drawn = Ref.batch ?samples dut in
  let run f = match f () with y -> Ok y | exception e -> Error (Printexc.to_string e) in
  let same a b =
    match (a, b) with
    | Ok a, Ok b -> same_bits a b
    | Error a, Error b -> String.equal a b
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  (* [batch_into] over draws of the drawn length (the record's without
     one), written in place: the model a testbench trial runs, against
     the reference with its noise drawn for that length. A pipeline
     with two noise stages is refused when it is built. *)
  let noise_stages = List.length (List.filter (function Dut.Noise _ -> true | _ -> false) stages) in
  let into =
    match Dut.batch_into ~draws:(Array.make (Option.value samples ~default:n) Float.nan) dut with
    | core -> Some core
    | exception Invalid_argument _ when noise_stages > 1 -> None
  in
  (* one model over two records: nothing carries over between them,
     and neither record is written *)
  for _ = 1 to 2 do
    let x = Array.init n (fun _ -> Rng.float_in rng ~lo:(-1.0) ~hi:5.0) in
    let x0 = Array.copy x in
    let want = run (fun () -> reference x) in
    if not (same (run (fun () -> model x)) want) then
      QCheck.Test.fail_reportf "%d stages, %d samples at fs %g: batch differs from the reference"
        (List.length stages) n fs;
    if not (same_bits x x0) then QCheck.Test.fail_reportf "the record was written";
    Option.iter
      (fun core ->
        let buffer = Array.copy x in
        if not (same (run (fun () -> core buffer ~into:buffer; buffer)) (run (fun () -> drawn x)))
        then
          QCheck.Test.fail_reportf
            "%d stages, %d samples at fs %g: batch_into differs from the reference"
            (List.length stages) n fs)
      into
  done;
  true

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000_000))

(* --- the workspace --- *)

(* Two sampled dies at each resolution the default ranges draw (6, 8
   and 10 bits), shuffled, the last one run twice: a workspace that
   keeps anything of the trial before (its noise, its codes, its FFT
   buffers) shows it on one of them. *)
let workspace_dies rng =
  let die bits =
    {
      (Variation.sample ~master:(Rng.int rng ~bound:1_000_000)
         ~trial:(Rng.int_in rng ~lo:1 ~hi:50) ())
      with
      Variation.bits;
    }
  in
  let dies = Array.of_list (List.concat_map (fun b -> [ die b; die b ]) [ 6; 8; 10 ]) in
  Rng.shuffle rng dies;
  Array.to_list dies @ [ dies.(Array.length dies - 1) ]

let verdict_text ~measured ~direct ~error_pct ~pass =
  Printf.sprintf "measured %s direct %s error %s pass %b" (bits measured) (bits direct)
    (bits error_pct) pass

(* Every spec, each at its own drawn record length, one rate per case:
   the dies through one workspace, in order, against a fresh
   [run_program] per die. *)
let workspace_matches_fresh seed =
  let rng = Rng.create ~seed in
  let fs = Rng.pick rng rates in
  let dies = workspace_dies rng in
  List.iter
    (fun spec ->
      let config = { Testbench.default with Testbench.samples = draw_samples rng spec; fs } in
      let program = Testbench.program config spec in
      let ws = Testbench.workspace program in
      List.iteri
        (fun i die ->
          let got =
            outcome
              (fun ({ Testbench.measured; direct; error_pct; pass } : Testbench.reading) ->
                verdict_text ~measured ~direct ~error_pct ~pass)
              (fun () -> Testbench.run_trial ws die)
          and want =
            outcome
              (fun { Testbench.measured; direct; error_pct; pass; _ } ->
                verdict_text ~measured ~direct ~error_pct ~pass)
              (fun () -> Testbench.run_program program die)
          in
          if got <> want then
            QCheck.Test.fail_reportf "%s samples %d fs %g, trial %d (%d bits):\n got  %s\n want %s"
              (Testbench.spec_name spec) config.Testbench.samples fs (i + 1)
              die.Variation.bits got want)
        dies)
    Testbench.specs;
  true

(* One workspace for a whole serial sweep against two on a 2-domain
   pool, each starting cold at its chunk's first trial. *)
let pool_matches_serial seed =
  let rng = Rng.create ~seed in
  let spec = Rng.pick rng (Array.of_list Testbench.specs) in
  let config =
    { Testbench.default with Testbench.samples = draw_samples rng spec; fs = Rng.pick rng rates }
  in
  let program = Testbench.program config spec in
  let trials = Rng.int_in rng ~lo:1 ~hi:12 and mc_seed = Rng.int rng ~bound:1_000_000 in
  let text (ts, _) = String.concat "\n" (List.map trial_text ts) in
  let serial = text (Monte_carlo.run_program ~trials ~seed:mc_seed program) in
  let pooled =
    text
      (Pool.with_pool ~jobs:2 (fun pool ->
           Monte_carlo.run_program ~pool ~trials ~seed:mc_seed program))
  in
  if serial <> pooled then
    QCheck.Test.fail_reportf "%s samples %d, %d trials:\n serial %s\n pooled %s"
      (Testbench.spec_name spec) config.Testbench.samples trials serial pooled;
  true

(* --- golden pin --- *)

let golden_digest () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun samples ->
      let config = { Testbench.default with Testbench.samples } in
      List.iter
        (fun seed ->
          List.iter
            (fun spec ->
              let trials, summary = Monte_carlo.run ~config ~trials:20 ~seed spec in
              Printf.bprintf buf "%s seed %d samples %d passes %d\n" (Testbench.spec_name spec)
                seed samples summary.Monte_carlo.passes;
              List.iter (fun t -> Printf.bprintf buf "%s\n" (trial_text t)) trials)
            Testbench.specs)
        [ 1; 7 ])
    [ 4551; 512 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden () =
  Alcotest.(check string) "seven specs x seeds 1, 7 x 20 trials at 4551 and 512 samples"
    "68ac599db5c2d52ce0b4d64606233102" (golden_digest ())

let suites =
  [
    ( "cosim-ref.property",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"testbench and Monte-Carlo = reference" ~count:80 seed_arb
             same_as_reference);
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"in-place DUT = per-stage arrays" ~count:150 seed_arb
             batch_matches);
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"workspace trials = fresh trials (every spec, 6/8/10 bits)"
             ~count:25 seed_arb workspace_matches_fresh);
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"serial workspace sweep = 2-domain pool sweep" ~count:40
             seed_arb pool_matches_serial);
      ] );
    ("cosim-ref.golden", [ Alcotest.test_case "Monte-Carlo trials pinned" `Quick test_golden ]);
  ]
