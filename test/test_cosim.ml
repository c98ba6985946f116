(* Msoc_cosim: the batch engine against the event-driven reference it
   replaced, the Fig. 5 testbench and its golden digest, Monte-Carlo
   determinism, plan-time calibration, and the serve [cosim] op. *)

module Scheduler = Msoc_cosim.Scheduler
module Dut = Msoc_cosim.Dut
module Engine = Msoc_cosim.Engine
module Testbench = Msoc_cosim.Testbench
module Monte_carlo = Msoc_cosim.Monte_carlo
module Calibrate = Msoc_cosim.Calibrate
module Variation = Msoc_mixedsig.Variation
module Wrapper = Msoc_mixedsig.Wrapper
module Yield = Msoc_mixedsig.Yield
module Adc = Msoc_mixedsig.Adc
module Dac = Msoc_mixedsig.Dac
module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog
module Pool = Msoc_util.Pool
module Rng = Msoc_util.Rng
module Filter = Msoc_signal.Filter
module Export = Msoc_testplan.Export
module Plan = Msoc_testplan.Plan
module Protocol = Msoc_serve.Protocol
module Service = Msoc_serve.Service
module Cache = Msoc_serve.Cache

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- the event-driven reference --- *)

(* The discrete-event engine and the per-sample DUT that Engine.run and
   Dut.batch replaced, kept as the reference both are checked against.
   Every stimulus word is posted into a (time, seq) min-heap and
   chained Tam_word -> Dac_convert -> Analog_advance -> Adc_convert
   (one period later) -> Tam_capture, with one Extract at the end. *)
module Reference = struct
  module Event = struct
    type payload =
      | Tam_word of { index : int; code : int }
      | Dac_convert of { index : int; code : int }
      | Analog_advance of { index : int }
      | Adc_convert of { index : int }
      | Tam_capture of { index : int }
      | Extract

    type t = { time : int; seq : int; payload : payload }

    let compare a b =
      match Int.compare a.time b.time with
      | 0 -> Int.compare a.seq b.seq
      | c -> c

    let describe = function
      | Tam_word _ -> "tam_word"
      | Dac_convert _ -> "dac_convert"
      | Analog_advance _ -> "analog_advance"
      | Adc_convert _ -> "adc_convert"
      | Tam_capture _ -> "tam_capture"
      | Extract -> "extract"
  end

  (* Binary min-heap over Event.compare in a growable array. *)
  module Scheduler = struct
    type t = {
      mutable heap : Event.t array;  (* slots 0 .. size-1 are live *)
      mutable size : int;
      mutable clock : int;
      mutable next_seq : int;
      mutable processed : int;
      mutable peak_queue : int;
      mutable horizon : int;
      mutable running : bool;
    }

    let create () =
      {
        heap = Array.make 64 { Event.time = 0; seq = 0; payload = Event.Extract };
        size = 0;
        clock = 0;
        next_seq = 0;
        processed = 0;
        peak_queue = 0;
        horizon = 0;
        running = false;
      }

    let now t = t.clock

    let swap t i j =
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(j);
      t.heap.(j) <- tmp

    let rec sift_up t i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if Event.compare t.heap.(i) t.heap.(parent) < 0 then begin
          swap t i parent;
          sift_up t parent
        end
      end

    let rec sift_down t i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest = ref i in
      if l < t.size && Event.compare t.heap.(l) t.heap.(!smallest) < 0 then
        smallest := l;
      if r < t.size && Event.compare t.heap.(r) t.heap.(!smallest) < 0 then
        smallest := r;
      if !smallest <> i then begin
        swap t i !smallest;
        sift_down t !smallest
      end

    let post t ~time payload =
      if time < 0 then invalid_arg "Scheduler.post: negative timestamp";
      if time < t.clock then
        invalid_arg
          (Printf.sprintf "Scheduler.post: %s at t=%d is in the past (now %d)"
             (Event.describe payload) time t.clock);
      if t.size = Array.length t.heap then begin
        let bigger =
          Array.make (2 * Array.length t.heap)
            { Event.time = 0; seq = 0; payload = Event.Extract }
        in
        Array.blit t.heap 0 bigger 0 t.size;
        t.heap <- bigger
      end;
      t.heap.(t.size) <- { Event.time; seq = t.next_seq; payload };
      t.next_seq <- t.next_seq + 1;
      t.size <- t.size + 1;
      if t.size > t.peak_queue then t.peak_queue <- t.size;
      sift_up t (t.size - 1)

    let pop t =
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.heap.(0) <- t.heap.(t.size);
        sift_down t 0
      end;
      top

    let run t ~handler =
      if t.running then invalid_arg "Scheduler.run: already running";
      t.running <- true;
      Fun.protect
        ~finally:(fun () -> t.running <- false)
        (fun () ->
          while t.size > 0 do
            let ev = pop t in
            t.clock <- ev.Event.time;
            if ev.Event.time > t.horizon then t.horizon <- ev.Event.time;
            t.processed <- t.processed + 1;
            handler t ev
          done)

    type stats = { processed : int; peak_queue : int; horizon : int }

    let stats (t : t) =
      { processed = t.processed; peak_queue = t.peak_queue; horizon = t.horizon }
  end

  (* Per-sample DF2T biquad cascade with persistent section state: the
     same recurrence Filter.process_in_place runs section by section
     over the whole array, reassociated per sample. *)
  let stream_filter (filter : Filter.t) =
    let sections =
      List.map (fun s -> (s, ref 0.0, ref 0.0)) (filter :> Filter.biquad list)
    in
    fun x ->
      List.fold_left
        (fun x ((s : Filter.biquad), z1, z2) ->
          let y = (s.Filter.b0 *. x) +. !z1 in
          z1 := (s.Filter.b1 *. x) -. (s.Filter.a1 *. y) +. !z2;
          z2 := (s.Filter.b2 *. x) -. (s.Filter.a2 *. y);
          y)
        x sections

  (* Mirrors Analog_models.slew_limited_in_place: state starts at the first
     sample, so the first output equals the first input. *)
  let stream_slew ~max_slew_v_per_s ~fs =
    if max_slew_v_per_s <= 0.0 then
      invalid_arg "Dut: slew must be positive";
    let step = max_slew_v_per_s /. fs in
    let state = ref None in
    fun target ->
      let prev = match !state with Some s -> s | None -> target in
      let delta = Fixtures.clamp ~lo:(-.step) ~hi:step (target -. prev) in
      let y = prev +. delta in
      state := Some y;
      y

  (* Mirrors Analog_models.additive_noise_in_place's Box-Muller draw order: one
     (u1, u2) pair per sample from a single stream. *)
  let stream_noise ~sigma ~seed =
    let rng = Rng.create ~seed in
    fun x ->
      let u1 = Float.max 1e-12 (Rng.float rng ~bound:1.0) in
      let u2 = Rng.float rng ~bound:1.0 in
      let g = Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2) in
      x +. (sigma *. g)

  let stream_stage ~fs : Dut.stage -> float -> float = function
    | Gain g -> fun x -> g *. x
    | Dc_offset c -> fun x -> x +. c
    | Lowpass { order; fc } ->
      stream_filter (Filter.butterworth_lowpass ~order ~fc ~fs)
    | Polynomial { a1; a2; a3 } ->
      fun x -> (a1 *. x) +. (a2 *. x *. x) +. (a3 *. x *. x *. x)
    | Slew_limited { max_slew_v_per_s } -> stream_slew ~max_slew_v_per_s ~fs
    | Noise { sigma; seed } -> stream_noise ~sigma ~seed

  let stream (t : Dut.t) =
    let fns = List.map (stream_stage ~fs:t.fs) t.stages in
    fun v ->
      t.bias +. List.fold_left (fun x f -> f x) (v -. t.bias) fns

  let run_stream t samples = Array.map (stream t) samples

  type trace = {
    samples : int;
    tam_cycles : int;
    dac_events : int;
    adc_events : int;
    analog_advances : int;
    scheduler : Scheduler.stats;
    response : int array;
  }

  let run ~wrapper ~dut ~stimulus_codes =
    let cfg = Wrapper.config wrapper in
    (match cfg.Wrapper.mode with
    | Wrapper.Core_test -> ()
    | Wrapper.Normal | Wrapper.Self_test ->
      invalid_arg "Engine.run: wrapper not in core-test mode");
    let n = Array.length stimulus_codes in
    if n = 0 then invalid_arg "Engine.run: empty stimulus";
    let code_limit = 1 lsl Wrapper.bits wrapper in
    Array.iter
      (fun c ->
        if c < 0 || c >= code_limit then
          invalid_arg "Engine.run: stimulus code out of range")
      stimulus_codes;
    let period = cfg.Wrapper.serial_to_parallel * cfg.Wrapper.divide_ratio in
    let dac = Wrapper.dac wrapper and adc = Wrapper.adc wrapper in
    let solver = stream dut in
    (* One cell per index: an ADC event can only read a voltage its
       Analog_advance produced. *)
    let analog_in = Array.make n 0.0 in
    let analog_out = Array.make n Float.nan in
    let response = Array.make n (-1) in
    let dac_events = ref 0 and adc_events = ref 0 and advances = ref 0 in
    let last_capture = ref 0 in
    let sched = Scheduler.create () in
    let handler sched (ev : Event.t) =
      match ev.Event.payload with
      | Event.Tam_word { index; code } ->
        Scheduler.post sched ~time:ev.Event.time (Event.Dac_convert { index; code })
      | Event.Dac_convert { index; code } ->
        incr dac_events;
        analog_in.(index) <- Dac.convert dac code;
        Scheduler.post sched ~time:ev.Event.time (Event.Analog_advance { index })
      | Event.Analog_advance { index } ->
        incr advances;
        analog_out.(index) <- solver analog_in.(index);
        (* Pipelined capture: the ADC samples one period after the
           stimulus word entered. *)
        Scheduler.post sched
          ~time:(ev.Event.time + period)
          (Event.Adc_convert { index })
      | Event.Adc_convert { index } ->
        incr adc_events;
        if Float.is_nan analog_out.(index) then
          invalid_arg "Engine.run: ADC fired before the analog solver";
        response.(index) <- Adc.convert adc analog_out.(index);
        Scheduler.post sched ~time:ev.Event.time (Event.Tam_capture { index })
      | Event.Tam_capture { index } ->
        if ev.Event.time > !last_capture then last_capture := ev.Event.time;
        if index = n - 1 then Scheduler.post sched ~time:ev.Event.time Event.Extract
      | Event.Extract -> ()
    in
    Array.iteri
      (fun index code ->
        Scheduler.post sched ~time:(index * period) (Event.Tam_word { index; code }))
      stimulus_codes;
    Scheduler.run sched ~handler;
    {
      samples = n;
      tam_cycles = !last_capture;
      dac_events = !dac_events;
      adc_events = !adc_events;
      analog_advances = !advances;
      scheduler = Scheduler.stats sched;
      response;
    }
end

(* --- DUT models --- *)

let random_stages rng =
  let pick () =
    match Rng.int_in rng ~lo:0 ~hi:5 with
    | 0 -> Dut.Gain (Rng.float_in rng ~lo:0.5 ~hi:2.0)
    | 1 -> Dut.Dc_offset (Rng.float_in rng ~lo:(-0.2) ~hi:0.2)
    | 2 ->
      Dut.Lowpass
        {
          order = Rng.int_in rng ~lo:1 ~hi:4;
          fc = Rng.float_in rng ~lo:10_000.0 ~hi:200_000.0;
        }
    | 3 ->
      Dut.Polynomial
        {
          a1 = Rng.float_in rng ~lo:0.8 ~hi:1.2;
          a2 = Rng.float_in rng ~lo:(-0.02) ~hi:0.02;
          a3 = Rng.float_in rng ~lo:(-0.02) ~hi:0.02;
        }
    | 4 ->
      Dut.Slew_limited
        { max_slew_v_per_s = Rng.float_in rng ~lo:1.0e5 ~hi:2.0e6 }
    | _ ->
      Dut.Noise
        { sigma = Rng.float_in rng ~lo:0.001 ~hi:0.01;
          seed = Rng.int_in rng ~lo:1 ~hi:10_000 }
  in
  List.init (Rng.int_in rng ~lo:1 ~hi:4) (fun _ -> pick ())

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_dut_stream_equals_batch () =
  (* the batch combinators must be bit-identical to the per-sample
     streaming reference — across random pipelines, including noise
     stages *)
  for seed = 1 to 25 do
    let rng = Rng.create ~seed in
    let dut = Dut.make ~fs:1.7e6 (random_stages rng) in
    let n = 64 + Rng.int_in rng ~lo:0 ~hi:192 in
    let x =
      Array.init n (fun _ -> Rng.float_in rng ~lo:1.0 ~hi:3.0)
    in
    let streamed = Reference.run_stream dut x in
    let batched = Dut.batch dut x in
    checkb
      (Printf.sprintf "seed %d bit-identical" seed)
      true (same_bits streamed batched)
  done

let test_dut_validation () =
  (match Dut.make ~fs:0.0 [ Dut.Gain 1.0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive fs accepted");
  List.iter
    (fun (fs, bias) ->
      match Dut.make ~bias ~fs [ Dut.Gain 1.0 ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "fs %g, bias %g accepted" fs bias)
    [ (Float.nan, 2.0); (Float.infinity, 2.0); (1.7e6, Float.nan);
      (1.7e6, Float.infinity) ]

(* --- engine vs the event-driven reference --- *)

let fig5_wrapper () =
  Wrapper.set_mode
    (Variation.wrapper
       {
         (Variation.nominal ~bits:8 ()) with
         Variation.dac_mismatch_sigma = 0.02;
         adc_threshold_sigma_lsb = 0.5;
         converter_seed = 20;
       })
    Wrapper.Core_test

(* One case per seed: a random DUT pipeline, a sampled die's wrapper
   (in plain core-test mode, period 1, or configured for a random
   catalog test at a random system clock, period > 1), a record of
   in-range codes and a voltage record for the DUT alone. *)
type engine_case = {
  seed : int;
  dut : Dut.t;
  wrapper : Wrapper.t;
  codes : int array;
  volts : float array;
}

let engine_case ~seed =
  let rng = Rng.create ~seed in
  let dut = Dut.make ~fs:1.7e6 (random_stages rng) in
  let die = Variation.wrapper (Variation.sample ~master:seed ~trial:1 ()) in
  let wrapper =
    if Rng.bool rng then Wrapper.set_mode die Wrapper.Core_test
    else
      let core = Rng.pick rng (Array.of_list Catalog.all) in
      let test = Rng.pick rng (Array.of_list core.Spec.tests) in
      Wrapper.configure_for_test die
        ~system_clock_hz:(test.Spec.f_sample_hz *. Rng.float_in rng ~lo:2.0 ~hi:64.0)
        test
  in
  let n = Rng.int_in rng ~lo:1 ~hi:600 in
  let codes = Array.init n (fun _ -> Rng.int rng ~bound:(1 lsl Wrapper.bits wrapper)) in
  let volts = Array.init n (fun _ -> Rng.float_in rng ~lo:0.0 ~hi:4.0) in
  { seed; dut; wrapper; codes; volts }

let print_engine_case c =
  let cfg = Wrapper.config c.wrapper in
  Printf.sprintf "seed %d: %d stages, %d bits, %d samples, period %d x %d" c.seed
    (List.length c.dut.Dut.stages) (Wrapper.bits c.wrapper) (Array.length c.codes)
    cfg.Wrapper.serial_to_parallel cfg.Wrapper.divide_ratio

(* The chain in two buffers, as a testbench trial runs it: the codes
   come back as the response; a pipeline with two noise stages has no
   one draws buffer and is refused. *)
let in_place_response c =
  let n = Array.length c.codes in
  match Dut.batch_into ~draws:(Array.make n Float.nan) c.dut with
  | exception Invalid_argument _ -> None
  | core ->
    let codes = Array.copy c.codes and samples = Array.make n Float.nan in
    Wrapper.apply_core_test_into c.wrapper ~core:(fun x -> core x ~into:x) ~codes ~samples;
    Some codes

let engine_matches_reference c =
  let t = Engine.run ~wrapper:c.wrapper ~dut:c.dut ~stimulus_codes:c.codes in
  let r = Reference.run ~wrapper:c.wrapper ~dut:c.dut ~stimulus_codes:c.codes in
  let noise_stages =
    List.length (List.filter (function Dut.Noise _ -> true | _ -> false) c.dut.Dut.stages)
  in
  t.Engine.response = r.Reference.response
  && (match in_place_response c with
     | Some response -> response = r.Reference.response
     | None -> noise_stages > 1)
  && t.Engine.samples = r.Reference.samples
  && t.Engine.tam_cycles = r.Reference.tam_cycles
  && t.Engine.scheduler.Scheduler.processed
     = r.Reference.scheduler.Reference.Scheduler.processed
  && t.Engine.scheduler.Scheduler.peak_queue
     = r.Reference.scheduler.Reference.Scheduler.peak_queue
  && same_bits (Dut.batch c.dut c.volts) (Reference.run_stream c.dut c.volts)

let engine_properties =
  [
    QCheck.Test.make ~name:"engine equals the event-driven reference" ~count:300
      (QCheck.make ~print:print_engine_case
         QCheck.Gen.(map (fun seed -> engine_case ~seed) (int_range 1 1_000_000_000)))
      engine_matches_reference;
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let test_engine_matches_batch_wrapper () =
  let wrapper = fig5_wrapper () in
  let dut =
    Dut.make ~fs:1.7e6
      [ Dut.Gain 1.0; Dut.Lowpass { order = 2; fc = 61_000.0 } ]
  in
  let rng = Rng.create ~seed:9 in
  let codes = Array.init 257 (fun _ -> Rng.int_in rng ~lo:0 ~hi:255) in
  let trace = Engine.run ~wrapper ~dut ~stimulus_codes:codes in
  (* The batch path and the event-driven reference, each on a fresh
     wrapper instance so converter state cannot leak. *)
  let batch_response =
    Wrapper.apply_core_test (fig5_wrapper ())
      ~core:(Dut.batch dut) ~stimulus:codes
  in
  let reference =
    Reference.run ~wrapper:(fig5_wrapper ()) ~dut ~stimulus_codes:codes
  in
  checkb "response bit-identical to apply_core_test" true
    (trace.Engine.response = batch_response);
  checkb "response bit-identical to the reference" true
    (trace.Engine.response = reference.Reference.response);
  checki "samples" 257 trace.Engine.samples;
  checki "reference: one DAC event per sample" 257 reference.Reference.dac_events;
  checki "reference: one ADC event per sample" 257 reference.Reference.adc_events;
  checki "reference: one solver advance per sample" 257
    reference.Reference.analog_advances;
  checki "five events per sample plus Extract" ((5 * 257) + 1)
    trace.Engine.scheduler.Scheduler.processed;
  checki "processed = reference"
    reference.Reference.scheduler.Reference.Scheduler.processed
    trace.Engine.scheduler.Scheduler.processed;
  checki "peak queue = one word per sample" 257
    trace.Engine.scheduler.Scheduler.peak_queue;
  checki "peak_queue = reference"
    reference.Reference.scheduler.Reference.Scheduler.peak_queue
    trace.Engine.scheduler.Scheduler.peak_queue;
  checki "tam_cycles = Wrapper.test_cycles"
    (Wrapper.test_cycles wrapper ~samples:257)
    trace.Engine.tam_cycles;
  checki "tam_cycles = reference" reference.Reference.tam_cycles
    trace.Engine.tam_cycles

let test_engine_mode_and_range_guards () =
  let dut = Dut.make ~fs:1.7e6 [ Dut.Gain 1.0 ] in
  (match
     Engine.run
       ~wrapper:(Variation.wrapper (Variation.nominal ()))
       ~dut ~stimulus_codes:[| 1 |]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Normal mode accepted");
  (match Engine.run ~wrapper:(fig5_wrapper ()) ~dut ~stimulus_codes:[| 999 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range code accepted");
  match Engine.run ~wrapper:(fig5_wrapper ()) ~dut ~stimulus_codes:[||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty record accepted"

(* --- testbench: the Fig. 5 closed loop --- *)

let test_fig5_closed_loop () =
  let r = Testbench.run Testbench.Fc in
  (* the wrapped measurement agrees with the direct one within the
     paper's ~5 %, and both sit at the 61 kHz design regime *)
  checkb
    (Printf.sprintf "error %.2f%% within 5%%" r.Testbench.error_pct)
    true
    (r.Testbench.error_pct <= 5.0);
  checkb "passes its own tolerance" true r.Testbench.pass;
  checkb
    (Printf.sprintf "wrapped fc %.0f near 61 kHz" r.Testbench.measured)
    true
    (Float.abs (r.Testbench.measured -. 61_000.0) /. 61_000.0 < 0.05);
  checkb
    (Printf.sprintf "direct fc %.0f near 61 kHz" r.Testbench.direct)
    true
    (Float.abs (r.Testbench.direct -. 61_000.0) /. 61_000.0 < 0.05);
  checki "tam cycles accounted" 4551 r.Testbench.trace.Engine.tam_cycles

let test_all_specs_pass_default () =
  List.iter
    (fun spec ->
      let r = Testbench.run spec in
      checkb
        (Printf.sprintf "%s err %.2f%% within %g%%"
           (Testbench.spec_name spec) r.Testbench.error_pct
           r.Testbench.tolerance_pct)
        true r.Testbench.pass;
      checkb "default tolerance applied" true
        (r.Testbench.tolerance_pct = Fixtures.default_tolerance_pct spec);
      (* the spec's DUT runs at the config's rate and bias *)
      let dut = Testbench.dut_for Testbench.default spec in
      checkb "dut at config rate" true
        (dut.Dut.fs = Testbench.default.Testbench.fs
        && dut.Dut.bias = Testbench.default.Testbench.bias))
    Testbench.specs

let test_testbench_deterministic () =
  let a = Testbench.run Testbench.Fc and b = Testbench.run Testbench.Fc in
  checkb "bit-identical reruns" true
    (a.Testbench.measured = b.Testbench.measured
    && a.Testbench.trace.Engine.response = b.Testbench.trace.Engine.response)

(* Does a rejection message name the spec? *)
let names_spec spec msg =
  let needle = "spec " ^ Testbench.spec_name spec in
  let n = String.length needle in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* The program checks the record length once, before any DSP: a record
   outside [min_samples spec .. max_samples] is rejected with the spec's
   name, not deep in Goertzel or the IMD3 readout. *)
let test_record_length_checked () =
  let config samples = { Testbench.default with Testbench.samples } in
  let rejected spec samples =
    let name = Testbench.spec_name spec in
    (match Testbench.run ~config:(config samples) spec with
    | exception Invalid_argument msg ->
      checkb (Printf.sprintf "%s at %d names the spec: %s" name samples msg) true
        (names_spec spec msg)
    | _ -> Alcotest.failf "%s at %d samples accepted" name samples);
    match Monte_carlo.run ~config:(config samples) ~trials:2 ~seed:1 spec with
    | exception Invalid_argument msg -> checkb "Monte-Carlo: same check" true (names_spec spec msg)
    | _ -> Alcotest.failf "Monte-Carlo %s at %d samples accepted" name samples
  in
  rejected Testbench.Gain 0;
  rejected Testbench.Iip3 8;
  rejected Testbench.Iip3 (Testbench.min_samples Testbench.Iip3 - 1);
  rejected Testbench.Slew 1;
  rejected Testbench.Fc (Testbench.max_samples + 1);
  List.iter
    (fun spec ->
      let r = Testbench.run ~config:(config (Testbench.min_samples spec)) spec in
      checki "shortest record runs" (Testbench.min_samples spec) r.Testbench.trace.Engine.samples)
    Testbench.specs

(* A stimulus the spec's readout cannot use is rejected when the
   program is built, naming the spec; the spec's own stimulus passed
   explicitly runs bit for bit as the default. *)
let test_stimulus_checked () =
  let rejected spec tones amplitude =
    match Testbench.program ~stimulus:{ Testbench.tones; amplitude } Testbench.default spec with
    | exception Invalid_argument msg ->
      checkb (Printf.sprintf "rejection names the spec: %s" msg) true (names_spec spec msg)
    | _ ->
      Alcotest.failf "%s accepted %d tones at %g V" (Testbench.spec_name spec)
        (List.length tones) amplitude
  in
  rejected Testbench.Gain [ 20_000.0; 40_000.0 ] 0.5;
  rejected Testbench.Gain [ 20_000.0 ] 0.0;
  rejected Testbench.Gain [ -20_000.0 ] 0.5;
  rejected Testbench.Fc [ 60_000.0 ] 0.5;
  rejected Testbench.Thd [ 900_000.0 ] 0.5;
  rejected Testbench.Thd [ 849_990.0 ] 0.5 (* on the grid it lands at fs/2 *);
  rejected Testbench.Iip3 [ 45_000.0 ] 0.5;
  rejected Testbench.Iip3 [ 45_000.0; 45_050.0 ] 0.5 (* one bin *);
  rejected Testbench.Iip3 [ 100_000.0; 700_000.0 ] 0.5 (* 2 f2 - f1 past fs/2 *);
  rejected Testbench.Dc_offset [ 20_000.0 ] 0.5;
  rejected Testbench.Dc_offset [] 0.5;
  rejected Testbench.Slew [] 0.0;
  rejected Testbench.Slew [ 20_000.0 ] 1.5;
  rejected Testbench.Dr [ 20_000.0 ] Float.nan;
  let default_fc =
    { Testbench.tones = [ 20_000.0; 60_000.0; 150_000.0 ]; amplitude = 0.6 }
  in
  checkb "the Fc program's own stimulus, explicit = default" true
    (Testbench.run ~stimulus:default_fc Testbench.Fc = Testbench.run Testbench.Fc);
  checkb "a step is the Slew amplitude" true
    (Testbench.run ~stimulus:{ Testbench.tones = []; amplitude = 1.5 } Testbench.Slew
    = Testbench.run Testbench.Slew)

(* The spectra a trial's readouts read come from the trial itself: the
   result next to them is run_program's, bit for bit, on any die. *)
let test_spectra_match_trial () =
  let dies =
    Testbench.default.Testbench.variation
    :: List.init 3 (fun i -> Variation.sample ~master:5 ~trial:(i + 1) ())
  in
  List.iter
    (fun spec ->
      let p = Testbench.program Testbench.default spec in
      List.iter
        (fun die ->
          let r, s = Testbench.spectra p die in
          checkb
            (Testbench.spec_name spec ^ ": result = run_program")
            true
            (r = Testbench.run_program p die);
          checki "one input bin set per spectrum"
            (Array.length (Msoc_signal.Spectrum.magnitudes s.Testbench.input))
            (Array.length (Msoc_signal.Spectrum.magnitudes s.Testbench.wrapped_spectrum)))
        dies)
    [ Testbench.Fc; Testbench.Thd; Testbench.Iip3; Testbench.Dr ];
  let _, s = Testbench.spectra (Testbench.program Testbench.default Testbench.Fc)
      Testbench.default.Testbench.variation in
  checki "three Fig. 5 tones" 3 (List.length s.Testbench.tones);
  List.iter
    (fun spec ->
      match Testbench.spectra (Testbench.program Testbench.default spec)
              Testbench.default.Testbench.variation with
      | exception Invalid_argument msg ->
        checkb ("names the spec: " ^ msg) true (names_spec spec msg)
      | _ -> Alcotest.failf "%s has no spectra" (Testbench.spec_name spec))
    [ Testbench.Gain; Testbench.Dc_offset; Testbench.Slew ]

(* The Fig. 5 rows EXPERIMENTS.md records, as `bench fig5` prints them:
   the default die, ideal converters, the resolution sweep and the
   7-tone program. *)
let test_fig5_record () =
  let die = Testbench.default in
  let r = Testbench.run Testbench.Fc in
  checkb
    (Printf.sprintf "wrapped within 5%% of direct: %.3f%%" r.Testbench.error_pct)
    true (r.Testbench.error_pct < 5.0);
  let ideal = Testbench.run ~config:Testbench.ideal Testbench.Fc in
  checkb
    (Printf.sprintf "ideal error %.3f%% below the default die's %.3f%%"
       ideal.Testbench.error_pct r.Testbench.error_pct)
    true
    (ideal.Testbench.error_pct < r.Testbench.error_pct);
  List.iter
    (fun bits ->
      let config =
        Testbench.with_variation { die.Testbench.variation with Variation.bits } die
      in
      let e = (Testbench.run ~config Testbench.Fc).Testbench.error_pct in
      if bits = 4 then checkb (Printf.sprintf "4-bit error %.2f%% above 1%%" e) true (e > 1.0)
      else checkb (Printf.sprintf "%d-bit error %.3f%% below 0.2%%" bits e) true (e < 0.2))
    [ 4; 6; 8; 10 ];
  let seven =
    Testbench.run
      ~stimulus:
        {
          Testbench.tones =
            [ 10_000.0; 20_000.0; 40_000.0; 60_000.0; 90_000.0; 150_000.0; 220_000.0 ];
          amplitude = 0.25;
        }
      Testbench.Fc
  in
  checks "7-tone row as recorded: direct, wrapped (kHz), error"
    "59.1 59.3 0.30"
    (Printf.sprintf "%.1f %.1f %.2f" (seven.Testbench.direct /. 1.0e3)
       (seven.Testbench.measured /. 1.0e3) seven.Testbench.error_pct);
  checkb "more tones do not reduce the error here (the paper's claim is not reproduced)"
    true
    (seven.Testbench.error_pct > r.Testbench.error_pct)

let test_spec_names_roundtrip () =
  List.iter
    (fun s ->
      checkb (Testbench.spec_name s) true
        (Testbench.spec_of_name (Testbench.spec_name s) = Some s))
    Testbench.specs;
  checkb "case-insensitive" true (Testbench.spec_of_name " FC " = Some Testbench.Fc);
  checkb "unknown rejected" true (Testbench.spec_of_name "q-factor" = None)

(* --- golden digest --- *)

(* Every spec program under the default and ideal configs, five other
   resolutions, a shorter record and ten Monte-Carlo dies: both
   readouts' float bits, the trace's three counts and the response
   codes. *)
let golden_configs () =
  let d = Testbench.default in
  let with_bits bits =
    Testbench.with_variation { d.Testbench.variation with Variation.bits } d
  in
  [ d; Testbench.ideal ]
  @ List.map with_bits [ 4; 6; 10; 12; 16 ]
  @ [ { d with Testbench.samples = 1000 } ]
  @ List.init 10 (fun i ->
        Testbench.with_variation (Variation.sample ~master:11 ~trial:(i + 1) ()) d)

let golden_digest () =
  let buf = Buffer.create (1 lsl 22) in
  List.iter
    (fun config ->
      List.iter
        (fun spec ->
          let r = Testbench.run ~config spec in
          let t = r.Testbench.trace in
          Printf.bprintf buf "%s %Lx %Lx %d %d %d\n" (Testbench.spec_name spec)
            (Int64.bits_of_float r.Testbench.measured)
            (Int64.bits_of_float r.Testbench.direct)
            t.Engine.tam_cycles t.Engine.scheduler.Scheduler.processed
            t.Engine.scheduler.Scheduler.peak_queue;
          Array.iter (fun c -> Printf.bprintf buf "%d " c) t.Engine.response;
          Buffer.add_char buf '\n')
        Testbench.specs)
    (golden_configs ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden () =
  Alcotest.(check string)
    "every spec under 18 configs" "29da5a2ed75ee43c3dab7d7316b1adf0"
    (golden_digest ())

(* --- variation sampler --- *)

let test_variation_deterministic () =
  let a = Variation.sample ~master:7 ~trial:3 () in
  let b = Variation.sample ~master:7 ~trial:3 () in
  checkb "same (master, trial) same draw" true (a = b);
  let c = Variation.sample ~master:7 ~trial:4 () in
  checkb "different trial differs" true (a <> c);
  let d = Variation.sample ~master:8 ~trial:3 () in
  checkb "different master differs" true (a <> d)

let test_variation_in_ranges () =
  (* the documented default corners *)
  let r = Fixtures.variation_ranges () in
  for trial = 1 to 50 do
    let v = Variation.sample ~master:99 ~trial () in
    checkb "bits from choices" true
      (List.mem v.Variation.bits r.Variation.bits_choices);
    checkb "mismatch in range" true
      (v.Variation.dac_mismatch_sigma >= 0.0
      && v.Variation.dac_mismatch_sigma <= r.Variation.dac_mismatch_sigma_max);
    checkb "fc shift symmetric" true
      (Float.abs v.Variation.fc_shift_pct <= r.Variation.fc_shift_pct_max);
    checkb "seeds positive" true
      (v.Variation.converter_seed > 0 && v.Variation.noise_seed > 0)
  done

let test_yield_port_compat () =
  (* Yield.wrapper_for_die now rides Variation.wrapper; the historical
     construction (DAC seeded s, ADC seeded s + 1_000_003) must be
     preserved die for die. *)
  let seed = 17 in
  let legacy =
    Wrapper.create
      ~dac:(Dac.create ~mismatch_sigma:0.01 ~seed Dac.Modular ~bits:8)
      ~adc:
        (Adc.create ~threshold_sigma_lsb:0.3 ~seed:(seed + 1_000_003)
           Adc.Modular_pipeline ~bits:8)
      ~bits:8 ()
  in
  let ported = Yield.wrapper_for_die ~seed () in
  let probe w =
    let w = Wrapper.set_mode w Wrapper.Core_test in
    Array.to_list
      (Wrapper.apply_core_test w ~core:(fun x -> x)
         ~stimulus:(Array.init 256 (fun i -> i)))
  in
  checkb "bit-identical die" true (probe legacy = probe ported)

(* --- Monte-Carlo --- *)

let mc_config = { Testbench.default with Testbench.samples = 512 }

let trial_key (t : Monte_carlo.trial) =
  (t.Monte_carlo.index, t.Monte_carlo.variation, t.Monte_carlo.measured,
   t.Monte_carlo.error_pct, t.Monte_carlo.pass)

let test_monte_carlo_pool_identical () =
  let trials = 12 and seed = 5 in
  let serial, s_sum =
    Monte_carlo.run ~config:mc_config ~trials ~seed Testbench.Fc
  in
  let pooled, p_sum =
    Pool.with_pool ~jobs:3 (fun pool ->
        Monte_carlo.run ~config:mc_config ~pool ~trials ~seed Testbench.Fc)
  in
  checkb "trials bit-identical serial vs 3 domains" true
    (List.map trial_key serial = List.map trial_key pooled);
  checkb "summaries agree" true
    (s_sum.Monte_carlo.passes = p_sum.Monte_carlo.passes
    && s_sum.Monte_carlo.measured_mean = p_sum.Monte_carlo.measured_mean
    && s_sum.Monte_carlo.measured_stddev = p_sum.Monte_carlo.measured_stddev)

let test_monte_carlo_seed_sensitivity () =
  let a, _ = Monte_carlo.run ~config:mc_config ~trials:6 ~seed:1 Testbench.Fc in
  let b, _ = Monte_carlo.run ~config:mc_config ~trials:6 ~seed:2 Testbench.Fc in
  checkb "different seeds explore different dies" true
    (List.map trial_key a <> List.map trial_key b)

let test_monte_carlo_summary () =
  let trials, summary =
    Monte_carlo.run ~config:mc_config ~trials:10 ~seed:3 Testbench.Gain
  in
  checki "trial count" 10 (List.length trials);
  checki "indices 1..n" 55
    (List.fold_left (fun a t -> a + t.Monte_carlo.index) 0 trials);
  checkb "yield consistent" true
    (summary.Monte_carlo.passes
     = List.length (List.filter (fun t -> t.Monte_carlo.pass) trials));
  checkb "wilson CI brackets yield" true
    (summary.Monte_carlo.ci_low -. 1e-9 <= summary.Monte_carlo.yield_frac
    && summary.Monte_carlo.yield_frac <= summary.Monte_carlo.ci_high +. 1e-9);
  checkb "min <= mean <= max" true
    (summary.Monte_carlo.measured_min <= summary.Monte_carlo.measured_mean
    && summary.Monte_carlo.measured_mean <= summary.Monte_carlo.measured_max);
  (match Monte_carlo.run ~trials:0 ~seed:1 Testbench.Fc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero trials accepted");
  (* deterministic payload vs wall-clock separation in the JSON *)
  match Monte_carlo.summary_json summary with
  | Export.Object fields ->
    checkb "timing segregated" true (List.mem_assoc "timing" fields);
    checkb "no toplevel elapsed" true (not (List.mem_assoc "elapsed_s" fields))
  | _ -> Alcotest.fail "summary_json not an object"

(* [run_program] over a program built once reads what [run] reads for
   the program's spec and config: every trial and every deterministic
   summary field. *)
let test_monte_carlo_run_program () =
  let deterministic s =
    match Monte_carlo.summary_json s with
    | Export.Object fields -> Export.to_string (Export.Object (List.remove_assoc "timing" fields))
    | json -> Export.to_string json
  in
  List.iter
    (fun spec ->
      let name = Testbench.spec_name spec in
      let a, sa = Monte_carlo.run ~config:mc_config ~trials:3 ~seed:7 spec in
      let b, sb = Monte_carlo.run_program ~trials:3 ~seed:7 (Testbench.program mc_config spec) in
      checkb (name ^ ": trials") true (List.map trial_key a = List.map trial_key b);
      checks (name ^ ": summary") (deterministic sa) (deterministic sb))
    Testbench.specs;
  match Monte_carlo.run_program ~trials:0 ~seed:1 (Testbench.program mc_config Testbench.Fc) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero trials accepted"

(* The allocation gates, in major-heap words, each over one default fc
   trial after [Gc.full_major]: its minor words (~2 600) start on an
   empty minor heap and trigger no minor collection, so nothing is
   promoted and each count repeats exactly. An array longer than the
   minor heap's largest block (256 words) goes to the major heap
   directly.

   A fresh trial ([run_program]) allocates its workspace: the noise
   draws, the sample and code buffers (4 552 words each) and the two
   8 192-point FFT buffers, 30 042 words (fc's readout never asks for
   the scratch's magnitude array). The gate leaves 358 words of slack,
   less than one record: a stage that allocates a record-sized array,
   or a scratch that takes its magnitudes up front, fails it. *)
let fc_trial_major_words = 30_400.0

(* A trial through a warm workspace allocates no array (0 words): the
   gate leaves room for less than one array past the minor heap's
   largest block. *)
let warm_fc_trial_major_words = 256.0

let major_words f =
  Gc.full_major ();
  let _, _, before = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, _, after = Gc.counters () in
  after -. before

let test_fc_trial_major_words () =
  let program = Testbench.program Testbench.default Testbench.Fc in
  let variation = Variation.sample ~master:1 ~trial:1 () in
  ignore (Testbench.run_program program variation);
  let words = major_words (fun () -> Testbench.run_program program variation) in
  if words > fc_trial_major_words then
    Alcotest.failf "one fc trial allocated %.0f major words, above the gate's %.0f" words
      fc_trial_major_words

let test_warm_fc_trial_major_words () =
  let program = Testbench.program Testbench.default Testbench.Fc in
  let ws = Testbench.workspace program in
  ignore (Testbench.run_trial ws (Variation.sample ~master:1 ~trial:2 ()));
  let words =
    major_words (fun () -> Testbench.run_trial ws (Variation.sample ~master:1 ~trial:1 ()))
  in
  if words > warm_fc_trial_major_words then
    Alcotest.failf "one warm fc trial allocated %.0f major words, above the gate's %.0f" words
      warm_fc_trial_major_words

(* The minor words of 20 warm trials of each spec: dies 1..20 of seed
   1, each sampled as a sweep samples it, through one workspace that has
   run a trial already. The limits are the counts at the parent of the
   ADC's order flag and the spectra's bins read on demand (per trial:
   2,421 for offset to 2,614 for thd), fc's since its cut-off fit
   stopped boxing its floats (2,638; 6,094 before), and the counts
   repeat exactly: words added to every trial (a field on a spectrum,
   a copy of a comparator bank, a boxed float per sample) fail them. *)
let warm_trial_minor_words = function
  | Testbench.Gain -> 49_160.0
  | Fc -> 52_760.0
  | Thd -> 52_280.0
  | Iip3 -> 50_120.0
  | Dc_offset -> 48_420.0
  | Slew -> 48_600.0
  | Dr -> 49_320.0

let test_warm_trial_minor_words () =
  List.iter
    (fun spec ->
      let ws = Testbench.workspace (Testbench.program Testbench.default spec) in
      ignore (Testbench.run_trial ws (Variation.sample ~master:1 ~trial:20 ()));
      let before = Gc.minor_words () in
      for trial = 1 to 20 do
        ignore (Sys.opaque_identity (Testbench.run_trial ws (Variation.sample ~master:1 ~trial ())))
      done;
      let words = Gc.minor_words () -. before in
      if words > warm_trial_minor_words spec then
        Alcotest.failf "20 warm %s trials allocated %.0f minor words, above the gate's %.0f"
          (Testbench.spec_name spec) words (warm_trial_minor_words spec))
    Testbench.specs

(* --- calibration --- *)

let test_spec_for_test_mapping () =
  (* each test name picks the program that measures it *)
  let expected =
    [
      ("f_c", Testbench.Fc);
      ("THD", Testbench.Thd);
      ("IIP3", Testbench.Iip3);
      ("DC_offset", Testbench.Dc_offset);
      ("SR", Testbench.Slew);
      ("DR", Testbench.Dr);
      ("g_pb", Testbench.Gain);
      ("ph_off", Testbench.Gain);
    ]
  in
  let tests =
    List.map
      (fun (name, _) ->
        Spec.test ~name ~f_low_hz:0.0 ~f_high_hz:1.0e4 ~f_sample_hz:1.0e6
          ~cycles:100 ~tam_width:1 ~resolution_bits:8)
      expected
  in
  let config = { Testbench.default with Testbench.samples = 256 } in
  let measured =
    Calibrate.measure_core ~config ~system_clock_hz:78.0e6
      (Spec.core ~label:"M" ~name:"mapping" ~tests)
  in
  List.iter2
    (fun (name, spec) (m : Calibrate.measured) -> checkb name true (m.Calibrate.spec = spec))
    expected measured

let test_calibrated_core_cycles () =
  let core = Catalog.find ~label:"A" in
  let config = { Testbench.default with Testbench.samples = 256 } in
  let calibrated, reports =
    match
      Calibrate.calibrated_problem ~config ~system_clock_hz:78.0e6
        ~soc:(Msoc_itc02.Synthetic.d281s ()) ~analog_cores:[ core ] ~tam_width:24
        ~weight_time:0.5 ()
    with
    | { Msoc_testplan.Problem.analog_cores = [ calibrated ]; _ }, [ reports ] ->
      (calibrated, reports)
    | _ -> Alcotest.fail "one calibrated core, one report"
  in
  checki "test count preserved" (List.length core.Spec.tests)
    (List.length calibrated.Spec.tests);
  List.iter2
    (fun (t : Spec.test) (m : Calibrate.measured) ->
      checkb "cycles = samples * s2p * divide" true
        (t.Spec.cycles = m.Calibrate.measured_cycles
        && m.Calibrate.measured_cycles >= 256))
    calibrated.Spec.tests reports;
  (* measure_core is the report half of the calibration *)
  let direct = Calibrate.measure_core ~config ~system_clock_hz:78.0e6 core in
  checkb "measure_core agrees" true
    (List.map (fun m -> m.Calibrate.measured_cycles) direct
    = List.map (fun m -> m.Calibrate.measured_cycles) reports)

let test_calibrated_plan_verifies () =
  let config = { Testbench.default with Testbench.samples = 256 } in
  let problem, reports =
    Calibrate.calibrated_problem ~config ~system_clock_hz:78.0e6
      ~soc:(Msoc_itc02.Synthetic.p93791s ())
      ~analog_cores:[ Catalog.find ~label:"A"; Catalog.find ~label:"C" ]
      ~tam_width:24 ~weight_time:0.5 ()
  in
  checki "one report per core" 2 (List.length reports);
  let plan = Plan.run ~search:(Plan.Heuristic { delta = 0.0 }) problem in
  let diags = Msoc_check.Verify.plan plan in
  checkb "calibrated plan verifies clean" false
    (Msoc_check.Diagnostic.has_errors diags)

(* Every Table-2 test of the five catalog cores, co-simulated at its
   own rate under cosim --calibrate's defaults (the default testbench,
   a 78 MHz SOC clock), passes its program's tolerance, and the JSON
   row carries the verdict. E's SR runs at 69 MS/s: only a slew limit
   that scales with the core's pole moves the step by more than an
   8-bit LSB per sample there. *)
let test_calibration_rows_pass () =
  let reports =
    List.map (fun core -> Calibrate.measure_core ~system_clock_hz:78.0e6 core) Catalog.all
  in
  List.iter2
    (fun (core : Spec.core) ->
      List.iter (fun (m : Calibrate.measured) ->
          checkb
            (Printf.sprintf "%s:%s via %s, err %.2f%%" core.Spec.label
               m.Calibrate.test.Spec.name
               (Testbench.spec_name m.Calibrate.spec)
               m.Calibrate.error_pct)
            true m.Calibrate.pass))
    Catalog.all reports;
  match Calibrate.calibration_json reports with
  | Export.List rows ->
    checki "one row per test" 20 (List.length rows);
    List.iter
      (fun row ->
        checkb "pass field" true (Export.member "pass" row = Some (Export.Bool true)))
      rows
  | _ -> Alcotest.fail "calibration_json is not a list"

(* --- serve: the cosim op --- *)

let with_service ?cache f =
  let service = Service.create ?cache ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Service.shutdown service) (fun () -> f service)

let cosim_params ?(samples = 256) ?(trials = 0) () =
  Export.Object
    ([
       ("spec", Export.String "fc");
       ("samples", Export.Int samples);
       ("width", Export.Int 24);
     ]
    @ if trials > 0 then [ ("trials", Export.Int trials) ] else [])

let test_protocol_cosim_roundtrip () =
  checkb "op name" true (Protocol.op_name Protocol.Cosim = "cosim");
  checkb "op parse" true (Protocol.op_of_name "cosim" = Some Protocol.Cosim);
  let req =
    Protocol.request ~params:(cosim_params ()) ~id:"c1" Protocol.Cosim
  in
  match Protocol.request_of_line (Protocol.request_to_line req) with
  | Ok back ->
    checkb "envelope round-trips" true
      (back.Protocol.op = Protocol.Cosim
      && back.Protocol.id = "c1"
      && Export.to_string back.Protocol.params
         = Export.to_string req.Protocol.params)
  | Error (_, e) -> Alcotest.failf "round-trip failed: %s" e

let test_service_cosim_ok () =
  with_service (fun service ->
      let resp =
        Service.handle service
          (Protocol.request
             ~params:(cosim_params ~trials:3 ())
             ~id:"c" Protocol.Cosim)
      in
      checkb "ok" true (resp.Protocol.status = Protocol.Success);
      let result = resp.Protocol.result in
      (match Export.member "result" result with
      | Some r -> (
        checkb "spec echoed" true
          (Export.member "spec" r = Some (Export.String "fc"));
        match Export.member "pass" r with
        | Some (Export.Bool true) -> ()
        | _ -> Alcotest.fail "fc did not pass")
      | None -> Alcotest.fail "missing result");
      match Export.member "monte_carlo" result with
      | Some mc ->
        checkb "mc trials" true
          (Export.member "trials" mc = Some (Export.Int 3));
        checkb "timing stripped from cached payload" true
          (Export.member "timing" mc = None)
      | None -> Alcotest.fail "missing monte_carlo")

let test_service_cosim_bad_requests () =
  with_service (fun service ->
      let bad params =
        let resp =
          Service.handle service
            (Protocol.request ~params ~id:"b" Protocol.Cosim)
        in
        checkb "bad_request" true
          (resp.Protocol.status = Protocol.Bad_request);
        checkb "has error text" true (resp.Protocol.error <> None)
      in
      bad (Export.Object [ ("spec", Export.String "q-factor") ]);
      bad (Export.Object [ ("bits", Export.Int 7) ]);
      bad (Export.Object [ ("trials", Export.Int (-1)) ]);
      bad (Export.Object [ ("samples", Export.Int 2) ]);
      bad (Export.Object [ ("calibrate", Export.String "yes") ]);
      (* iip3's floor and every spec's ceiling are checked before the
         run, naming the param and the range *)
      List.iter
        (fun (spec, samples, range) ->
          let resp =
            Service.handle service
              (Protocol.request
                 ~params:
                   (Export.Object
                      [ ("spec", Export.String spec); ("samples", Export.Int samples) ])
                 ~id:"i" Protocol.Cosim)
          in
          checkb (spec ^ " bad_request") true (resp.Protocol.status = Protocol.Bad_request);
          let error = Option.value resp.Protocol.error ~default:"" in
          let mentions needle =
            let n = String.length needle in
            let rec go i = i + n <= String.length error && (String.sub error i n = needle || go (i + 1)) in
            go 0
          in
          checkb (error ^ " names samples and the range") true
            (mentions "\"samples\"" && mentions range))
        [ ("iip3", 16, "65..1048576"); ("iip3", 32, "65..1048576");
          ("iip3", 64, "65..1048576"); ("iip3", 1_048_577, "65..1048576");
          ("fc", 400_000_000, "16..1048576"); ("thd", 1_048_577, "16..1048576") ])

let with_temp_dir f =
  let dir = Filename.temp_file "msoc-cosim-cache" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_service_cosim_cache_tiers () =
  with_temp_dir (fun dir ->
      let req id =
        Protocol.request ~params:(cosim_params ()) ~id Protocol.Cosim
      in
      let cache = Cache.create ~memory_capacity:8 ~dir () in
      let first =
        with_service ~cache (fun service ->
            let cold = Service.handle service (req "c1") in
            checkb "first compute not cached" true
              (cold.Protocol.cached = None);
            let warm = Service.handle service (req "c2") in
            checkb "second is a memory hit" true
              (warm.Protocol.cached = Some "memory");
            checks "warm payload identical"
              (Export.to_string cold.Protocol.result)
              (Export.to_string warm.Protocol.result);
            Export.to_string cold.Protocol.result)
      in
      (* restart on the same directory: fresh memory, warm disk *)
      let cache2 = Cache.create ~memory_capacity:8 ~dir () in
      with_service ~cache:cache2 (fun service ->
          let resp = Service.handle service (req "c3") in
          checkb "disk hit across restart" true
            (resp.Protocol.cached = Some "disk");
          checks "disk payload identical" first
            (Export.to_string resp.Protocol.result)))

let test_service_cosim_distinct_keys () =
  with_service (fun service ->
      let handle params id =
        Service.handle service (Protocol.request ~params ~id Protocol.Cosim)
      in
      let a = handle (cosim_params ()) "a" in
      let b = handle (cosim_params ~samples:512 ()) "b" in
      checkb "different samples, different cache entry" true
        (b.Protocol.cached = None);
      checkb "payloads differ" true
        (Export.to_string a.Protocol.result
        <> Export.to_string b.Protocol.result))

let suites =
  [
    ( "cosim.dut",
      [
        Alcotest.test_case "stream = batch" `Quick test_dut_stream_equals_batch;
        Alcotest.test_case "validation" `Quick test_dut_validation;
      ] );
    ( "cosim.engine",
      engine_properties
      @ [
          Alcotest.test_case "matches batch wrapper" `Quick
            test_engine_matches_batch_wrapper;
          Alcotest.test_case "guards" `Quick test_engine_mode_and_range_guards;
        ] );
    ( "cosim.testbench",
      [
        Alcotest.test_case "fig5 closed loop" `Quick test_fig5_closed_loop;
        Alcotest.test_case "all specs pass" `Quick test_all_specs_pass_default;
        Alcotest.test_case "deterministic" `Quick test_testbench_deterministic;
        Alcotest.test_case "record length" `Quick test_record_length_checked;
        Alcotest.test_case "stimulus checked" `Quick test_stimulus_checked;
        Alcotest.test_case "spectra = trial" `Quick test_spectra_match_trial;
        Alcotest.test_case "fig5 record" `Quick test_fig5_record;
        Alcotest.test_case "spec names" `Quick test_spec_names_roundtrip;
        Alcotest.test_case "golden digest" `Quick test_golden;
      ] );
    ( "cosim.variation",
      [
        Alcotest.test_case "deterministic" `Quick test_variation_deterministic;
        Alcotest.test_case "in ranges" `Quick test_variation_in_ranges;
        Alcotest.test_case "yield port compat" `Quick test_yield_port_compat;
      ] );
    ( "cosim.monte_carlo",
      [
        Alcotest.test_case "pool bit-identical" `Quick
          test_monte_carlo_pool_identical;
        Alcotest.test_case "seed sensitivity" `Quick
          test_monte_carlo_seed_sensitivity;
        Alcotest.test_case "summary" `Quick test_monte_carlo_summary;
        Alcotest.test_case "run_program = run" `Quick test_monte_carlo_run_program;
        Alcotest.test_case "fc trial major words" `Quick test_fc_trial_major_words;
        Alcotest.test_case "warm fc trial major words" `Quick test_warm_fc_trial_major_words;
        Alcotest.test_case "warm trial minor words" `Quick test_warm_trial_minor_words;
      ] );
    ( "cosim.calibrate",
      [
        Alcotest.test_case "spec mapping" `Quick test_spec_for_test_mapping;
        Alcotest.test_case "measured cycles" `Quick test_calibrated_core_cycles;
        Alcotest.test_case "plan verifies clean" `Quick
          test_calibrated_plan_verifies;
        Alcotest.test_case "catalog rows pass" `Quick test_calibration_rows_pass;
      ] );
    ( "cosim.serve",
      [
        Alcotest.test_case "protocol roundtrip" `Quick
          test_protocol_cosim_roundtrip;
        Alcotest.test_case "ok envelope" `Quick test_service_cosim_ok;
        Alcotest.test_case "bad requests" `Quick
          test_service_cosim_bad_requests;
        Alcotest.test_case "cache tiers" `Quick test_service_cosim_cache_tiers;
        Alcotest.test_case "distinct keys" `Quick
          test_service_cosim_distinct_keys;
      ] );
  ]
