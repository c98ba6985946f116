(* Bit-identity of the flat kernels of a co-simulated trial.

   [Ref] below keeps, verbatim (less the ADC record's unused
   [architecture] field), the code the flat path replaced: the
   radix-2 transform over boxed [Complex.t] values, the spectrum built
   as window -> pad -> transform -> modulus of every bin -> one-sided
   slice (and Welch's average over it), the pipeline ADC that binary
   searches with a recursive closure and asks its reconstruction DAC
   for the coarse cell's bottom on every sample, the [Array.map] biquad
   over [ref] state, the noise stage and per-sample quantization. The
   flat code must reproduce every output bit for bit, compared through
   [Int64.bits_of_float]:
   - FFT forward and inverse at every power-of-two length 1..4096;
   - spectra for every window with [pad_to] the record length (when a
     power of two), the next power of two and four times that, and
     Welch PSDs;
   - both ADC architectures at 4..16 bits (even for the pipeline) on
     every threshold, its neighbouring floats, and voltages inside and
     outside 0..4 V, plus quantization of the same voltages;
   - Butterworth low-passes of orders 1..8 and the noise stage. *)

module Fft = Msoc_signal.Fft
module Window = Msoc_signal.Window
module Spectrum = Msoc_signal.Spectrum
module Filter = Msoc_signal.Filter
module Adc = Msoc_mixedsig.Adc
module Dac = Msoc_mixedsig.Dac
module Quantize = Msoc_mixedsig.Quantize
module Models = Msoc_mixedsig.Analog_models
module Rng = Msoc_util.Rng

module Ref = struct
  (* --- Fft --- *)

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  (* Iterative in-place decimation-in-time FFT with bit-reversal
     permutation; [sign] selects forward (-1) or inverse (+1). *)
  let transform ~sign input =
    let n = Array.length input in
    if not (is_pow2 n) then invalid_arg "Fft.transform: length must be a power of two";
    let a = Array.copy input in
    (* Bit reversal. *)
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let tmp = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- tmp
      end;
      let m = ref (n lsr 1) in
      while !m >= 1 && !j land !m <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done;
    (* Butterflies. *)
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let theta = float_of_int sign *. 2.0 *. Float.pi /. float_of_int !len in
      let wstep = Complex.polar 1.0 theta in
      let i = ref 0 in
      while !i < n do
        let w = ref Complex.one in
        for k = 0 to half - 1 do
          let u = a.(!i + k) in
          let v = Complex.mul a.(!i + k + half) !w in
          a.(!i + k) <- Complex.add u v;
          a.(!i + k + half) <- Complex.sub u v;
          w := Complex.mul !w wstep
        done;
        i := !i + !len
      done;
      len := !len * 2
    done;
    a

  let forward input = transform ~sign:(-1) input

  let inverse input =
    let n = Array.length input in
    let scale = 1.0 /. float_of_int n in
    transform ~sign:1 input
    |> Array.map (fun c -> Complex.{ re = c.re *. scale; im = c.im *. scale })

  let of_real ?pad_to samples =
    let n = Array.length samples in
    let size = Option.value pad_to ~default:(Fft.next_pow2 n) in
    if size < n then invalid_arg "Fft.of_real: pad_to smaller than input";
    if not (is_pow2 size) then invalid_arg "Fft.of_real: pad_to must be a power of two";
    Array.init size (fun i ->
        if i < n then { Complex.re = samples.(i); im = 0.0 } else Complex.zero)

  let magnitudes = Array.map Complex.norm

  (* --- Window.apply and Spectrum --- *)

  let window_apply w samples =
    let coefs = Window.coefficients w (Array.length samples) in
    Array.mapi (fun i s -> s *. coefs.(i)) samples

  (* Spectrum.analyze's magnitudes and FFT length. *)
  let analyze ?(window = Window.Hann) ?pad_to samples =
    let windowed = window_apply window samples in
    let padded = of_real ?pad_to windowed in
    let n_fft = Array.length padded in
    let mags = magnitudes (forward padded) in
    let one_sided = Array.sub mags 0 ((n_fft / 2) + 1) in
    (n_fft, one_sided)

  let welch_psd ?(window = Window.Hann) ?(segment = 1024) ?(overlap = 0.5) ~fs x =
    let coefs = Window.coefficients window segment in
    (* window power normalization: U = mean of w^2 *)
    let u =
      Array.fold_left (fun a w -> a +. (w *. w)) 0.0 coefs /. float_of_int segment
    in
    let hop = max 1 (int_of_float (float_of_int segment *. (1.0 -. overlap))) in
    let n_segments = 1 + ((Array.length x - segment) / hop) in
    let half = (segment / 2) + 1 in
    let acc = Array.make half 0.0 in
    for s = 0 to n_segments - 1 do
      let windowed =
        Array.init segment (fun i -> x.((s * hop) + i) *. coefs.(i))
      in
      let mags = magnitudes (forward (of_real windowed)) in
      for k = 0 to half - 1 do
        (* one-sided PSD: double everything but DC and Nyquist *)
        let scale = if k = 0 || k = half - 1 then 1.0 else 2.0 in
        acc.(k) <-
          acc.(k)
          +. (scale *. mags.(k) *. mags.(k)
             /. (fs *. float_of_int segment *. u))
      done
    done;
    Array.init half (fun k ->
        ( Fft.bin_frequency ~n:segment ~fs k,
          acc.(k) /. float_of_int n_segments ))

  (* --- Adc --- *)

  type flash_bank = float array

  type stages =
    | Single of flash_bank
    | Pipeline of { coarse : flash_bank; reconstruct : Dac.t; fine : flash_bank }

  type t = { bits : int; range : Quantize.range; stages : stages }

  let gaussian rng =
    let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
    let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
    Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

  let make_bank rng ~sigma_volts ~bits ~range =
    Adc.code_edges_ideal ~bits ~range
    |> Array.map (fun edge -> edge +. (sigma_volts *. gaussian rng))

  let create ?(threshold_sigma_lsb = 0.0) ?(seed = 2) ?(range = Quantize.default_range)
      architecture ~bits =
    let rng = Msoc_util.Rng.create ~seed in
    let full_lsb = Quantize.step ~bits ~range in
    let sigma_volts = threshold_sigma_lsb *. full_lsb in
    let stages =
      match architecture with
      | Adc.Flash -> Single (make_bank rng ~sigma_volts ~bits ~range)
      | Adc.Modular_pipeline ->
        let half = bits / 2 in
        let coarse = make_bank rng ~sigma_volts ~bits:half ~range in
        let reconstruct = Dac.create Dac.Full_string ~bits:half ~range in
        let fine = make_bank rng ~sigma_volts ~bits:half ~range in
        Pipeline { coarse; reconstruct; fine }
    in
    { bits; range; stages }

  let bank_convert bank v =
    (* Thresholds are sorted; binary search for the comparator count. *)
    let n = Array.length bank in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if v >= bank.(mid) then go (mid + 1) hi else go lo mid
    in
    go 0 n

  let convert t v =
    match t.stages with
    | Single bank -> bank_convert bank v
    | Pipeline { coarse; reconstruct; fine } ->
      let half = t.bits / 2 in
      let msb = bank_convert coarse v in
      (* Dac.convert returns cell centers; subtracting half an MSB LSB
         gives the cell bottom, so the residue lies in [0, span/2^h). *)
      let span = t.range.Quantize.vmax -. t.range.Quantize.vmin in
      let msb_lsb = span /. float_of_int (1 lsl half) in
      let cell_bottom = Dac.convert reconstruct msb -. (msb_lsb /. 2.0) in
      let residue = v -. cell_bottom in
      let amplified = t.range.Quantize.vmin +. (residue *. float_of_int (1 lsl half)) in
      let lsb_code =
        Msoc_util.Numeric.clamp_int ~lo:0 ~hi:((1 lsl half) - 1) (bank_convert fine amplified)
      in
      (msb lsl half) lor lsb_code

  (* --- Quantize --- *)

  let encode ~bits ~range v =
    let lsb = Quantize.step ~bits ~range in
    let raw = int_of_float (Float.floor ((v -. range.Quantize.vmin) /. lsb)) in
    Msoc_util.Numeric.clamp_int ~lo:0 ~hi:(Quantize.code_count ~bits - 1) raw

  let decode ~bits ~range code =
    let n = Quantize.code_count ~bits in
    if code < 0 || code >= n then invalid_arg "Quantize.decode: code out of range";
    range.Quantize.vmin +. ((float_of_int code +. 0.5) *. Quantize.step ~bits ~range)

  (* --- Filter and the noise stage --- *)

  let process_section (s : Filter.biquad) samples =
    let z1 = ref 0.0 and z2 = ref 0.0 in
    Array.map
      (fun x ->
        let y = (s.Filter.b0 *. x) +. !z1 in
        z1 := (s.Filter.b1 *. x) -. (s.Filter.a1 *. y) +. !z2;
        z2 := (s.Filter.b2 *. x) -. (s.Filter.a2 *. y);
        y)
      samples

  let process t samples =
    List.fold_left (fun acc s -> process_section s acc) samples (Filter.sections t)

  let additive_noise ?(seed = 42) ~sigma samples =
    let rng = Msoc_util.Rng.create ~seed in
    let gaussian () =
      let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
      let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
      Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
    in
    Array.map (fun v -> v +. (sigma *. gaussian ())) samples
end

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_complex a b =
  same_bits (Array.map (fun c -> c.Complex.re) a) (Array.map (fun c -> c.Complex.re) b)
  && same_bits (Array.map (fun c -> c.Complex.im) a) (Array.map (fun c -> c.Complex.im) b)

(* A float drawn to hit the arithmetic's corners now and then: signed
   zeros, exact small integers and wide magnitudes besides uniform
   values. *)
let value rng =
  match Rng.int rng ~bound:8 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> float_of_int (Rng.int_in rng ~lo:(-4) ~hi:4)
  | 3 -> Rng.float_in rng ~lo:(-1.0) ~hi:1.0 *. Float.pow 10.0 (Rng.float_in rng ~lo:(-30.0) ~hi:30.0)
  | _ -> Rng.float_in rng ~lo:(-2.0) ~hi:2.0

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000_000))

(* --- FFT --- *)

let fft_matches seed =
  let rng = Rng.create ~seed in
  let n = 1 lsl Rng.int_in rng ~lo:0 ~hi:12 in
  let real = Rng.bool rng in
  let x =
    Array.init n (fun _ ->
        { Complex.re = value rng; im = (if real then 0.0 else value rng) })
  in
  same_complex (Fft.forward x) (Ref.forward x)
  && same_complex (Fft.inverse x) (Ref.inverse x)
  && same_complex (Fft.inverse (Fft.forward x)) (Ref.inverse (Ref.forward x))

(* --- spectra --- *)

let windows = [ Window.Rectangular; Window.Hann; Window.Hamming; Window.Blackman ]

let spectra_match seed =
  let rng = Rng.create ~seed in
  let n =
    if Rng.bool rng then 1 lsl Rng.int_in rng ~lo:0 ~hi:11
    else Rng.int_in rng ~lo:1 ~hi:2500
  in
  let x = Array.init n (fun _ -> value rng) in
  let next = Fft.next_pow2 n in
  List.for_all
    (fun window ->
      List.for_all
        (fun pad_to ->
          let s = Spectrum.analyze ~window ?pad_to ~fs:1.7e6 x in
          let n_fft, mags = Ref.analyze ~window ?pad_to x in
          s.Spectrum.n_fft = n_fft && s.Spectrum.n_signal = n
          && same_bits s.Spectrum.magnitudes mags)
        ((if n = next then [ Some n ] else []) @ [ None; Some next; Some (4 * next) ]))
    windows

let welch_matches seed =
  let rng = Rng.create ~seed in
  let segment = 1 lsl Rng.int_in rng ~lo:0 ~hi:9 in
  let x = Array.init (segment + Rng.int_in rng ~lo:0 ~hi:3000) (fun _ -> value rng) in
  let window = Rng.pick rng (Array.of_list windows) in
  let overlap = Rng.pick rng [| 0.0; 0.25; 0.5; 0.75; 0.9 |] in
  let fs = Rng.float_in rng ~lo:1.0e3 ~hi:1.0e7 in
  let flat = Spectrum.welch_psd ~window ~segment ~overlap ~fs x
  and reference = Ref.welch_psd ~window ~segment ~overlap ~fs x in
  same_bits (Array.map fst flat) (Array.map fst reference)
  && same_bits (Array.map snd flat) (Array.map snd reference)

(* --- ADC and quantization --- *)

(* Every threshold the converter compares against (including the
   pipeline's cell bottoms and the voltages whose amplified residue
   lands on a fine threshold), each with its neighbouring floats, the
   range ends, random voltages across -1..5 V and non-finite inputs. *)
let probe_voltages rng (r : Ref.t) =
  let banks =
    match r.Ref.stages with
    | Ref.Single bank -> [ bank ]
    | Ref.Pipeline { coarse; reconstruct; fine } ->
      let half = r.Ref.bits / 2 in
      let span = r.Ref.range.Quantize.vmax -. r.Ref.range.Quantize.vmin in
      let msb_lsb = span /. float_of_int (1 lsl half) in
      let bottoms =
        Array.init (1 lsl half) (fun msb -> Dac.convert reconstruct msb -. (msb_lsb /. 2.0))
      in
      let on_fine =
        Array.map
          (fun edge ->
            let msb = Rng.int rng ~bound:(1 lsl half) in
            bottoms.(msb) +. (edge /. float_of_int (1 lsl half)))
          fine
      in
      [ coarse; fine; bottoms; on_fine ]
  in
  let edges = Array.concat (Adc.code_edges_ideal ~bits:r.Ref.bits ~range:r.Ref.range :: banks) in
  Array.concat
    [
      edges; Array.map Float.pred edges; Array.map Float.succ edges;
      [| 0.0; -0.0; 4.0; Float.pred 0.0; Float.succ 4.0; Float.nan; Float.infinity;
         Float.neg_infinity |];
      Array.init 200 (fun _ -> Rng.float_in rng ~lo:(-1.0) ~hi:5.0);
    ]

let adc_matches seed =
  let rng = Rng.create ~seed in
  let architecture = if Rng.bool rng then Adc.Flash else Adc.Modular_pipeline in
  let bits =
    match architecture with
    | Adc.Flash -> Rng.int_in rng ~lo:4 ~hi:16
    | Adc.Modular_pipeline -> 2 * Rng.int_in rng ~lo:2 ~hi:8
  in
  let threshold_sigma_lsb = if Rng.bool rng then 0.0 else Rng.float_in rng ~lo:0.0 ~hi:1.0 in
  let adc_seed = Rng.int_in rng ~lo:1 ~hi:1_000_000 in
  let flat = Adc.create ~threshold_sigma_lsb ~seed:adc_seed architecture ~bits in
  let r = Ref.create ~threshold_sigma_lsb ~seed:adc_seed architecture ~bits in
  let volts = probe_voltages rng r in
  let range = Quantize.default_range in
  let codes = Array.init (1 lsl bits) Fun.id in
  Adc.convert_all flat volts = Array.map (Ref.convert r) volts
  && Array.map (Quantize.encode ~bits ~range) volts = Array.map (Ref.encode ~bits ~range) volts
  && same_bits
       (Array.map (Quantize.decode ~bits ~range) codes)
       (Array.map (Ref.decode ~bits ~range) codes)

(* --- filter and noise --- *)

let filter_matches seed =
  let rng = Rng.create ~seed in
  let fs = Rng.float_in rng ~lo:1.0e3 ~hi:1.0e7 in
  let order = Rng.int_in rng ~lo:1 ~hi:8 in
  let fc = fs *. Rng.float_in rng ~lo:0.001 ~hi:0.45 in
  let filter = Filter.butterworth_lowpass ~order ~fc ~fs in
  let x = Array.init (Rng.int_in rng ~lo:0 ~hi:2000) (fun _ -> value rng) in
  let sigma = Rng.float_in rng ~lo:0.0 ~hi:0.01 and noise_seed = Rng.int rng ~bound:1_000_000 in
  same_bits (Filter.process filter x) (Ref.process filter x)
  && same_bits
       (Models.additive_noise ~seed:noise_seed ~sigma x)
       (Ref.additive_noise ~seed:noise_seed ~sigma x)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"FFT forward and inverse = boxed reference" ~count:300 seed_arb
      fft_matches;
    QCheck.Test.make ~name:"spectra = boxed reference (every window and pad)" ~count:60
      seed_arb spectra_match;
    QCheck.Test.make ~name:"Welch PSD = boxed reference" ~count:60 seed_arb welch_matches;
    QCheck.Test.make ~name:"ADC and quantizer = per-sample reference" ~count:120 seed_arb
      adc_matches;
    QCheck.Test.make ~name:"Butterworth and noise = Array.map reference" ~count:200 seed_arb
      filter_matches;
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites = [ ("dsp-ref.property", qcheck_tests) ]
