(* Bit-identity of the record passes of a co-simulated trial.

   [Ref] below keeps, verbatim (less the ADC record's unused
   [architecture] field), the code the split-array path replaced: the
   radix-2 transform over boxed [Complex.t] values, the spectrum built
   as window -> pad -> transform -> modulus of every bin -> one-sided
   slice, the pipeline ADC that binary
   searches with a recursive closure and asks its reconstruction DAC
   for the coarse cell's bottom on every sample, the [Array.map] biquad
   over [ref] state, the noise stage and per-sample quantization.
   [Ref.Mapped] keeps, verbatim (less the converters' argument checks,
   which no case reaches), the split-array code that FFT plans, bulk
   draws, record loops and in-place stages replaced: the transform
   that recomputes its bit reversal and twiddles on every call, the
   analyzer over it (its spectrum a record of its own, as
   [Spectrum.t] was when it held every bin's modulus), the noise draw
   of one [Rng.float] pair per value,
   the [Array.map] quantizer, DAC and ADC passes with their private
   Box–Muller draws, the biquad cascade with a fresh array per section
   and every [Analog_models] stage as a record-to-record map. The
   current code must reproduce every output bit for bit, compared
   through [Int64.bits_of_float], on vectors that now and then carry
   NaNs of either sign and infinities:
   - the forward transform at power-of-two lengths 1..4096, and in
     every case each length 2^0..2^14 through the one entry,
     [execute_windowed], so both parities of log2 n and the sizes
     below the first radix-2² pass run in every run;
   - spectra for every window with [pad_to] the record length (when a
     power of two), the next power of two and four times that; on
     each, every readout (tone amplitudes, each read twice, THD, IMD3,
     the cut-off fit and, last, SINAD) taken before any bin is filled
     must equal the same readout once every bin is filled, and each
     tone amplitude the one the filled bins define;
   - both ADC architectures at 4..16 bits (even for the pipeline),
     through [convert], [convert_into] and [convert_all], on every
     threshold, its neighbouring floats, and voltages inside and
     outside the range, plus quantization of the same voltages. The
     comparator noise reaches a few bank spacings and now and then
     infinity, and one range in four sits where neighbouring ideal
     edges round together, one in eight where a whole bank collapses
     onto two or three floats, so banks come sorted, unsorted and tied
     locally or across most of the bank;
   - Butterworth low-passes of orders 1..8 and the noise stage;
   - against [Ref.Mapped], on records of 1..5000 samples: one
     analyzer's spectra of two records with [pad_to] up to 2^14, the
     planned transform at that size (forward, one-shot and inverse),
     the bulk uniform and Gaussian draws with the generator state they
     leave, the quantizer, both DAC and both ADC architectures at even
     4..16 bits with mismatch and threshold noise on or off (codes and
     out-of-range rejections alike), and every model stage, which must
     also leave its input record as it found it;
   - [Ref.Cutoff] keeps the cut-off fit whose residual mapped the tone
     list and took its mean on every evaluation; [Cutoff.fit]
     must return its bits, or raise its exception, on 2..6 tones.
   The entry whose loops run unchecked must raise [Invalid_argument]
   on every buffer of the wrong length and on more coefficients than
   the plan or the record holds. *)

module Fft = Msoc_signal.Fft
module Window = Msoc_signal.Window
module Spectrum = Msoc_signal.Spectrum
module Filter = Msoc_signal.Filter
module Distortion = Msoc_signal.Distortion
module Cutoff = Msoc_signal.Cutoff
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

  (* the 2^n - 1 ideal decision thresholds *)
  let code_edges_ideal ~bits ~range =
    let lsb = Quantize.step ~bits ~range in
    Array.init ((1 lsl bits) - 1) (fun i -> range.Quantize.vmin +. (float_of_int (i + 1) *. lsb))

  let make_bank rng ~sigma_volts ~bits ~range =
    code_edges_ideal ~bits ~range
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
    Msoc_util.Numeric.clamp_int ~lo:0 ~hi:((1 lsl bits) - 1) raw

  let decode ~bits ~range code =
    let n = 1 lsl bits in
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

  let process (t : Filter.t) samples =
    List.fold_left (fun acc s -> process_section s acc) samples (t :> Filter.biquad list)

  let additive_noise ?(seed = 42) ~sigma samples =
    let rng = Msoc_util.Rng.create ~seed in
    let gaussian () =
      let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
      let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
      Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
    in
    Array.map (fun v -> v +. (sigma *. gaussian ())) samples

  (* --- the record passes before FFT plans, bulk draws and in-place
     stages: per-call twiddles, [Array.map] closures and a fresh array
     per stage --- *)

  module Mapped = struct
    (* Fft.transform: twiddles by the per-stage recurrence on every
       call. *)
    let transform ~sign re im =
      let n = Array.length re in
      if not (is_pow2 n) then invalid_arg "Fft.transform: length must be a power of two";
      if Array.length im <> n then invalid_arg "Fft.transform: re and im lengths differ";
      (* Bit reversal. *)
      let j = ref 0 in
      for i = 0 to n - 2 do
        if i < !j then begin
          let tr = re.(i) and ti = im.(i) in
          re.(i) <- re.(!j);
          im.(i) <- im.(!j);
          re.(!j) <- tr;
          im.(!j) <- ti
        end;
        let m = ref (n lsr 1) in
        while !m >= 1 && !j land !m <> 0 do
          j := !j lxor !m;
          m := !m lsr 1
        done;
        j := !j lor !m
      done;
      (* Butterflies. *)
      let wr = Array.make (n / 2) 1.0 and wi = Array.make (n / 2) 0.0 in
      let len = ref 2 in
      while !len <= n do
        let half = !len / 2 in
        let theta = float_of_int sign *. 2.0 *. Float.pi /. float_of_int !len in
        let cr = Float.cos theta and ci = Float.sin theta in
        for k = 1 to half - 1 do
          let xr = wr.(k - 1) and xi = wi.(k - 1) in
          wr.(k) <- (xr *. cr) -. (xi *. ci);
          wi.(k) <- (xr *. ci) +. (xi *. cr)
        done;
        let i = ref 0 in
        while !i < n do
          for k = 0 to half - 1 do
            let p = !i + k in
            let q = p + half in
            let br = re.(q) and bi = im.(q) and w_r = wr.(k) and w_i = wi.(k) in
            let vr = (br *. w_r) -. (bi *. w_i) and vi = (br *. w_i) +. (bi *. w_r) in
            let ur = re.(p) and ui = im.(p) in
            re.(p) <- ur +. vr;
            im.(p) <- ui +. vi;
            re.(q) <- ur -. vr;
            im.(q) <- ui -. vi
          done;
          i := !i + !len
        done;
        len := !len * 2
      done

    let forward_in_place ~re ~im = transform ~sign:(-1) re im

    (* Spectrum.analyzer: the window's coefficients once, a transform
       with fresh twiddles per record; [spectrum] is the record it
       returned, whose magnitudes were computed with it. *)
    type spectrum = {
      fs : float;
      n_signal : int;
      n_fft : int;
      window : Window.t;
      magnitudes : float array;
    }

    let one_sided_magnitudes ~coefs ~n_fft ~offset x =
      let re = Array.make n_fft 0.0 and im = Array.make n_fft 0.0 in
      for i = 0 to Array.length coefs - 1 do
        re.(i) <- x.(offset + i) *. coefs.(i)
      done;
      forward_in_place ~re ~im;
      let mags = Array.make ((n_fft / 2) + 1) 0.0 in
      for k = 0 to Array.length mags - 1 do
        mags.(k) <- Float.hypot re.(k) im.(k)
      done;
      mags

    let analyzer ?(window = Window.Hann) ?pad_to ~fs n_signal =
      if n_signal <= 0 then invalid_arg "Spectrum.analyze: empty record";
      let n_fft = Option.value pad_to ~default:(Fft.next_pow2 n_signal) in
      if n_fft < n_signal then invalid_arg "Spectrum.analyze: pad_to smaller than the record";
      let coefs = Window.coefficients window n_signal in
      fun samples ->
        if Array.length samples <> n_signal then
          invalid_arg "Spectrum.analyze: record length differs from the analyzer's";
        let magnitudes = one_sided_magnitudes ~coefs ~n_fft ~offset:0 samples in
        { fs; n_signal; n_fft; window; magnitudes }

    (* Quantize.encode and decode, staged, mapped over a record. *)
    let encode ~bits ~range =
      let lsb = Quantize.step ~bits ~range and hi = (1 lsl bits) - 1 in
      fun v ->
        let raw = int_of_float (Float.floor ((v -. range.Quantize.vmin) /. lsb)) in
        Msoc_util.Numeric.clamp_int ~lo:0 ~hi raw

    let decode ~bits ~range =
      let lsb = Quantize.step ~bits ~range and n = 1 lsl bits in
      fun code ->
        if code < 0 || code >= n then invalid_arg "Quantize.decode: code out of range";
        range.Quantize.vmin +. ((float_of_int code +. 0.5) *. lsb)

    (* Dac: a private Box–Muller, the ladders as a list, a match on
       the architecture per sample. *)
    module Dac = struct
      type t = {
        architecture : Dac.architecture;
        bits : int;
        range : Quantize.range;
        ladders : float array list;
      }

      let gaussian rng =
        (* Box–Muller from two uniforms. *)
        let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
        let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
        Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

      let make_ladder rng ~sigma n =
        let resistors =
          Array.init n (fun _ ->
              let r = 1.0 +. (sigma *. gaussian rng) in
              Float.max 0.05 r)
        in
        let total = Array.fold_left ( +. ) 0.0 resistors in
        let fractions = Array.make n 0.0 in
        let acc = ref 0.0 in
        for c = 0 to n - 1 do
          fractions.(c) <- !acc /. total;
          acc := !acc +. resistors.(c)
        done;
        fractions

      let create ?(mismatch_sigma = 0.0) ?(seed = 1) ?(range = Quantize.default_range)
          architecture ~bits =
        let rng = Msoc_util.Rng.create ~seed in
        let ladders =
          match architecture with
          | Dac.Full_string -> [ make_ladder rng ~sigma:mismatch_sigma (1 lsl bits) ]
          | Dac.Modular ->
            let half = 1 lsl (bits / 2) in
            [ make_ladder rng ~sigma:mismatch_sigma half;
              make_ladder rng ~sigma:mismatch_sigma half ]
        in
        { architecture; bits; range; ladders }

      let span t = t.range.Quantize.vmax -. t.range.Quantize.vmin

      let convert t code =
        let n = 1 lsl t.bits in
        if code < 0 || code >= n then invalid_arg "Dac.convert: code out of range";
        let half_lsb = 0.5 /. float_of_int n in
        let fraction =
          match (t.architecture, t.ladders) with
          | Dac.Full_string, [ ladder ] -> ladder.(code) +. half_lsb
          | Dac.Modular, [ msb_ladder; lsb_ladder ] ->
            let h = t.bits / 2 in
            let msb = code lsr h and lsb = code land ((1 lsl h) - 1) in
            msb_ladder.(msb)
            +. (lsb_ladder.(lsb) /. float_of_int (1 lsl h))
            +. half_lsb
          | (Dac.Full_string | Dac.Modular), _ -> assert false
        in
        t.range.Quantize.vmin +. (fraction *. span t)

      let convert_all t codes = Array.map (convert t) codes
    end

    (* Adc: a private Box–Muller, the coarse cells' bottoms tabulated
       from the reconstruction DAC, a match on the stages per
       sample. *)
    module Adc = struct
      type stages =
        | Single of float array
        | Pipeline of { coarse : float array; cell_bottom : float array; fine : float array }

      type t = { bits : int; range : Quantize.range; stages : stages }

      let gaussian rng =
        let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
        let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
        Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)

      let make_bank rng ~sigma_volts ~bits ~range =
        code_edges_ideal ~bits ~range
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
            let reconstruct = Dac.create Msoc_mixedsig.Dac.Full_string ~bits:half ~range in
            let msb_lsb =
              (range.Quantize.vmax -. range.Quantize.vmin) /. float_of_int (1 lsl half)
            in
            let cell_bottom =
              Array.init (1 lsl half) (fun msb -> Dac.convert reconstruct msb -. (msb_lsb /. 2.0))
            in
            let fine = make_bank rng ~sigma_volts ~bits:half ~range in
            Pipeline { coarse; cell_bottom; fine }
        in
        { bits; range; stages }

      let bank_convert bank v =
        let lo = ref 0 and hi = ref (Array.length bank) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if v >= bank.(mid) then lo := mid + 1 else hi := mid
        done;
        !lo

      let convert t v =
        match t.stages with
        | Single bank -> bank_convert bank v
        | Pipeline { coarse; cell_bottom; fine } ->
          let half = t.bits / 2 in
          let msb = bank_convert coarse v in
          let residue = v -. cell_bottom.(msb) in
          let amplified = t.range.Quantize.vmin +. (residue *. float_of_int (1 lsl half)) in
          let lsb_code =
            Msoc_util.Numeric.clamp_int ~lo:0 ~hi:((1 lsl half) - 1) (bank_convert fine amplified)
          in
          (msb lsl half) lor lsb_code

      let convert_all t samples = Array.map (convert t) samples
    end

    (* Filter.process: a fresh array per section. *)
    let process_section (s : Filter.biquad) samples =
      let out = Array.make (Array.length samples) 0.0 in
      let z1 = ref 0.0 and z2 = ref 0.0 in
      for i = 0 to Array.length samples - 1 do
        let x = samples.(i) in
        let y = (s.Filter.b0 *. x) +. !z1 in
        z1 := (s.Filter.b1 *. x) -. (s.Filter.a1 *. y) +. !z2;
        z2 := (s.Filter.b2 *. x) -. (s.Filter.a2 *. y);
        out.(i) <- y
      done;
      out

    let process (t : Filter.t) samples =
      List.fold_left (fun acc s -> process_section s acc) samples (t :> Filter.biquad list)

    (* Analog_models: every stage a record-to-record [Array.map]. *)
    module Models = struct
      let compose models samples =
        List.fold_left (fun acc model -> model acc) samples models

      let biased ~bias inner samples =
        Array.map (fun v -> v +. bias) (inner (Array.map (fun v -> v -. bias) samples))

      let gain g samples = Array.map (fun v -> g *. v) samples

      let dc_offset offset samples = Array.map (fun v -> v +. offset) samples

      let polynomial ~a1 ~a2 ~a3 samples =
        Array.map (fun x -> (a1 *. x) +. (a2 *. x *. x) +. (a3 *. x *. x *. x)) samples

      let lowpass ~order ~fc ~fs =
        let filter = Filter.butterworth_lowpass ~order ~fc ~fs in
        fun samples -> process filter samples

      let slew_limited ~max_slew_v_per_s ~fs samples =
        if not (max_slew_v_per_s > 0.0) then
          invalid_arg "Analog_models.slew_limited: slew must be positive";
        if Float.is_nan fs then invalid_arg "Analog_models.slew_limited: fs is NaN";
        let step = max_slew_v_per_s /. fs in
        let out = Array.make (Array.length samples) 0.0 in
        let state = ref (if Array.length samples > 0 then samples.(0) else 0.0) in
        Array.iteri
          (fun i target ->
            let delta = Fixtures.clamp ~lo:(-.step) ~hi:step (target -. !state) in
            state := !state +. delta;
            out.(i) <- !state)
          samples;
        out

      let gaussian_draws ~seed n =
        let rng = Msoc_util.Rng.create ~seed in
        let g = Array.make n 0.0 in
        for i = 0 to n - 1 do
          let u1 = Float.max 1e-12 (Msoc_util.Rng.float rng ~bound:1.0) in
          let u2 = Msoc_util.Rng.float rng ~bound:1.0 in
          g.(i) <- Float.sqrt (-2.0 *. Float.log u1) *. Float.cos (2.0 *. Float.pi *. u2)
        done;
        g

      let add_draws ~sigma draws samples =
        let n = Array.length samples in
        if n > Array.length draws then
          invalid_arg "Analog_models.add_draws: record longer than the draws";
        let out = Array.make n 0.0 in
        for i = 0 to n - 1 do
          out.(i) <- samples.(i) +. (sigma *. draws.(i))
        done;
        out

      let additive_noise ?(seed = 42) ~sigma samples =
        add_draws ~sigma (gaussian_draws ~seed (Array.length samples)) samples
    end
  end

  (* --- the cut-off fit before its residual became an array loop: a
     [List.map] over the tones, the mean, then a fold --- *)

  module Cutoff = struct
    let model_gain ~order ~fc f =
      1.0 /. Float.sqrt (1.0 +. Float.pow (f /. fc) (2.0 *. float_of_int order))

    (* Sum of squared residuals in log-gain with the best overall gain
       factor eliminated in closed form (it is the mean log offset). *)
    let residual ~order ~gains fc =
      let logs =
        List.map
          (fun (f, g) -> Float.log g -. Float.log (model_gain ~order ~fc f))
          gains
      in
      let mean = Fixtures.mean logs in
      List.fold_left (fun acc l -> acc +. ((l -. mean) ** 2.0)) 0.0 logs

    let golden_section ~f ~lo ~hi ~iterations =
      let phi = (Float.sqrt 5.0 -. 1.0) /. 2.0 in
      let rec go a b fa_x fb_x x1 x2 n =
        if n = 0 then (a +. b) /. 2.0
        else if fa_x < fb_x then
          let b = x2 and x2 = x1 in
          let x1 = b -. (phi *. (b -. a)) in
          go a b (f x1) fa_x x1 x2 (n - 1)
        else
          let a = x1 and x1 = x2 in
          let x2 = a +. (phi *. (b -. a)) in
          go a b fb_x (f x2) x1 x2 (n - 1)
      in
      let x1 = hi -. (phi *. (hi -. lo)) and x2 = lo +. (phi *. (hi -. lo)) in
      go lo hi (f x1) (f x2) x1 x2 iterations

    let fit ?(order = 2) gains =
      if List.length gains < 2 then invalid_arg "Cutoff.fit: need at least two tones";
      if List.exists (fun (f, g) -> not (f > 0.0 && g > 0.0)) gains then
        invalid_arg "Cutoff.fit: non-positive frequency or gain";
      let freqs = List.map fst gains in
      let fmin = List.fold_left Float.min Float.infinity freqs in
      let fmax = List.fold_left Float.max 0.0 freqs in
      (* Search log-uniformly: fc could sit below, inside or above the
         tone grid (extrapolation is the point of the method). *)
      let lo = Float.log (fmin /. 20.0) and hi = Float.log (fmax *. 20.0) in
      let objective logfc = residual ~order ~gains (Float.exp logfc) in
      (* Coarse grid seed + golden refinement, since the residual can have
         shallow local minima when a tone sits in the stop-band noise. *)
      let steps = 200 in
      let best = ref lo and best_v = ref (objective lo) in
      for i = 1 to steps do
        let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int steps) in
        let v = objective x in
        if v < !best_v then begin
          best := x;
          best_v := v
        end
      done;
      let span = (hi -. lo) /. float_of_int steps in
      Float.exp (golden_section ~f:objective ~lo:(!best -. span) ~hi:(!best +. span) ~iterations:60)
  end
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

(* [n] [value]s; one vector in four carries one to three NaNs of
   either sign or infinities, so NaN propagation and inf - inf are
   compared too without poisoning every transform. *)
let values rng n =
  let v = Array.init n (fun _ -> value rng) in
  if n > 0 && Rng.int rng ~bound:4 = 0 then
    for _ = 1 to Rng.int_in rng ~lo:1 ~hi:3 do
      v.(Rng.int rng ~bound:n) <-
        Rng.pick rng [| Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity |]
    done;
  v

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_range 1 1_000_000_000))

(* A call's value or its exception's text: a call the reference
   rejects must be rejected the same way. *)
type 'a outcome = Value of 'a | Raised of string

let run f = match f () with v -> Value v | exception e -> Raised (Printexc.to_string e)

let same_outcome same a b =
  match (a, b) with
  | Value a, Value b -> same a b
  | Raised a, Raised b -> String.equal a b
  | Value _, Raised _ | Raised _, Value _ -> false

(* --- FFT --- *)

(* The one entry under a rectangular window (every coefficient 1.0,
   which leaves each value's bits, NaN payloads included), against the
   boxed transform of the same real vector. *)
let fft_matches seed =
  let rng = Rng.create ~seed in
  let n = 1 lsl Rng.int_in rng ~lo:0 ~hi:12 in
  let x = values rng n in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  Fft.execute_windowed (Fft.plan n) ~coefs:(Array.make n 1.0) x ~re ~im;
  same_complex
    (Array.init n (fun i -> { Complex.re = re.(i); im = im.(i) }))
    (Ref.forward (Array.map (fun v -> { Complex.re = v; im = 0.0 }) x))

(* --- spectra --- *)

let windows = [ Window.Rectangular; Window.Hann; Window.Hamming; Window.Blackman ]

(* The outcome of every readout of [s], taken in this order (each
   bound before the next, as a list literal's elements are evaluated
   in no fixed order): the tone amplitude at each of [freqs], each
   read twice, THD, every field of IMD3, the cut-off fit with [input]
   as its input spectrum, and last SINAD, the one readout that fills
   every bin of [s]. *)
let readouts ~input ~freqs ~fundamental ~f1 ~f2 ~tones s =
  let amplitudes =
    run (fun () ->
        Array.concat
          (List.map (fun f -> [| Spectrum.tone_amplitude s f; Spectrum.tone_amplitude s f |]) freqs))
  in
  let thd = run (fun () -> [| Distortion.thd s ~fundamental |]) in
  let imd3 =
    run (fun () ->
        let r = Distortion.imd3 s ~f1 ~f2 in
        Distortion.[| r.tone_level; r.imd_level; r.imd_dbc; r.iip3_rel |])
  in
  let cutoff = run (fun () -> [| Cutoff.from_spectra ~input ~output:s tones |]) in
  let sinad = run (fun () -> [| Distortion.sinad_db s ~fundamental |]) in
  [ amplitudes; thd; imd3; cutoff; sinad ]

(* A tone's amplitude by its definition over the filled bins [mags]:
   the largest of the five bins around [f]'s nearest (a NaN bin is
   never the largest), scaled so a unit sine reads 1. *)
let amplitude_of_bins (s : Spectrum.t) mags f =
  let center = Spectrum.bin_of_freq s f in
  let peak = ref 0.0 in
  for i = max 0 (center - 2) to min (Array.length mags - 1) (center + 2) do
    if mags.(i) > !peak then peak := mags.(i)
  done;
  !peak *. (2.0 /. (float_of_int s.Spectrum.n_signal *. Window.coherent_gain s.Spectrum.window))

(* Each spectrum's bins against the boxed reference, and every readout
   of it, taken while no bin of it or of the cut-off fit's input
   spectrum has been filled, against the same readout once
   {!Spectrum.magnitudes} has filled every bin of both and against the
   tone amplitudes those bins define. Half the records carry the
   readouts' tones over the drawn values. *)
let spectra_match seed =
  let rng = Rng.create ~seed in
  let n =
    if Rng.bool rng then 1 lsl Rng.int_in rng ~lo:0 ~hi:11
    else Rng.int_in rng ~lo:1 ~hi:2500
  in
  let x = values rng n in
  let next = Fft.next_pow2 n in
  let fs = 1.7e6 in
  let f1 = fs *. Rng.float_in rng ~lo:0.05 ~hi:0.3 in
  let f2 = f1 +. (fs *. Rng.float_in rng ~lo:0.001 ~hi:0.05) in
  let fundamental = Rng.pick rng [| f1; fs *. Rng.float_in rng ~lo:0.0 ~hi:0.5 |] in
  let tones = List.init (Rng.int_in rng ~lo:2 ~hi:4) (fun _ -> fs *. Rng.float_in rng ~lo:0.0 ~hi:0.45) in
  let freqs = fundamental :: f1 :: f2 :: 0.0 :: (fs /. 2.0) :: tones in
  let with_tones x =
    if Rng.bool rng then
      Array.iteri
        (fun i v ->
          let t = float_of_int i /. fs in
          x.(i) <-
            List.fold_left
              (fun acc f -> acc +. Float.sin (2.0 *. Float.pi *. f *. t))
              (0.01 *. v) (fundamental :: f1 :: f2 :: tones))
        x;
    x
  in
  let x = with_tones x and y = with_tones (values rng n) in
  List.for_all
    (fun window ->
      List.for_all
        (fun pad_to ->
          let s = Spectrum.analyze ~window ?pad_to ~fs x in
          let input = Spectrum.analyze ~window ?pad_to ~fs y in
          let read () = readouts ~input ~freqs ~fundamental ~f1 ~f2 ~tones s in
          let on_demand = read () in
          let filled = Spectrum.magnitudes s in
          ignore (Spectrum.magnitudes input : float array);
          let n_fft, mags = Ref.analyze ~window ?pad_to x in
          s.Spectrum.n_fft = n_fft && s.Spectrum.n_signal = n
          && same_bits filled mags
          && List.for_all2 (same_outcome same_bits) on_demand (read ())
          && same_bits
               (Array.of_list (List.map (Spectrum.tone_amplitude s) freqs))
               (Array.of_list (List.map (amplitude_of_bins s mags) freqs)))
        ((if n = next then [ Some n ] else []) @ [ None; Some next; Some (4 * next) ]))
    windows

(* --- ADC and quantization --- *)

(* Every threshold the converter compares against (including the
   pipeline's cell bottoms and the voltages whose amplified residue
   lands on a fine threshold), each with its neighbouring floats, the
   range ends and their outer neighbours, both zeros, random voltages
   across the range and a quarter of it beyond each end, and non-finite
   inputs. *)
let probe_voltages rng (r : Ref.t) =
  let { Quantize.vmin; vmax } = r.Ref.range in
  let banks =
    match r.Ref.stages with
    | Ref.Single bank -> [ bank ]
    | Ref.Pipeline { coarse; reconstruct; fine } ->
      let half = r.Ref.bits / 2 in
      let span = vmax -. vmin in
      let msb_lsb = span /. float_of_int (1 lsl half) in
      let bottoms =
        Array.init (1 lsl half) (fun msb -> Dac.convert reconstruct msb -. (msb_lsb /. 2.0))
      in
      let on_fine =
        Array.map
          (fun edge ->
            let msb = Rng.int rng ~bound:(1 lsl half) in
            bottoms.(msb) +. ((edge -. vmin) /. float_of_int (1 lsl half)))
          fine
      in
      [ coarse; fine; bottoms; on_fine ]
  in
  let edges = Array.concat (Ref.code_edges_ideal ~bits:r.Ref.bits ~range:r.Ref.range :: banks) in
  let quarter = (vmax -. vmin) /. 4.0 in
  Array.concat
    [
      edges; Array.map Float.pred edges; Array.map Float.succ edges;
      [| vmin; -0.0; 0.0; vmax; Float.pred vmin; Float.succ vmax; Float.nan; Float.infinity;
         Float.neg_infinity |];
      Array.init 200 (fun _ -> Rng.float_in rng ~lo:(vmin -. quarter) ~hi:(vmax +. quarter));
    ]

(* Comparator threshold noise in LSBs of the whole converter: none, up
   to one LSB, or up to a few spacings of its flash banks (2^(bits/2)
   LSBs for a pipeline's stages, drawn on a log scale), so banks come
   sorted and unsorted; now and then infinite, which puts every
   threshold at -inf or +inf, tied, in or out of order. *)
let draw_threshold_sigma rng architecture ~bits =
  let spacing =
    match architecture with
    | Adc.Flash -> 1.0
    | Adc.Modular_pipeline -> float_of_int (1 lsl (bits / 2))
  in
  match Rng.int rng ~bound:8 with
  | 0 | 1 -> 0.0
  | 2 | 3 -> Rng.float_in rng ~lo:0.0 ~hi:1.0
  | 7 -> Float.infinity
  | _ -> spacing *. Float.pow 10.0 (Rng.float_in rng ~lo:(-2.0) ~hi:0.5)

(* The converter's range: the default 0..4 V, or one starting at
   2^53 V, where a float is 2 V from the next. There either a bank's
   ideal edges lie 0.5, 1 or 1.5 V apart, so neighbouring edges round
   onto one another and a bank ties locally, or the whole range spans
   2 or 4 V, so every edge of a bank collapses onto two or three
   floats: ties up to tens of thousands of thresholds wide on a flash
   bank, over a hundred on a stage bank. *)
let draw_adc_range rng architecture ~bits =
  let vmin = 0x1p53 in
  match Rng.int rng ~bound:8 with
  | 0 | 1 ->
    let bank_bits = match architecture with Adc.Flash -> bits | Adc.Modular_pipeline -> bits / 2 in
    { Quantize.vmin;
      vmax = vmin +. (float_of_int (1 lsl bank_bits) *. Rng.pick rng [| 0.5; 1.0; 1.5 |]) }
  | 2 -> { Quantize.vmin; vmax = vmin +. Rng.pick rng [| 2.0; 4.0 |] }
  | _ -> Quantize.default_range

(* Both architectures through all three entries, every probe. *)
let adc_matches seed =
  let rng = Rng.create ~seed in
  let architecture = if Rng.bool rng then Adc.Flash else Adc.Modular_pipeline in
  let bits =
    match architecture with
    | Adc.Flash -> Rng.int_in rng ~lo:4 ~hi:16
    | Adc.Modular_pipeline -> 2 * Rng.int_in rng ~lo:2 ~hi:8
  in
  let threshold_sigma_lsb = draw_threshold_sigma rng architecture ~bits in
  let adc_seed = Rng.int_in rng ~lo:1 ~hi:1_000_000 in
  let adc_range = draw_adc_range rng architecture ~bits in
  let flat = Adc.create ~threshold_sigma_lsb ~seed:adc_seed ~range:adc_range architecture ~bits in
  let r = Ref.create ~threshold_sigma_lsb ~seed:adc_seed ~range:adc_range architecture ~bits in
  let volts = probe_voltages rng r in
  let want = Array.map (Ref.convert r) volts in
  let into = Array.make (Array.length volts) (-1) in
  Adc.convert_into flat volts ~into;
  let range = Quantize.default_range in
  let codes = Array.init (1 lsl bits) Fun.id in
  Adc.convert_all flat volts = want
  && into = want
  && Array.map (Adc.convert flat) volts = want
  && Array.map (Fixtures.encode ~bits ~range) volts = Array.map (Ref.encode ~bits ~range) volts
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
  same_bits (Fixtures.on_copy (Filter.process_in_place filter) x) (Ref.process filter x)
  && same_bits
       (Fixtures.on_copy (Models.additive_noise_in_place ~seed:noise_seed ~sigma) x)
       (Ref.additive_noise ~seed:noise_seed ~sigma x)

(* --- FFT plans, bulk draws, record loops and in-place stages --- *)

let same_floats f g = same_outcome same_bits (run f) (run g)
let same_ints f g = same_outcome ( = ) (run f) (run g)

(* 1..5000 samples: short records, exact powers of two and the top
   end besides uniform lengths. *)
let draw_length rng =
  match Rng.int rng ~bound:6 with
  | 0 -> Rng.int_in rng ~lo:1 ~hi:4
  | 1 -> 1 lsl Rng.int_in rng ~lo:0 ~hi:12
  | 2 -> 5000
  | _ -> Rng.int_in rng ~lo:1 ~hi:5000

(* Mostly voltages across -1..5 V (converter and stage inputs), with
   the corner values of [value] and non-finite samples mixed in. *)
let draw_record rng n =
  Array.init n (fun _ ->
      match Rng.int rng ~bound:12 with
      | 0 -> value rng
      | 1 -> Rng.pick rng [| Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 4.0 |]
      | _ -> Rng.float_in rng ~lo:(-1.0) ~hi:5.0)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let kernels_match seed =
  let rng = Rng.create ~seed in
  let n = draw_length rng in
  let x = draw_record rng n and y = draw_record rng n in
  let x0 = Array.copy x in
  let fs = Rng.pick rng [| 1.7e6; 640.0e3; 26.0e6; Rng.float_in rng ~lo:1.0e3 ~hi:1.0e8 |] in
  let failed = ref [] in
  let check label ok = if not ok then failed := label :: !failed in
  (* spectra: one analyzer, hence one plan, over two records *)
  let next = Fft.next_pow2 n in
  let pad_to =
    if Rng.bool rng then None else Some (next lsl Rng.int_in rng ~lo:0 ~hi:(14 - log2 next))
  in
  let window = Rng.pick rng (Array.of_list windows) in
  let planned = Spectrum.analyzer ~window ?pad_to ~fs n
  and mapped = Ref.Mapped.analyzer ~window ?pad_to ~fs n in
  let same_spectrum (a : Spectrum.t) (b : Ref.Mapped.spectrum) =
    a.Spectrum.n_fft = b.Ref.Mapped.n_fft && a.Spectrum.n_signal = b.Ref.Mapped.n_signal
    && same_bits (Spectrum.magnitudes a) b.Ref.Mapped.magnitudes
  in
  List.iter
    (fun r ->
      check "spectrum"
        (same_outcome same_spectrum (run (fun () -> planned r)) (run (fun () -> mapped r))))
    [ x; y ];
  (* the transform itself at the padded size, one plan over two
     vectors: a whole real record under a rectangular window, into
     buffers full of leftovers *)
  let size = Option.value pad_to ~default:next in
  let plan = Fft.plan size and ones = Array.make size 1.0 in
  for _ = 1 to 2 do
    let v = Array.init size (fun _ -> value rng) in
    let re = Array.init size (fun _ -> value rng) and im = Array.init size (fun _ -> value rng) in
    let re' = Array.copy v and im' = Array.make size 0.0 in
    Fft.execute_windowed plan ~coefs:ones v ~re ~im;
    Ref.Mapped.transform ~sign:(-1) re' im';
    check "Fft.execute_windowed" (same_bits re re' && same_bits im im')
  done;
  (* draws: Gaussian draws match the per-value Box–Muller and leave the
     generator where n single draws do *)
  let draw_seed = Rng.int rng ~bound:1_000_000 in
  let bulk = Rng.create ~seed:draw_seed and single = Rng.create ~seed:draw_seed in
  let g = Array.make n 0.0 in
  Rng.fill_gaussian bulk g;
  let g' = Array.init n (fun _ -> Ref.Mapped.Dac.gaussian single) in
  check "Rng.fill_gaussian" (same_bits g g');
  check "Rng.gaussian" (same_bits [| Rng.gaussian bulk |] [| Ref.Mapped.Adc.gaussian single |]);
  let draws_into ~seed k =
    let d = Array.make k Float.nan in
    Models.gaussian_draws_into ~seed d;
    d
  in
  check "gaussian_draws_into"
    (same_bits (draws_into ~seed:draw_seed n) (Ref.Mapped.Models.gaussian_draws ~seed:draw_seed n));
  (* quantizer and converters at even 4..16 bits, mismatch and
     threshold noise on or off *)
  let bits = 2 * Rng.int_in rng ~lo:2 ~hi:8 and range = Quantize.default_range in
  (* the record loops into a caller's buffer write every slot of one
     that held something else *)
  let ints_into loop src = let out = Array.make (Array.length src) (-1) in loop src out; out
  and floats_into loop src = let out = Array.make (Array.length src) Float.nan in loop src out; out in
  let codes = ints_into (fun x into -> Quantize.encode_into ~bits ~range x ~into) x in
  check "Quantize.encode_into" (codes = Array.map (Ref.Mapped.encode ~bits ~range) x);
  let all_codes = Array.init (1 lsl bits) Fun.id in
  List.iter
    (fun cs ->
      check "Quantize.decode_into"
        (same_floats
           (fun () -> floats_into (fun cs into -> Quantize.decode_into ~bits ~range cs ~into) cs)
           (fun () -> Array.map (Ref.Mapped.decode ~bits ~range) cs)))
    [ codes; all_codes; Array.append codes [| 1 lsl bits |]; [| -1 |] ];
  let mismatch_sigma = if Rng.bool rng then 0.0 else Rng.float_in rng ~lo:0.0 ~hi:0.05 in
  let dac_seed = Rng.int_in rng ~lo:1 ~hi:1_000_000 in
  let dac_arch = if Rng.bool rng then Dac.Full_string else Dac.Modular in
  let dac = Dac.create ~mismatch_sigma ~seed:dac_seed dac_arch ~bits
  and dac' = Ref.Mapped.Dac.create ~mismatch_sigma ~seed:dac_seed dac_arch ~bits in
  List.iter
    (fun cs ->
      let want () = Ref.Mapped.Dac.convert_all dac' cs in
      check "Dac.convert_all" (same_floats (fun () -> Dac.convert_all dac cs) want);
      check "Dac.convert_into"
        (same_floats (fun () -> floats_into (fun cs into -> Dac.convert_into dac cs ~into) cs) want);
      check "Dac.convert" (same_floats (fun () -> Array.map (Dac.convert dac) cs) want))
    [ codes; all_codes; [| 0; 1 lsl bits |] ];
  let adc_arch = if Rng.bool rng then Adc.Flash else Adc.Modular_pipeline in
  let threshold_sigma_lsb = draw_threshold_sigma rng adc_arch ~bits in
  let adc_seed = Rng.int_in rng ~lo:1 ~hi:1_000_000 in
  let adc = Adc.create ~threshold_sigma_lsb ~seed:adc_seed adc_arch ~bits
  and adc' = Ref.Mapped.Adc.create ~threshold_sigma_lsb ~seed:adc_seed adc_arch ~bits in
  let analog = Ref.Mapped.Dac.convert_all dac' codes in
  List.iter
    (fun v ->
      let want () = Ref.Mapped.Adc.convert_all adc' v in
      check "Adc.convert_all" (same_ints (fun () -> Adc.convert_all adc v) want);
      check "Adc.convert_into"
        (same_ints (fun () -> ints_into (fun v into -> Adc.convert_into adc v ~into) v) want);
      check "Adc.convert" (same_ints (fun () -> Array.map (Adc.convert adc) v) want))
    [ x; analog ];
  (* the stages, each in-place kernel on a copy of the record *)
  let module M = Ref.Mapped.Models in
  let g = Rng.float_in rng ~lo:(-3.0) ~hi:3.0 and c = Rng.float_in rng ~lo:(-1.0) ~hi:1.0 in
  let a1 = Rng.float_in rng ~lo:0.5 ~hi:1.5 and a2 = Rng.float_in rng ~lo:(-0.1) ~hi:0.1
  and a3 = Rng.float_in rng ~lo:(-0.1) ~hi:0.1 in
  let order = Rng.int_in rng ~lo:1 ~hi:8 and fc = fs *. Rng.float_in rng ~lo:0.001 ~hi:0.45 in
  let max_slew_v_per_s = Rng.pick rng [| 0.0; -1.0; Float.nan; Rng.float_in rng ~lo:1.0e3 ~hi:1.0e8 |] in
  let sigma = if Rng.bool rng then 0.0 else Rng.float_in rng ~lo:0.0 ~hi:0.05 in
  let noise_seed = Rng.int rng ~bound:1_000_000 in
  let draws = draws_into ~seed:noise_seed (n + Rng.int_in rng ~lo:(-1) ~hi:3) in
  let bias = Rng.float_in rng ~lo:0.0 ~hi:4.0 in
  let filter = Filter.butterworth_lowpass ~order ~fc ~fs in
  let on_copy = Fixtures.on_copy in
  let stages =
    [
      ("gain", on_copy (Models.gain_in_place g), M.gain g);
      ("dc_offset", on_copy (Models.dc_offset_in_place c), M.dc_offset c);
      ("polynomial", on_copy (Models.polynomial_in_place ~a1 ~a2 ~a3), M.polynomial ~a1 ~a2 ~a3);
      ("lowpass", on_copy (Models.lowpass_in_place ~order ~fc ~fs), M.lowpass ~order ~fc ~fs);
      ("Filter.process_in_place", on_copy (Filter.process_in_place filter), Ref.Mapped.process filter);
      ( "slew_limited",
        on_copy (Models.slew_limited_in_place ~max_slew_v_per_s ~fs),
        M.slew_limited ~max_slew_v_per_s ~fs );
      ("add_draws", on_copy (Models.add_draws_in_place ~sigma draws), M.add_draws ~sigma draws);
      ( "additive_noise",
        on_copy (Models.additive_noise_in_place ~seed:noise_seed ~sigma),
        M.additive_noise ~seed:noise_seed ~sigma );
      (* the AC component around the bias, the stage, the bias back *)
      ( "biased",
        on_copy (fun r ->
            Models.remove_bias_into ~bias r ~into:r;
            Models.gain_in_place g r;
            Models.dc_offset_in_place bias r),
        M.biased ~bias (M.gain g) );
      (* a pipeline of stages over one buffer, as Dut.batch runs them *)
      ( "compose",
        on_copy (fun r ->
            Models.gain_in_place g r;
            Models.polynomial_in_place ~a1 ~a2 ~a3 r;
            Models.dc_offset_in_place c r),
        M.compose [ M.gain g; M.polynomial ~a1 ~a2 ~a3; M.dc_offset c ] );
    ]
  in
  List.iter
    (fun (label, model, reference) ->
      List.iter
        (fun r -> check label (same_floats (fun () -> model r) (fun () -> reference r)))
        [ x; y ])
    stages;
  check "the record is never written" (same_bits x x0);
  if !failed <> [] then
    QCheck.Test.fail_reportf "%d samples at fs %g, pad %d, %d bits: %s differ" n fs size bits
      (String.concat ", " (List.rev !failed));
  true

(* --- every planned size --- *)

(* Each length 2^0..2^14: [execute_windowed] over buffers full of
   leftovers against the mapped transform of the record it describes:
   the first [m] samples of a record at least that long times [m]
   coefficients (NaNs and infinities included), zero-padded. *)
let every_size_matches seed =
  let rng = Rng.create ~seed in
  let failed = ref [] in
  for log2n = 0 to 14 do
    let n = 1 lsl log2n in
    let check label ok = if not ok then failed := Printf.sprintf "%s at %d" label n :: !failed in
    let plan = Fft.plan n in
    let m = if Rng.bool rng then n else Rng.int_in rng ~lo:0 ~hi:n in
    let x = values rng (m + Rng.int_in rng ~lo:0 ~hi:5) and coefs = values rng m in
    let want_re = Array.make n 0.0 and want_im = Array.make n 0.0 in
    for i = 0 to m - 1 do
      want_re.(i) <- x.(i) *. coefs.(i)
    done;
    Ref.Mapped.transform ~sign:(-1) want_re want_im;
    let re = values rng n and im = values rng n in
    Fft.execute_windowed plan ~coefs x ~re ~im;
    check "Fft.execute_windowed" (same_bits re want_re && same_bits im want_im)
  done;
  if !failed <> [] then
    QCheck.Test.fail_reportf "%s differ" (String.concat ", " (List.rev !failed));
  true

(* The entry whose loops run unchecked rejects, before any loop, a
   buffer of the wrong length and more coefficients than the plan or
   the record holds. *)
let test_unchecked_entries_reject () =
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s: accepted" label
  in
  List.iter
    (fun n ->
      let plan = Fft.plan n in
      let buf k = Array.make k 0.0 in
      List.iter
        (fun (label, re, im) ->
          rejects ("execute_windowed " ^ label) (fun () ->
              Fft.execute_windowed plan ~coefs:(buf 1) (buf 1) ~re ~im))
        [
          ("re short", buf (n - 1), buf n);
          ("re long", buf (n + 1), buf n);
          ("im short", buf n, buf (n - 1));
          ("im long", buf n, buf (n + 1));
          ("both empty", [||], [||]);
        ];
      let windowed label ~coefs x =
        rejects ("execute_windowed " ^ label) (fun () ->
            Fft.execute_windowed plan ~coefs x ~re:(buf n) ~im:(buf n))
      in
      windowed "coefs past the plan" ~coefs:(buf (n + 1)) (buf (n + 1));
      windowed "coefs past the record" ~coefs:(buf n) (buf (n - 1)))
    [ 1; 2; 4; 8; 1024 ]

(* --- the cut-off fit --- *)

(* 2..6 tones at positive frequencies and gains, orders 1..4: gains on
   a Butterworth curve with a gain factor and noise, arbitrary ones, or
   a repeated tone. Now and then a list [fit] must reject (one tone, a
   gain or frequency that is 0, negative or NaN). *)
let cutoff_matches seed =
  let rng = Rng.create ~seed in
  let order = Rng.int_in rng ~lo:1 ~hi:4 in
  let fc = Float.pow 10.0 (Rng.float_in rng ~lo:1.0 ~hi:8.0) in
  let factor = Float.pow 10.0 (Rng.float_in rng ~lo:(-2.0) ~hi:1.0) in
  let tone () =
    let f = Float.pow 10.0 (Rng.float_in rng ~lo:0.0 ~hi:8.0) in
    let g =
      if Rng.bool rng then
        factor *. Ref.Cutoff.model_gain ~order ~fc f
        *. (1.0 +. Rng.float_in rng ~lo:(-0.05) ~hi:0.05)
      else Float.pow 10.0 (Rng.float_in rng ~lo:(-6.0) ~hi:1.0)
    in
    (f, g)
  in
  let tones = List.init (Rng.int_in rng ~lo:2 ~hi:6) (fun _ -> tone ()) in
  let tones =
    match Rng.int rng ~bound:10 with
    | 0 -> List.hd tones :: tones
    | 1 -> [ List.hd tones ]
    | 2 -> (Rng.pick rng [| 0.0; -1.0; Float.nan |], 1.0) :: tones
    | 3 -> (1.0e3, Rng.pick rng [| 0.0; -0.5; Float.nan |]) :: tones
    | _ -> tones
  in
  let order = if Rng.int rng ~bound:8 = 0 then None else Some order in
  same_floats
    (fun () -> [| Msoc_signal.Cutoff.fit ?order tones |])
    (fun () -> [| Ref.Cutoff.fit ?order tones |])

let qcheck_tests =
  [
    QCheck.Test.make ~name:"FFT forward and inverse = boxed reference" ~count:300 seed_arb
      fft_matches;
    QCheck.Test.make ~name:"spectra = boxed reference (every window and pad)" ~count:60
      seed_arb spectra_match;
    QCheck.Test.make ~name:"ADC and quantizer = per-sample reference" ~count:120 seed_arb
      adc_matches;
    QCheck.Test.make ~name:"Butterworth and noise = Array.map reference" ~count:200 seed_arb
      filter_matches;
    QCheck.Test.make ~name:"planned FFT, bulk draws and in-place stages = mapped reference"
      ~count:100 seed_arb kernels_match;
    QCheck.Test.make ~name:"cut-off fit = list-based reference" ~count:1000 seed_arb
      cutoff_matches;
    QCheck.Test.make ~name:"every FFT size 2^0..2^14, both entries = mapped reference"
      ~count:20 seed_arb every_size_matches;
  ]
  |> List.map (fun t -> QCheck_alcotest.to_alcotest t)

let suites =
  [
    ("dsp-ref.property", qcheck_tests);
    ( "dsp-ref.entries",
      [ Alcotest.test_case "unchecked entries reject bad buffers" `Quick
          test_unchecked_entries_reject ] );
  ]
