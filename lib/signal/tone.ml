type t = { freq_hz : float; amplitude : float; phase_rad : float }

let tone ?(amplitude = 1.0) ?(phase_rad = 0.0) freq_hz =
  if not (freq_hz > 0.0) then invalid_arg "Tone.tone: frequency must be positive";
  if not (amplitude >= 0.0) then invalid_arg "Tone.tone: amplitude must be non-negative";
  { freq_hz; amplitude; phase_rad }

let sample ~tones ~fs ~n =
  Array.init n (fun i ->
      let time = float_of_int i /. fs in
      List.fold_left
        (fun acc t ->
          acc +. (t.amplitude *. Float.sin ((2.0 *. Float.pi *. t.freq_hz *. time) +. t.phase_rad)))
        0.0 tones)

let coherent_freq ~fs ~n f =
  let bin = Float.round (f *. float_of_int n /. fs) in
  Float.max 1.0 bin *. fs /. float_of_int n

let crest_factor samples =
  if Array.length samples = 0 then invalid_arg "Tone.crest_factor: empty input";
  let peak = Array.fold_left (fun m s -> Float.max m (Float.abs s)) 0.0 samples in
  let rms =
    Float.sqrt
      (Array.fold_left (fun acc s -> acc +. (s *. s)) 0.0 samples
      /. float_of_int (Array.length samples))
  in
  if rms = 0.0 then invalid_arg "Tone.crest_factor: all-zero input";
  peak /. rms

let newman_phases n =
  if n < 1 then invalid_arg "Tone.newman_phases: n >= 1";
  List.init n (fun i ->
      let k = float_of_int i in
      Float.pi *. k *. k /. float_of_int n)

let multitone ?(amplitude = 1.0) ~fs ~n freqs =
  let phases = newman_phases (List.length freqs) in
  let tones =
    List.map2 (fun f phase_rad -> tone ~amplitude ~phase_rad f) freqs phases
  in
  sample ~tones ~fs ~n
