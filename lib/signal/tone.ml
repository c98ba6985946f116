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
