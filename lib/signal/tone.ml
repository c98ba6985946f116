type t = { freq_hz : float; amplitude : float }

let tone ?(amplitude = 1.0) freq_hz =
  if not (freq_hz > 0.0) then invalid_arg "Tone.tone: frequency must be positive";
  if not (amplitude >= 0.0) then invalid_arg "Tone.tone: amplitude must be non-negative";
  { freq_hz; amplitude }

(* The sum lives in a local float, so a sample allocates nothing (a
   closure per sample or a fold over the tones would box its time, its
   partial sums and its value). The tones are added in list order from
   0.0: that order fixes every sample's rounding. *)
let sample ~tones ~fs ~n =
  let tones = Array.of_list tones in
  let x = Array.create_float n in
  for i = 0 to n - 1 do
    let time = float_of_int i /. fs in
    let acc = ref 0.0 in
    for k = 0 to Array.length tones - 1 do
      let t = tones.(k) in
      acc := !acc +. (t.amplitude *. Float.sin (2.0 *. Float.pi *. t.freq_hz *. time))
    done;
    x.(i) <- !acc
  done;
  x

let coherent_freq ~fs ~n f =
  let bin = Float.round (f *. float_of_int n /. fs) in
  Float.max 1.0 bin *. fs /. float_of_int n
