type t = Rectangular | Hann | Hamming | Blackman

let shape w i n =
  let x = 2.0 *. Float.pi *. float_of_int i /. float_of_int (n - 1) in
  match w with
  | Rectangular -> 1.0
  | Hann -> 0.5 *. (1.0 -. Float.cos x)
  | Hamming -> 0.54 -. (0.46 *. Float.cos x)
  | Blackman -> 0.42 -. (0.5 *. Float.cos x) +. (0.08 *. Float.cos (2.0 *. x))

let coefficients w n =
  if n <= 0 then invalid_arg "Window.coefficients: n must be positive";
  if n = 1 then [| 1.0 |] else Array.init n (fun i -> shape w i n)

let coherent_gain w =
  match w with
  | Rectangular -> 1.0
  | Hann -> 0.5
  | Hamming -> 0.54
  | Blackman -> 0.42
