(* SplitMix64 (Steele, Lea, Flood 2014): tiny, fast, passes BigCrush on
   the forward stream; more than adequate for benchmark synthesis. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let golden_gamma = 0x9E3779B97F4A7C15L

(* The stream's three steps, each written once. Inlined so a loop over
   an int64 held in a local keeps it unboxed. *)
let[@inline] advance state = Int64.add state golden_gamma

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] to_float z ~bound =
  let max53 = 9007199254740992.0 (* 2^53 *) in
  let u = Int64.to_float (Int64.shift_right_logical z 11) in
  u /. max53 *. bound

let bits64 t =
  t.state <- advance t.state;
  mix t.state

(* Non-negative 62-bit value, safe to store in an OCaml int. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t ~bound:(hi - lo + 1)

let float t ~bound = to_float (bits64 t) ~bound

(* Box–Muller from two uniforms in [0, 1). *)
let[@inline] box_muller u1 u2 =
  Float.sqrt (-2.0 *. Float.log (Float.max 1e-12 u1)) *. Float.cos (2.0 *. Float.pi *. u2)

let gaussian t =
  let u1 = float t ~bound:1.0 in
  let u2 = float t ~bound:1.0 in
  box_muller u1 u2

let fill_gaussian t dst =
  let state = ref t.state in
  for i = 0 to Array.length dst - 1 do
    state := advance !state;
    let u1 = to_float (mix !state) ~bound:1.0 in
    state := advance !state;
    dst.(i) <- box_muller u1 (to_float (mix !state) ~bound:1.0)
  done;
  t.state <- !state

let float_in t ~lo ~hi = lo +. float t ~bound:(hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t ~bound:(Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let log_uniform_int t ~lo ~hi =
  if lo < 1 || hi < lo then invalid_arg "Rng.log_uniform_int: need 1 <= lo <= hi";
  let u = float_in t ~lo:(Float.log (float_of_int lo)) ~hi:(Float.log (float_of_int hi +. 1.0)) in
  let v = int_of_float (Float.exp u) in
  max lo (min hi v)
