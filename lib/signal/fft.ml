(* The largest power of two an OCaml int holds: 2^61 on 64 bits. *)
let max_pow2 = (max_int lsr 1) + 1

let next_pow2 n =
  if n > max_pow2 then invalid_arg "Fft.next_pow2: no power of two >= n fits in an int";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Everything a transform's size fixes: the bit-reversal swaps as
   flattened (i, j) pairs with i < j, and each stage's twiddles. The
   stage of half-length h keeps its h twiddles at offset h - 1 of [wr]
   and [wi] (n - 1 in all), computed by the recurrence w_0 = 1,
   w_(k+1) = w_k * (cos θ, sin θ): the products [Complex.mul] forms,
   so every twiddle is the float a boxed transform multiplies by. *)
type plan = { n : int; swaps : int array; wr : float array; wi : float array }

let make_plan ~sign n =
  if not (is_pow2 n) then invalid_arg "Fft.plan: length must be a power of two";
  (* Of the n = 2^k indices, 2^ceil(k/2) are their own bit reversal;
     the rest pair up. *)
  let k = ref 0 in
  while 1 lsl !k < n do incr k done;
  let swaps = Array.make (n - (1 lsl ((!k + 1) / 2))) 0 and count = ref 0 in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      swaps.(!count) <- i;
      swaps.(!count + 1) <- !j;
      count := !count + 2
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let wr = Array.make (n - 1) 1.0 and wi = Array.make (n - 1) 0.0 in
  let half = ref 1 in
  while !half < n do
    let h = !half in
    let theta = float_of_int sign *. 2.0 *. Float.pi /. float_of_int (2 * h) in
    let cr = Float.cos theta and ci = Float.sin theta in
    for k = h to (2 * h) - 2 do
      let xr = wr.(k - 1) and xi = wi.(k - 1) in
      wr.(k) <- (xr *. cr) -. (xi *. ci);
      wi.(k) <- (xr *. ci) +. (xi *. cr)
    done;
    half := 2 * h
  done;
  { n; swaps; wr; wi }

let plan n = make_plan ~sign:(-1) n

(* In-place decimation-in-time FFT over split real/imaginary arrays.
   Every butterfly performs the float operations of
   [Complex.mul]/[add]/[sub] in their order, so the result is
   bit-identical to the boxed transform. *)
let execute p ~re ~im =
  let n = p.n in
  if Array.length re <> n || Array.length im <> n then
    invalid_arg "Fft.execute: re and im must have the plan's length";
  let swaps = p.swaps and wr = p.wr and wi = p.wi in
  let s = ref 0 in
  while !s < Array.length swaps do
    let i = swaps.(!s) and j = swaps.(!s + 1) in
    let tr = re.(i) and ti = im.(i) in
    re.(i) <- re.(j);
    im.(i) <- im.(j);
    re.(j) <- tr;
    im.(j) <- ti;
    s := !s + 2
  done;
  let half = ref 1 in
  while !half < n do
    let h = !half in
    let off = h - 1 in
    let i = ref 0 in
    while !i < n do
      for k = 0 to h - 1 do
        let p = !i + k in
        let q = p + h in
        let br = re.(q) and bi = im.(q) and w_r = wr.(off + k) and w_i = wi.(off + k) in
        let vr = (br *. w_r) -. (bi *. w_i) and vi = (br *. w_i) +. (bi *. w_r) in
        let ur = re.(p) and ui = im.(p) in
        re.(p) <- ur +. vr;
        im.(p) <- ui +. vi;
        re.(q) <- ur -. vr;
        im.(q) <- ui -. vi
      done;
      i := !i + (2 * h)
    done;
    half := 2 * h
  done

let forward_in_place ~re ~im = execute (plan (Array.length re)) ~re ~im

let boxed ~sign ~scale input =
  let re = Array.map (fun c -> c.Complex.re) input
  and im = Array.map (fun c -> c.Complex.im) input in
  execute (make_plan ~sign (Array.length input)) ~re ~im;
  Array.init (Array.length input) (fun i ->
      { Complex.re = scale re.(i); im = scale im.(i) })

let forward input = boxed ~sign:(-1) ~scale:Fun.id input

let inverse input =
  let scale = 1.0 /. float_of_int (Array.length input) in
  boxed ~sign:1 ~scale:(fun x -> x *. scale) input

let bin_frequency ~n ~fs i = float_of_int i *. fs /. float_of_int n
