let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Iterative in-place decimation-in-time FFT with bit-reversal
   permutation over split real/imaginary arrays; [sign] selects forward
   (-1) or inverse (+1). Every butterfly performs the float operations
   of [Complex.mul]/[add]/[sub] in their order, and each stage's
   twiddles follow the recurrence w_0 = 1, w_(k+1) = w_k * (cos θ,
   sin θ), so the result is bit-identical to the boxed transform.
   The twiddle buffer is local to the call: nothing is shared between
   domains. *)
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

let boxed ~sign ~scale input =
  let re = Array.map (fun c -> c.Complex.re) input
  and im = Array.map (fun c -> c.Complex.im) input in
  transform ~sign re im;
  Array.init (Array.length input) (fun i ->
      { Complex.re = scale re.(i); im = scale im.(i) })

let forward input = boxed ~sign:(-1) ~scale:Fun.id input

let inverse input =
  let scale = 1.0 /. float_of_int (Array.length input) in
  boxed ~sign:1 ~scale:(fun x -> x *. scale) input

let bin_frequency ~n ~fs i = float_of_int i *. fs /. float_of_int n
