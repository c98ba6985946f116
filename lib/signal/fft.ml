(* The largest power of two an OCaml int holds: 2^61 on 64 bits. *)
let max_pow2 = (max_int lsr 1) + 1

let next_pow2 n =
  if n > max_pow2 then invalid_arg "Fft.next_pow2: no power of two >= n fits in an int";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Everything a transform's size fixes: each index's bit reversal,
   and each stage's twiddles. The stage of half-length h keeps its h
   twiddles at offset h - 1 of [wr] and [wi] (n - 1 in all), computed
   by the recurrence w_0 = 1, w_(k+1) = w_k * (cos θ, sin θ): the
   products [Complex.mul] forms, so every twiddle is the float a boxed
   transform multiplies by. *)
type plan = { n : int; rev : int array; wr : float array; wi : float array }

let plan n =
  if not (is_pow2 n) then invalid_arg "Fft.plan: length must be a power of two";
  (* j walks the bit reversals of 0 .. n - 1: adding 1 at the top bit
     and carrying downwards. *)
  let rev = Array.make n 0 and j = ref 0 in
  for i = 0 to n - 1 do
    rev.(i) <- !j;
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
    let theta = -2.0 *. Float.pi /. float_of_int (2 * h) in
    let cr = Float.cos theta and ci = Float.sin theta in
    for k = h to (2 * h) - 2 do
      let xr = wr.(k - 1) and xi = wi.(k - 1) in
      wr.(k) <- (xr *. cr) -. (xi *. ci);
      wi.(k) <- (xr *. ci) +. (xi *. cr)
    done;
    half := 2 * h
  done;
  { n; rev; wr; wi }

(* Unchecked float-array access, typed so every load and store stays
   unboxed. *)
external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* The decimation-in-time stages over a vector already in bit-reversed
   order, in place, as radix-2² passes: each pass runs the stages of
   half-lengths h and 2h over the groups of four values h apart that
   they combine, (p0, p1) and (p2, p3) by stage h's twiddle k, then
   (p0, p2) by stage 2h's twiddle k and (p1, p3) by its twiddle k + h,
   so a group is loaded and stored once for two stages. The first pass
   (h = 1) reads its three twiddles once; a plain stage ends the
   transform when log2 n is odd. Every butterfly performs the float
   operations of [Complex.mul], [add] and [sub] in their order, so the
   result is bit-identical to the boxed radix-2 transform.

   The loops read and write unchecked: the caller has checked that [re]
   and [im] have the plan's length n, and the plan holds n - 1
   twiddles, more than the largest index read (4h - 2 <= n - 2 in a
   pass, 2h - 2 = n - 2 in the plain stage). *)
let stages p (re : float array) (im : float array) =
  let n = p.n and wr = p.wr and wi = p.wi in
  let h = ref 1 in
  if n >= 4 then begin
    let c1r = get wr 0 and c1i = get wi 0 and c2r = get wr 1 and c2i = get wi 1
    and c3r = get wr 2 and c3i = get wi 2 in
    let i = ref 0 in
    while !i < n do
      let p0 = !i in
      let p1 = p0 + 1 and p2 = p0 + 2 and p3 = p0 + 3 in
      let x0r = get re p0 and x0i = get im p0 and x1r = get re p1 and x1i = get im p1 in
      let vr = (x1r *. c1r) -. (x1i *. c1i) and vi = (x1r *. c1i) +. (x1i *. c1r) in
      let y0r = x0r +. vr and y0i = x0i +. vi and y1r = x0r -. vr and y1i = x0i -. vi in
      let x2r = get re p2 and x2i = get im p2 and x3r = get re p3 and x3i = get im p3 in
      let vr = (x3r *. c1r) -. (x3i *. c1i) and vi = (x3r *. c1i) +. (x3i *. c1r) in
      let y2r = x2r +. vr and y2i = x2i +. vi and y3r = x2r -. vr and y3i = x2i -. vi in
      let vr = (y2r *. c2r) -. (y2i *. c2i) and vi = (y2r *. c2i) +. (y2i *. c2r) in
      set re p0 (y0r +. vr);
      set im p0 (y0i +. vi);
      set re p2 (y0r -. vr);
      set im p2 (y0i -. vi);
      let vr = (y3r *. c3r) -. (y3i *. c3i) and vi = (y3r *. c3i) +. (y3i *. c3r) in
      set re p1 (y1r +. vr);
      set im p1 (y1i +. vi);
      set re p3 (y1r -. vr);
      set im p3 (y1i -. vi);
      i := !i + 4
    done;
    h := 4
  end;
  while 4 * !h <= n do
    let h' = !h in
    let o1 = h' - 1 and o2 = (2 * h') - 1 in
    let i = ref 0 in
    while !i < n do
      for k = 0 to h' - 1 do
        let c1r = get wr (o1 + k) and c1i = get wi (o1 + k) in
        let p0 = !i + k in
        let p1 = p0 + h' in
        let p2 = p1 + h' in
        let p3 = p2 + h' in
        let x0r = get re p0 and x0i = get im p0 and x1r = get re p1 and x1i = get im p1 in
        let vr = (x1r *. c1r) -. (x1i *. c1i) and vi = (x1r *. c1i) +. (x1i *. c1r) in
        let y0r = x0r +. vr and y0i = x0i +. vi and y1r = x0r -. vr and y1i = x0i -. vi in
        let x2r = get re p2 and x2i = get im p2 and x3r = get re p3 and x3i = get im p3 in
        let vr = (x3r *. c1r) -. (x3i *. c1i) and vi = (x3r *. c1i) +. (x3i *. c1r) in
        let y2r = x2r +. vr and y2i = x2i +. vi and y3r = x2r -. vr and y3i = x2i -. vi in
        let c2r = get wr (o2 + k) and c2i = get wi (o2 + k) in
        let vr = (y2r *. c2r) -. (y2i *. c2i) and vi = (y2r *. c2i) +. (y2i *. c2r) in
        set re p0 (y0r +. vr);
        set im p0 (y0i +. vi);
        set re p2 (y0r -. vr);
        set im p2 (y0i -. vi);
        let c3r = get wr (o2 + k + h') and c3i = get wi (o2 + k + h') in
        let vr = (y3r *. c3r) -. (y3i *. c3i) and vi = (y3r *. c3i) +. (y3i *. c3r) in
        set re p1 (y1r +. vr);
        set im p1 (y1i +. vi);
        set re p3 (y1r -. vr);
        set im p3 (y1i -. vi)
      done;
      i := !i + (4 * h')
    done;
    h := 4 * h'
  done;
  let h = !h in
  if h < n then
    for k = 0 to h - 1 do
      let p0 = k in
      let p1 = p0 + h in
      let c1r = get wr (h - 1 + k) and c1i = get wi (h - 1 + k) in
      let x1r = get re p1 and x1i = get im p1 in
      let vr = (x1r *. c1r) -. (x1i *. c1i) and vi = (x1r *. c1i) +. (x1i *. c1r) in
      let x0r = get re p0 and x0i = get im p0 in
      set re p0 (x0r +. vr);
      set im p0 (x0i +. vi);
      set re p1 (x0r -. vr);
      set im p1 (x0i -. vi)
    done

let check_buffers name p ~re ~im =
  if Array.length re <> p.n || Array.length im <> p.n then
    invalid_arg (name ^ ": re and im must have the plan's length")

let execute_windowed p ~coefs x ~re ~im =
  check_buffers "Fft.execute_windowed" p ~re ~im;
  let m = Array.length coefs in
  if m > p.n then invalid_arg "Fft.execute_windowed: more coefficients than the plan's length";
  if m > Array.length x then
    invalid_arg "Fft.execute_windowed: more coefficients than the record's samples";
  let rev = p.rev in
  for i = 0 to m - 1 do
    set re (Array.unsafe_get rev i) (get x i *. get coefs i)
  done;
  for i = m to p.n - 1 do
    set re (Array.unsafe_get rev i) 0.0
  done;
  Array.fill im 0 p.n 0.0;
  stages p re im
