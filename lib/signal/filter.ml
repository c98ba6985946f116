type biquad = { b0 : float; b1 : float; b2 : float; a1 : float; a2 : float }

type t = biquad list

let of_sections = function
  | [] -> invalid_arg "Filter.of_sections: empty cascade"
  | sections -> sections

(* RBJ-cookbook biquad low-pass for one pole pair of quality [q]. *)
let lowpass_biquad ~fc ~fs ~q =
  let w0 = 2.0 *. Float.pi *. fc /. fs in
  let cosw = Float.cos w0 and sinw = Float.sin w0 in
  let alpha = sinw /. (2.0 *. q) in
  let a0 = 1.0 +. alpha in
  {
    b0 = (1.0 -. cosw) /. 2.0 /. a0;
    b1 = (1.0 -. cosw) /. a0;
    b2 = (1.0 -. cosw) /. 2.0 /. a0;
    a1 = -2.0 *. cosw /. a0;
    a2 = (1.0 -. alpha) /. a0;
  }

(* First-order low-pass by bilinear transform with pre-warping,
   expressed as a degenerate biquad (b2 = a2 = 0). *)
let lowpass_first_order ~fc ~fs =
  let k = Float.tan (Float.pi *. fc /. fs) in
  let a0 = k +. 1.0 in
  { b0 = k /. a0; b1 = k /. a0; b2 = 0.0; a1 = (k -. 1.0) /. a0; a2 = 0.0 }

let check_frequencies ~fc ~fs =
  if not (fc > 0.0 && fc < fs /. 2.0) then
    invalid_arg "Filter: need 0 < fc < fs/2"

let butterworth_lowpass ~order ~fc ~fs =
  if order < 1 || order > 8 then invalid_arg "Filter.butterworth_lowpass: order 1..8";
  check_frequencies ~fc ~fs;
  (* Butterworth pole pairs have Q_k = 1 / (2 sin((2k-1)π/(2n))). *)
  let pairs = order / 2 in
  let sections =
    List.init pairs (fun i ->
        let k = i + 1 in
        let q =
          1.0 /. (2.0 *. Float.sin (float_of_int ((2 * k) - 1) *. Float.pi /. float_of_int (2 * order)))
        in
        lowpass_biquad ~fc ~fs ~q)
  in
  let sections =
    if order mod 2 = 1 then lowpass_first_order ~fc ~fs :: sections else sections
  in
  of_sections sections

(* Direct form II transposed, zero initial state, overwriting each
   sample with the section's output. *)
let process_section_in_place s x =
  let z1 = ref 0.0 and z2 = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let v = x.(i) in
    let y = (s.b0 *. v) +. !z1 in
    z1 := (s.b1 *. v) -. (s.a1 *. y) +. !z2;
    z2 := (s.b2 *. v) -. (s.a2 *. y);
    x.(i) <- y
  done

let process_in_place t x = List.iter (fun s -> process_section_in_place s x) t
