(* Standard Goertzel recurrence with a real coefficient and a complex
   finalization, generalized to non-integer bin positions. *)

let power ~fs ~f x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Goertzel.power: empty record";
  if not (f >= 0.0 && f <= fs /. 2.0) then invalid_arg "Goertzel.power: f outside [0, fs/2]";
  let w = 2.0 *. Float.pi *. f /. fs in
  let coeff = 2.0 *. Float.cos w in
  let s1 = ref 0.0 and s2 = ref 0.0 in
  for i = 0 to n - 1 do
    let s = x.(i) +. (coeff *. !s1) -. !s2 in
    s2 := !s1;
    s1 := s
  done;
  (* |X|^2 = s1^2 + s2^2 - coeff*s1*s2 *)
  (!s1 *. !s1) +. (!s2 *. !s2) -. (coeff *. !s1 *. !s2)

let amplitude ~fs ~f x =
  2.0 *. Float.sqrt (Float.max 0.0 (power ~fs ~f x)) /. float_of_int (Array.length x)
