let close ?(rel = 1e-9) ?(abs_tol = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs_tol || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let percent_of part whole =
  if whole = 0.0 then invalid_arg "Numeric.percent_of: zero whole";
  100.0 *. part /. whole

let percent_of_or ~default part whole =
  if whole = 0.0 || Float.is_nan whole then default else 100.0 *. part /. whole

let clamp ~lo ~hi v = Float.min hi (Float.max lo v)

let clamp_int ~lo ~hi v = Int.min hi (Int.max lo v)

let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

let mean = function
  | [] -> invalid_arg "Numeric.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let db x = if x = 0.0 then neg_infinity else 20.0 *. Float.log10 x

let from_db d = Float.pow 10.0 (d /. 20.0)

let sum_int = List.fold_left ( + ) 0

let max_int_list = function
  | [] -> invalid_arg "Numeric.max_int_list: empty list"
  | x :: rest -> List.fold_left max x rest

let interp_linear ~x0 ~y0 ~x1 ~y1 x =
  if x0 = x1 then invalid_arg "Numeric.interp_linear: x0 = x1";
  y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
