let close ?(rel = 1e-9) ?(abs_tol = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs_tol || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let percent_of part whole =
  if whole = 0.0 then invalid_arg "Numeric.percent_of: zero whole";
  100.0 *. part /. whole

let percent_of_or ~default part whole =
  if whole = 0.0 || Float.is_nan whole then default else 100.0 *. part /. whole

let clamp_int ~lo ~hi v = Int.min hi (Int.max lo v)

let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

let db x = if x = 0.0 then neg_infinity else 20.0 *. Float.log10 x

let sum_int = List.fold_left ( + ) 0

let max_int_list = function
  | [] -> invalid_arg "Numeric.max_int_list: empty list"
  | x :: rest -> List.fold_left max x rest
