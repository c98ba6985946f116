type point = { width : int; time : int }

type t = point list

let staircase core ~max_width =
  if max_width <= 0 then invalid_arg "Pareto.staircase: max_width must be positive";
  let kernel = Design.kernel core ~max_width in
  let floor = Design.floor_time kernel in
  let add frontier ~width ~time =
    match frontier with
    | [] -> [ { width; time } ]
    | best :: _ ->
      if time < best.time && width > best.width then { width; time } :: frontier
      else if time < best.time && width <= best.width then
        (* strictly better at no more wires: replace dominated points *)
        { width; time } :: List.filter (fun p -> p.width < width) frontier
      else frontier
  in
  (* No design at any width is faster than [floor], so once the best
     time reaches it no wider design can join the frontier. Short of
     that, a width whose lower bound already reaches the best time
     would not join it either ([add] needs a strictly better time), so
     it is not designed. *)
  let rec sweep frontier w =
    if w > max_width then frontier
    else
      match frontier with
      | best :: _ when Design.lower_bound kernel ~width:w >= best.time ->
        sweep frontier (w + 1)
      | _ -> (
        let time = Design.run kernel ~width:w in
        (* Use the wires the design actually occupies, not the budget: a
           64-wide budget on a 3-chain combinational core may build only
           a handful of non-empty chains. *)
        match add frontier ~width:(Design.used_width kernel) ~time with
        | best :: _ as frontier when best.time <= floor -> frontier
        | frontier -> sweep frontier (w + 1))
  in
  List.rev (sweep [] 1)

let fixed ~width ~time =
  if width <= 0 || time <= 0 then invalid_arg "Pareto.fixed: need positive width and time";
  [ { width; time } ]

let points t = t

let rec best_at t ~width ~acc =
  match t with
  | [] -> acc
  | p :: rest -> if p.width <= width then best_at rest ~width ~acc:(Some p) else acc

let time_at t ~width =
  match best_at t ~width ~acc:None with
  | Some p -> p.time
  | None -> invalid_arg "Pareto.time_at: width below minimum"

(* A staircase is non-empty by construction, so the [] cases cannot
   fire. *)
let min_width = function
  | [] -> invalid_arg "Pareto.min_width: empty staircase"
  | p :: _ -> p.width

let rec min_time = function
  | [] -> invalid_arg "Pareto.min_time: empty staircase"
  | [ p ] -> p.time
  | _ :: rest -> min_time rest
