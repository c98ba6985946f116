type t = { max_evals : int option; deadline : float option }

let unlimited = { max_evals = None; deadline = None }

let make ?max_evals ?time_limit_s ?deadline () =
  (match max_evals with
  | Some n when n < 1 -> invalid_arg "Budget.make: max_evals must be >= 1"
  | Some _ | None -> ());
  (match time_limit_s with
  | Some s when not (s > 0.0) -> invalid_arg "Budget.make: time_limit_s must be > 0"
  | Some _ | None -> ());
  (match deadline with
  | Some d when Float.is_nan d -> invalid_arg "Budget.make: deadline must not be NaN"
  | Some _ | None -> ());
  let deadline =
    match (time_limit_s, deadline) with
    | None, d -> d
    | Some s, None -> Some (Msoc_util.Clock.now () +. s)
    | Some s, Some d -> Some (Float.min d (Msoc_util.Clock.now () +. s))
  in
  { max_evals; deadline }

let expired t =
  match t.deadline with
  | None -> false
  | Some d -> Msoc_util.Clock.now () >= d

let exhausted t ~evals =
  (match t.max_evals with None -> false | Some m -> evals >= m) || expired t
