module Best_fit : Packer_intf.S = struct
  let name = "best_fit"
  let orders = Packer.priority_orders
  let pack = Packer.pack
  let lower_bound = Packer.lower_bound
end

module Diagonal : Packer_intf.S = Packer_diagonal
module Constrained : Packer_intf.S = Packer_constrained

type packer = (module Packer_intf.S)

(* A fixed, immutable registry: variants are compiled in, so lookup
   needs no locking and the set of valid [--packer] spellings is
   stable for CLI docs, protocol validation and cache keys. *)
let all : packer list = [ (module Best_fit); (module Diagonal); (module Constrained) ]

let default : packer = (module Best_fit)

let name (module P : Packer_intf.S) = P.name

let names = List.map name all

let find key =
  let key = String.lowercase_ascii (String.trim key) in
  List.find_opt (fun (module P : Packer_intf.S) -> P.name = key) all

(* Certification: whatever heuristic produced the schedule, it must
   pass the full invariant check against the requested jobs, each
   placed exactly once, before it is handed to any caller. (Msoc_check
   verifies again at the search/CLI/serve layers, against jobs
   re-derived from the problem; this guard lives below that dependency
   boundary so even direct library users of a variant get a certified
   schedule.) *)
let certify ~packer ~jobs schedule =
  match Schedule.check ~expected:jobs schedule with
  | [] -> schedule
  | v :: _ ->
    raise
      (Packer.Infeasible
         (Format.asprintf "packer %s produced an invalid schedule: %a" packer
            Schedule.pp_violation v))

let pack (module P : Packer_intf.S) ?power_budget ~width jobs =
  certify ~packer:P.name ~jobs (P.pack ?power_budget ~width jobs)

let lower_bound (module P : Packer_intf.S) ?power_budget ~width jobs =
  P.lower_bound ?power_budget ~width jobs
