module Combinat = Msoc_util.Combinat

type t = { groups : Spec.core list list }

let make groups =
  if List.exists (fun g -> g = []) groups then
    invalid_arg "Sharing.make: empty group";
  let labels = List.concat_map (List.map (fun c -> c.Spec.label)) groups in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg "Sharing.make: duplicate core label";
  (* Canonical form: cores sorted by label within a group, groups
     sorted by their label lists. *)
  let groups =
    List.map (List.sort (fun a b -> compare a.Spec.label b.Spec.label)) groups
    |> List.sort (fun g1 g2 ->
           compare (List.map (fun c -> c.Spec.label) g1)
             (List.map (fun c -> c.Spec.label) g2))
  in
  { groups }

let no_sharing cores = make (List.map (fun c -> [ c ]) cores)

let full_sharing cores = make [ cores ]

(* Key identifying a partition up to exchange of identical cores: each
   core is replaced by the label of the first catalog core with the
   same test set, groups become sorted label lists, sorted. The class
   of each of [cores] is found once, when [cores] is applied; a core
   that is not (physically) one of them is looked up as it comes. *)
let equivalence_key cores =
  let class_in c =
    match List.find_opt (fun d -> Spec.same_tests c d) cores with
    | Some d -> d.Spec.label
    | None -> c.Spec.label
  in
  let classes = List.map (fun c -> (c, class_in c)) cores in
  let rec find c = function
    | [] -> class_in c
    | (d, label) :: rest -> if d == c then label else find c rest
  in
  let class_of c = find c classes in
  fun t ->
    t.groups
    |> List.map (fun g -> List.sort compare (List.map class_of g))
    |> List.sort compare

let all_combinations cores =
  let key_of = equivalence_key cores in
  (* Stream the partitions and dedup with a hash table as they come,
     so neither the Bell(n)-sized raw list nor a quadratic List.mem
     scan is ever built; first-seen representatives are kept, as
     before, each with its key. *)
  let seen = Hashtbl.create 256 in
  let deduped =
    Seq.fold_left
      (fun acc p ->
        let comb = make p in
        let key = key_of comb in
        if Hashtbl.mem seen key then acc
        else begin
          Hashtbl.add seen key ();
          (List.length comb.groups, key, comb) :: acc
        end)
      []
      (Combinat.set_partitions_seq cores)
    |> List.rev
  in
  (* Deterministic, readable order: by number of groups descending
     (less sharing first, like the paper's Table 1), then by name.
     The keys are distinct after the dedup, so the order is total. *)
  List.sort
    (fun (na, ka, _) (nb, kb, _) ->
      match Int.compare nb na with 0 -> compare ka kb | c -> c)
    deduped
  |> List.map (fun (_, _, comb) -> comb)

let degree_signature t = Combinat.partitions_with_block_sizes t.groups

let paper_combinations cores =
  let allowed = [ [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 3; 2 ] ] in
  all_combinations cores
  |> List.filter (fun t ->
         let shared_sizes =
           degree_signature t |> List.filter (fun n -> n >= 2)
         in
         List.mem shared_sizes allowed)

let wrappers t = List.length t.groups

let shared_groups t = List.filter (fun g -> List.length g >= 2) t.groups

let is_feasible ?policy t =
  List.for_all
    (fun g ->
      Combinat.pairs g
      |> List.for_all (fun (a, b) -> Spec.compatible ?policy a b))
    t.groups

let group_name g =
  "{" ^ String.concat "," (List.map (fun c -> c.Spec.label) g) ^ "}"

let short_name t =
  match shared_groups t with
  | [] -> "none"
  | gs -> String.concat "" (List.map group_name gs)

let full_name t = String.concat "" (List.map group_name t.groups)

let equal a b =
  let key t =
    t.groups
    |> List.map (fun g -> List.sort compare (List.map (fun c -> c.Spec.label) g))
    |> List.sort compare
  in
  key a = key b
