(* Identity of the sharing enumeration.

   [Ref] keeps, verbatim, the enumeration that computed a partition's
   equivalence key on every use: [equivalence_key] searched the core
   list for each member's class on every call, and [all_combinations]
   recomputed both keys inside its sort's comparator. [Sharing] builds
   the class table once per core list and sorts on one key per
   partition; it must give the same lists in the same order.

   The property draws lists of up to 7 cores from the paper's catalog,
   the extension cores, scaled cores and a core whose test band is NaN
   (its test set equals no other, itself included), with repeated test
   sets under distinct labels so the dedup has work to do. It compares
   [all_combinations], [paper_combinations] and [equivalence_key] on
   every combination, also on copies of the cores (not physically the
   listed ones) and against a sub-list of the cores. *)

module Spec = Msoc_analog.Spec
module Sharing = Msoc_analog.Sharing
module Instances = Msoc_testplan.Instances

module Ref = struct
  module Combinat = Msoc_util.Combinat
  open Sharing

  (* Key identifying a partition up to exchange of identical cores: each
     core is replaced by the label of the first catalog core with the
     same test set, groups become sorted label lists, sorted. *)
  let equivalence_key cores t =
    let class_of c =
      match List.find_opt (fun d -> Spec.same_tests c d) cores with
      | Some d -> d.Spec.label
      | None -> c.Spec.label
    in
    t.groups
    |> List.map (fun g -> List.sort compare (List.map class_of g))
    |> List.sort compare

  let all_combinations cores =
    (* Stream the partitions and dedup with a hash table as they come,
       so neither the Bell(n)-sized raw list nor a quadratic List.mem
       scan is ever built; first-seen representatives are kept, as
       before. *)
    let seen = Hashtbl.create 256 in
    let deduped =
      Seq.fold_left
        (fun acc p ->
          let comb = make p in
          let key = equivalence_key cores comb in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            comb :: acc
          end)
        []
        (Combinat.set_partitions_seq cores)
      |> List.rev
    in
    (* Deterministic, readable order: by number of groups descending
       (less sharing first, like the paper's Table 1), then by name. *)
    List.sort
      (fun a b ->
        match compare (List.length b.groups) (List.length a.groups) with
        | 0 -> compare (equivalence_key cores a) (equivalence_key cores b)
        | c -> c)
      deduped

  let paper_combinations cores =
    let allowed = [ [ 2 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 3; 2 ] ] in
    all_combinations cores
    |> List.filter (fun t ->
           let shared_sizes =
             degree_signature t |> List.filter (fun n -> n >= 2)
           in
           List.mem shared_sizes allowed)
end

let nan_core =
  Spec.core ~label:"N" ~name:"NaN band"
    ~tests:
      [
        Spec.test ~name:"nan" ~f_low_hz:Float.nan ~f_high_hz:1.0e3 ~f_sample_hz:1.0e4
          ~cycles:100 ~tam_width:2 ~resolution_bits:8;
      ]

(* A..E and F..H, the scaled F..Z (stretched copies of A..E) and N. *)
let pool =
  Array.of_list
    (Catalog_ext.extended
    @ List.filteri (fun i _ -> i >= 5) (Instances.scaled_analog ~n:26)
    @ [ nan_core ])

(* The same tests (the same list) under a new label. *)
let relabel label (c : Spec.core) = Spec.core ~label ~name:c.Spec.name ~tests:c.Spec.tests

let cores_gen =
  let open QCheck.Gen in
  let* n = int_range 0 7 in
  (* Half the lists draw from 1..4 templates, so test sets repeat. *)
  let* templates =
    let* narrow = bool in
    if narrow then
      let* k = int_range 1 4 in
      map Array.of_list (list_repeat k (oneofa pool))
    else return pool
  in
  let* drawn = list_repeat n (oneofa templates) in
  let* suffixes = shuffle_l (List.init n Fun.id) in
  return
    (List.map2 (fun (c : Spec.core) i -> relabel (c.Spec.label ^ string_of_int i) c) drawn suffixes)

let cores_arb =
  QCheck.make cores_gen ~print:(fun cores ->
      String.concat " "
        (List.map
           (fun (c : Spec.core) -> Printf.sprintf "%s(%s)" c.Spec.label c.Spec.name)
           cores))

let run f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let names combos = List.map Sharing.full_name combos

let sharing_matches cores =
  let failed = ref [] in
  let check label ok = if not ok then failed := label :: !failed in
  let all = run (fun () -> Sharing.all_combinations cores) in
  check "all_combinations"
    (Result.map names all = run (fun () -> names (Ref.all_combinations cores)));
  check "paper_combinations"
    (run (fun () -> names (Sharing.paper_combinations cores))
    = run (fun () -> names (Ref.paper_combinations cores)));
  (match all with
  | Error _ -> ()
  | Ok combos ->
    (* Copies: the same labels and tests, not the listed cores. *)
    let copies = List.map (fun (c : Spec.core) -> relabel c.Spec.label c) cores in
    let copy (t : Sharing.t) =
      Sharing.make
        (List.map
           (List.map (fun (c : Spec.core) ->
                List.find (fun (d : Spec.core) -> d.Spec.label = c.Spec.label) copies))
           t.Sharing.groups)
    in
    let every_other = List.filteri (fun i _ -> i mod 2 = 0) cores in
    let key_of = Sharing.equivalence_key cores
    and key_of_copies = Sharing.equivalence_key copies
    and key_of_sub = Sharing.equivalence_key every_other in
    List.iter
      (fun t ->
        let t' = copy t in
        check "equivalence_key" (key_of t = Ref.equivalence_key cores t);
        check "equivalence_key on copies" (key_of t' = Ref.equivalence_key cores t');
        check "equivalence_key over copies"
          (key_of_copies t = Ref.equivalence_key copies t);
        check "equivalence_key over a sub-list"
          (key_of_sub t = Ref.equivalence_key every_other t))
      combos);
  if !failed <> [] then
    QCheck.Test.fail_reportf "%d cores: %s differ" (List.length cores)
      (String.concat ", " (List.sort_uniq compare !failed));
  true

let suites =
  [
    ( "analog.sharing-ref",
      [
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~name:"enumeration and keys = per-use keys reference" ~count:300
             cores_arb sharing_matches);
      ] );
  ]
