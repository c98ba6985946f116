(* Set partitions by the standard recursive construction: insert the
   head element either into each existing block of a partition of the
   tail, or as a singleton block in front. Lazy, so that consumers can
   dedup/filter/stop without first materializing all Bell(n)
   partitions. *)
let rec set_partitions_seq = function
  | [] -> Seq.return []
  | x :: rest ->
    Seq.concat_map
      (fun partition ->
        let insertions =
          let rec go before = function
            | [] -> Seq.empty
            | block :: after ->
              Seq.cons
                (List.rev_append before ((x :: block) :: after))
                (fun () -> go (block :: before) after ())
          in
          go [] partition
        in
        Seq.cons ([ x ] :: partition) insertions)
      (set_partitions_seq rest)

let bell_number n =
  if n < 0 then invalid_arg "Combinat.bell_number";
  (* Bell triangle. *)
  let row = ref [| 1 |] in
  for _ = 1 to n do
    let prev = !row in
    let m = Array.length prev in
    let next = Array.make (m + 1) prev.(m - 1) in
    for i = 0 to m - 1 do
      next.(i + 1) <- next.(i) + prev.(i)
    done;
    row := next
  done;
  !row.(0)

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest

let partitions_with_block_sizes partition =
  List.map List.length partition |> List.sort (fun a b -> compare b a)

let group_by key xs =
  let add acc x =
    let k = key x in
    match List.assoc_opt k acc with
    | Some group -> (k, x :: group) :: List.remove_assoc k acc
    | None -> (k, [ x ]) :: acc
  in
  (* Build reversed groups keyed in last-seen order, then restore both
     key order (first occurrence) and element order. *)
  let rev_groups = List.fold_left add [] xs in
  let keys_in_order =
    List.fold_left
      (fun seen x ->
        let k = key x in
        if List.mem k seen then seen else k :: seen)
      [] xs
    |> List.rev
  in
  List.map
    (fun k ->
      match List.assoc_opt k rev_groups with
      | Some group -> (k, List.rev group)
      | None -> assert false)
    keys_in_order
