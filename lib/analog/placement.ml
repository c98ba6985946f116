type t = (string * (float * float)) list

let create positions =
  let labels = List.map fst positions in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg "Placement.create: duplicate label";
  positions

let position t label =
  match List.assoc_opt label t with
  | Some p -> p
  | None -> raise Not_found

let default_k_per_mm = 0.04

let routing ?(k_per_mm = default_k_per_mm) t =
  Area.Placed { position = position t; k_per_mm }

let area_model ?k_per_mm t =
  { Area.default_model with Area.routing = routing ?k_per_mm t }

let spread ~die_mm cores =
  let n = List.length cores in
  let radius = 0.35 *. die_mm in
  let center = die_mm /. 2.0 in
  create
    (List.mapi
       (fun i (c : Spec.core) ->
         let angle = 2.0 *. Float.pi *. float_of_int i /. float_of_int (max 1 n) in
         ( c.Spec.label,
           (center +. (radius *. Float.cos angle), center +. (radius *. Float.sin angle)) ))
       cores)

let clustered ~die_mm ~groups cores =
  let all_labels = List.map (fun (c : Spec.core) -> c.Spec.label) cores in
  List.iter
    (fun g ->
      List.iter
        (fun l ->
          if not (List.mem l all_labels) then
            invalid_arg (Printf.sprintf "Placement.clustered: unknown label %s" l))
        g)
    groups;
  let grouped = List.concat groups in
  let loose = List.filter (fun l -> not (List.mem l grouped)) all_labels in
  (* Cluster sites on a coarse circle, members at 0.5 mm pitch around
     each site; loose cores on an inner circle. *)
  let center = die_mm /. 2.0 in
  let site i n r =
    let angle = 2.0 *. Float.pi *. float_of_int i /. float_of_int (max 1 n) in
    (center +. (r *. Float.cos angle), center +. (r *. Float.sin angle))
  in
  let cluster_positions =
    List.concat
      (List.mapi
         (fun gi g ->
           let gx, gy = site gi (List.length groups) (0.38 *. die_mm) in
           List.mapi
             (fun mi l -> (l, (gx +. (0.5 *. float_of_int mi), gy)))
             g)
         groups)
  in
  let loose_positions =
    List.mapi (fun i l -> (l, site i (List.length loose) (0.15 *. die_mm))) loose
  in
  create (cluster_positions @ loose_positions)
