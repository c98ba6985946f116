module Spec = Msoc_analog.Spec
module Catalog = Msoc_analog.Catalog

let p93791m ?(weight_time = 0.5) ~tam_width () =
  Problem.make ~soc:(Msoc_itc02.Synthetic.p93791s ()) ~analog_cores:Catalog.all
    ~tam_width ~weight_time ()

let scaled_analog ~n =
  if n < 4 || n > 26 then invalid_arg "Instances.scaled_analog: n out of 4..26";
  let base = Array.of_list Catalog.all in
  List.init n (fun i ->
      let template = base.(i mod Array.length base) in
      if i < Array.length base then template
      else
        let label = String.make 1 (Char.chr (Char.code 'A' + i)) in
        (* Perturb test lengths so duplicated cores are distinct and
           the sharing space has no accidental symmetry. *)
        let stretch = 1.0 +. (0.1 *. float_of_int (1 + (i / Array.length base))) in
        let tests =
          List.map
            (fun (t : Spec.test) ->
              {
                t with
                Spec.cycles =
                  max 1 (int_of_float (float_of_int t.Spec.cycles *. stretch));
              })
            template.Spec.tests
        in
        Spec.core ~label ~name:(template.Spec.name ^ " (scaled)") ~tests)

let with_analog ?(weight_time = 0.5) ~tam_width ~analog_cores () =
  Problem.make ~soc:(Msoc_itc02.Synthetic.p93791s ()) ~analog_cores ~tam_width
    ~weight_time ()
