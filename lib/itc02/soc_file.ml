exception Parse_error = Scan.Parse_error

let of_scan ?file (s : Scan.t) =
  Scan.check ?file s;
  (* no fatal finding: every field read and is in range *)
  let v = Option.get in
  let core (m : Scan.module_) =
    Types.core ~id:(v m.id) ~name:(v m.name) ~inputs:(v m.inputs) ~outputs:(v m.outputs)
      ~bidirs:(v m.bidirs) ~patterns:(v m.patterns) ~scan_chains:m.chains
  in
  Types.soc ~name:(v s.soc_name) ~cores:(List.map core s.modules)

let of_string ?file text = of_scan ?file (Scan.scan ~hierarchical:false text)

let to_string (soc : Types.soc) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "SocName %s\n" (Scan.token_name ~what:"Soc_file.to_string: SOC" soc.name);
  List.iter
    (fun (c : Types.core) ->
      Printf.bprintf buf "Module %d Name %s Inputs %d Outputs %d Bidirs %d Patterns %d" c.id
        (Scan.token_name ~what:"Soc_file.to_string: core" c.name)
        c.inputs c.outputs c.bidirs c.patterns;
      Scan.add_chains buf c.scan_chains;
      Buffer.add_char buf '\n')
    soc.cores;
  Buffer.contents buf

let load path = of_string ~file:path (Scan.read path)

(* printed before the file is opened, so a name that does not print
   leaves the file as it was *)
let save path soc =
  let text = to_string soc in
  Out_channel.with_open_bin path (fun oc -> output_string oc text)
