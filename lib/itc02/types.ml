type core = {
  id : int;
  name : string;
  inputs : int;
  outputs : int;
  bidirs : int;
  scan_chains : int list;
  patterns : int;
}

type soc = { name : string; cores : core list }

let core ~id ~name ~inputs ~outputs ~bidirs ~scan_chains ~patterns =
  if id < 1 then invalid_arg "Types.core: id must be >= 1";
  if inputs < 0 || outputs < 0 || bidirs < 0 then
    invalid_arg "Types.core: negative terminal count";
  if patterns < 1 then invalid_arg "Types.core: patterns must be >= 1";
  if List.exists (fun l -> l <= 0) scan_chains then
    invalid_arg "Types.core: scan-chain lengths must be positive";
  { id; name; inputs; outputs; bidirs; scan_chains; patterns }

let soc ~name ~cores =
  let ids = List.map (fun c -> c.id) cores in
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "Types.soc: duplicate core ids";
  { name; cores }

let scan_cells c = Msoc_util.Numeric.sum_int c.scan_chains

let test_data_volume c =
  let cells = scan_cells c in
  let scan_in = cells + c.inputs + c.bidirs in
  let scan_out = cells + c.outputs + c.bidirs in
  c.patterns * (scan_in + scan_out)

let pp_core ppf c =
  Format.fprintf ppf "core %d (%s): i=%d o=%d b=%d chains=%d cells=%d p=%d"
    c.id c.name c.inputs c.outputs c.bidirs
    (List.length c.scan_chains) (scan_cells c) c.patterns

let pp_soc ppf s =
  Format.fprintf ppf "@[<v>SOC %s (%d cores)" s.name (List.length s.cores);
  List.iter (fun c -> Format.fprintf ppf "@,  %a" pp_core c) s.cores;
  Format.fprintf ppf "@]"
