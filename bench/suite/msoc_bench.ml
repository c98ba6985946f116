(* msoc_bench: the repository benchmark.

     msoc_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                [--trace-out FILE] [--json-out FILE] [--smoke] [--root DIR]

   One workload runs in this process. Without --workload, every
   workload runs in a fresh child process of its own, so peak RSS and
   GC state never carry from one to the next. The last line of
   standard output is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   holding every end-to-end metric, or with --trace 1 every per-layer
   metric (see Catalog). --smoke runs each workload at a handful of ops,
   untraced and traced, and checks the printed names and units against
   BENCHMARK.json. See README.md. *)

module Export = Msoc_testplan.Export

let workloads =
  [
    ("plan-cold", Plan_cold.run_workload);
    ("search-scaled", Search_scaled.run_workload);
    ("serve-open", Serve_open.run_workload);
    ("cosim-mc", Cosim_mc.run_workload);
  ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  json_out : string option;
  smoke : bool;
  root : string;
}

let usage =
  "msoc_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-out FILE] [--json-out FILE] [--smoke] [--root DIR]"

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref Workload.default_seconds in
  let trace = ref false and trace_out = ref None and json_out = ref None in
  let smoke = ref false and root = ref "." in
  let specs =
    [
      ( "--workload",
        Arg.String
          (fun w ->
            if not (List.mem_assoc w workloads) then
              raise
                (Arg.Bad
                   (Printf.sprintf "unknown workload %S (expected one of: %s)" w
                      (String.concat ", " (List.map fst workloads))));
            workload := Some w),
        "NAME run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Float
          (fun s ->
            if not (s > 0.0) then raise (Arg.Bad "--seconds must be positive");
            seconds := s),
        "S nominal run length; sets the op count (default 15)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
        " 1: traced run, printing the per-layer metrics" );
      ( "--trace-out",
        Arg.String
          (fun f ->
            trace := true;
            trace_out := Some f),
        "FILE write the spans as Chrome trace-event JSON (implies --trace 1)" );
      ("--json-out", Arg.String (fun f -> json_out := Some f), "FILE write the full result record");
      ("--smoke", Arg.Set smoke, " a handful of ops per workload; checks BENCHMARK.json");
      ("--root", Arg.Set_string root, "DIR checkout root (default .)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace;
    trace_out = !trace_out;
    json_out = !json_out;
    smoke = !smoke;
    root = !root;
  }

(* --- the result line --- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed (metrics : Workload.metric list) =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : Workload.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Workload.name
              (number m.Workload.value) m.Workload.unit)
          metrics))

let metric_json (m : Workload.metric) =
  ( m.Workload.name,
    Export.Object
      [
        ("value", if Float.is_finite m.Workload.value then Export.Float m.Workload.value else Export.Null);
        ("unit", Export.String m.Workload.unit);
      ] )

let write_file path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* --- one workload, in this process --- *)

let run_one opts name =
  let ctx =
    {
      Workload.seed = opts.seed;
      seconds = opts.seconds;
      traced = opts.trace;
      smoke = opts.smoke;
      root = opts.root;
    }
  in
  let nproc = Measure.nproc () in
  let domains = Domain.recommended_domain_count () in
  let git_rev = Measure.git_rev opts.root in
  Printf.printf "msoc_bench %s: seed %d, seconds %g, trace %d%s\n" name opts.seed
    opts.seconds
    (if opts.trace then 1 else 0)
    (if opts.smoke then ", smoke" else "");
  Printf.printf "env nproc %d, recommended domains %d, ocaml %s, git %s\n" nproc
    domains Sys.ocaml_version git_rev;
  let run = List.assoc name workloads in
  let outcome = run ctx in
  let kernel_ms = Workload.kernel_median_ms () in
  Printf.printf "env host.ref_kernel_ms %.3f (median of %d samples; nominal %g)\n" kernel_ms
    (List.length !Workload.kernel_samples) Measure.ref_kernel_nominal_ms;
  List.iter
    (fun (k, v) -> Printf.printf "param %s %s\n" k (Export.to_string v))
    outcome.Workload.params;
  let host = Workload.metric "host.ref_kernel_ms" "ms" kernel_ms in
  let metrics =
    if opts.trace then
      Catalog.complete ~fill:true Catalog.per_layer (outcome.Workload.per_layer @ [ host ])
    else Catalog.complete ~fill:false Catalog.end_to_end outcome.Workload.end_to_end
  in
  List.iter
    (fun (m : Workload.metric) ->
      Printf.printf "metric %s %s %s\n" m.Workload.name (number m.Workload.value) m.Workload.unit)
    metrics;
  if opts.trace then begin
    Trace.print_table ~workload:name;
    Option.iter Trace.write_chrome opts.trace_out
  end;
  let attempted = outcome.Workload.attempted and failed = outcome.Workload.failed in
  let correct =
    failed = 0 && attempted >= 1
    && List.for_all (fun (m : Workload.metric) -> Float.is_finite m.Workload.value) metrics
  in
  Printf.printf "outputs_digest %s\n" outcome.Workload.digest;
  Printf.printf "failed_frac %s (%d of %d)\n"
    (number (Measure.ratio (float_of_int failed) (float_of_int attempted)))
    failed attempted;
  Option.iter
    (fun path ->
      write_file path
        (Export.pretty
           (Export.Object
              [
                ("workload", Export.String name);
                ("seed", Export.Int opts.seed);
                ("seconds", Export.Float opts.seconds);
                ("trace", Export.Bool opts.trace);
                ( "env",
                  Export.Object
                    [
                      ("nproc", Export.Int nproc);
                      ("recommended_domain_count", Export.Int domains);
                      ("ocaml", Export.String Sys.ocaml_version);
                      ("git_rev", Export.String git_rev);
                      ("host.ref_kernel_ms", Export.Float kernel_ms);
                      ("host.ref_kernel_nominal_ms", Export.Float Measure.ref_kernel_nominal_ms);
                    ] );
                ("params", Export.Object outcome.Workload.params);
                ("metrics", Export.Object (List.map metric_json metrics));
                ("outputs_digest", Export.String outcome.Workload.digest);
                ("correct", Export.Bool correct);
                ("attempted", Export.Int attempted);
                ("failed", Export.Int failed);
              ])))
    opts.json_out;
  print_endline (result_line ~correct ~attempted ~failed metrics)

(* --- every workload, one child process each --- *)

type child = {
  name : string;
  trace : bool;
  output : string list;
  status : Unix.process_status;
}

(* Runs one workload in a child process, echoing its output unless
   [quiet]. *)
let run_child opts name ~trace ~quiet =
  let per_workload f = Printf.sprintf "%s.%s.json" f name in
  let args =
    [ "--workload"; name; "--seed"; string_of_int opts.seed; "--seconds";
      Printf.sprintf "%g" opts.seconds; "--trace"; (if trace then "1" else "0");
      "--root"; opts.root ]
    @ (if opts.smoke then [ "--smoke" ] else [])
    @ (match opts.trace_out with
      | Some f when trace -> [ "--trace-out"; per_workload f ]
      | _ -> [])
    @ Option.fold ~none:[] ~some:(fun f -> [ "--json-out"; per_workload f ]) opts.json_out
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let output = ref [] in
  let rec read () =
    match input_line ic with
    | line ->
      if not quiet then print_endline line;
      output := line :: !output;
      read ()
    | exception End_of_file -> ()
  in
  (match read () with
  | () -> ()
  | exception e ->
    (* interrupted: stop the child and wait for it before leaving *)
    (try Unix.kill (Unix.process_in_pid ic) Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.close_process_in ic);
    raise e);
  let status = Unix.close_process_in ic in
  { name; trace; output = List.rev !output; status }

let last_line c =
  match List.rev c.output with line :: _ -> Some line | [] -> None

let parse_result line =
  match Export.parse line with
  | Ok json -> json
  | Error e -> failwith ("unparseable result line: " ^ e)

let bool_member key json =
  match Export.member key json with Some (Export.Bool b) -> b | _ -> false

let int_member key json =
  match Export.member key json with Some (Export.Int i) -> i | _ -> 0

(* Names and units BENCHMARK.json declares for [section]. *)
let declared root section =
  let path = Filename.concat root "BENCHMARK.json" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Option.bind (Result.to_option (Export.parse text)) (Export.member section) with
  | Some (Export.List entries) ->
    List.map
      (fun e ->
        match (Export.member "name" e, Export.member "unit" e) with
        | Some (Export.String n), Some (Export.String u) -> (n, u)
        | _ -> failwith ("malformed entry in " ^ section))
      entries
  | _ -> failwith (path ^ ": no " ^ section ^ " list")

(* Every declared metric is printed with its unit, and nothing failed.
   Silent when it holds; otherwise the problems and the failing runs'
   output go to stderr and the exit code is 1. *)
let smoke_check opts children =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let catalog_matches section catalog =
    if declared opts.root section <> catalog then
      problem "BENCHMARK.json %s differs from the catalog the benchmark prints" section
  in
  catalog_matches "end_to_end" Catalog.end_to_end;
  catalog_matches "per_layer" Catalog.per_layer;
  List.iter
    (fun c ->
      let tag = Printf.sprintf "%s (trace %d)" c.name (if c.trace then 1 else 0) in
      let before = List.length !problems in
      (match (c.status, last_line c) with
      | Unix.WEXITED 0, Some line ->
        let json = parse_result line in
        if not (bool_member "correct" json) then problem "%s: not correct" tag;
        if int_member "failed" json <> 0 then problem "%s: failed_frac is not 0" tag;
        let metrics = Option.value (Export.member "metrics" json) ~default:Export.Null in
        List.iter
          (fun (name, unit) ->
            match Option.bind (Export.member name metrics) (Export.member "unit") with
            | Some (Export.String u) when u = unit -> ()
            | _ -> problem "%s: %s is not printed with unit %s" tag name unit)
          (if c.trace then Catalog.per_layer else Catalog.end_to_end)
      | _ -> problem "%s: exited abnormally" tag);
      if List.length !problems > before then
        List.iter (fun l -> prerr_endline (tag ^ "| " ^ l)) c.output)
    children;
  if !problems <> [] then begin
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev !problems);
    exit 1
  end

let run_all opts =
  let children =
    List.concat_map
      (fun (name, _) ->
        if opts.smoke then
          [ run_child opts name ~trace:false ~quiet:true;
            run_child opts name ~trace:true ~quiet:true ]
        else [ run_child opts name ~trace:opts.trace ~quiet:false ])
      workloads
  in
  let results =
    List.filter_map
      (fun c ->
        match (c.status, last_line c) with
        | Unix.WEXITED 0, Some line -> Some (c, parse_result line)
        | _ -> None)
      children
  in
  let metrics =
    List.concat_map
      (fun (c, json) ->
        match Export.member "metrics" json with
        | Some (Export.Object fields) ->
          List.filter_map
            (fun (k, v) ->
              match (Export.member "value" v, Export.member "unit" v) with
              | Some (Export.Float x), Some (Export.String u) ->
                Some (Workload.metric (c.name ^ "/" ^ k) u x)
              | Some (Export.Int x), Some (Export.String u) ->
                Some (Workload.metric (c.name ^ "/" ^ k) u (float_of_int x))
              | _ -> None)
            fields
        | _ -> [])
      results
  in
  let correct =
    List.length results = List.length children
    && List.for_all (fun (_, j) -> bool_member "correct" j) results
  in
  let sum key = List.fold_left (fun acc (_, j) -> acc + int_member key j) 0 results in
  if opts.smoke then smoke_check opts children
  else print_endline (result_line ~correct ~attempted:(sum "attempted") ~failed:(sum "failed") metrics)

exception Interrupted

(* SIGINT and SIGTERM unwind like any exception, so every daemon and
   child process is stopped and waited for, and the temporary files
   removed, before the benchmark exits (without a result). *)
let () =
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> raise Interrupted)))
    [ Sys.sigint; Sys.sigterm ];
  let opts = parse_args () in
  match
    match opts.workload with
    | Some name -> run_one opts name
    | None -> run_all opts
  with
  | () -> ()
  | exception Interrupted ->
    prerr_endline "msoc_bench: interrupted";
    exit 2
