(* Packer matrix: every registered packer variant head-to-head on the
   seeded synthetic suite and the checked-in data/p93791s.soc
   benchmark — verified schedule quality and packs/sec.

   Quality gate (fails the bench, and the bench-smoke CI job): no
   variant's Msoc_check-verified makespan may exceed best_fit's on any
   instance. Variants extend the best_fit portfolio with specialty
   orders, so a regression is a packer bug, not a heuristic trade-off.

   Writes BENCH_packer_matrix.json so CI can archive the numbers.

   Environment knob (for the CI smoke run):
     MSOC_PACKER_BENCH_REPEATS  timed packs per (instance, variant)
                                (default 3) *)

module Table = Msoc_util.Ascii_table
module Problem = Msoc_testplan.Problem
module Evaluate = Msoc_testplan.Evaluate
module Export = Msoc_testplan.Export
module Instances = Msoc_testplan.Instances
module Synthetic = Msoc_itc02.Synthetic
module Soc_file = Msoc_itc02.Soc_file
module Sharing = Msoc_analog.Sharing
module Registry = Msoc_tam.Packer_registry
module Schedule = Msoc_tam.Schedule
module Schedule_check = Msoc_check.Schedule_check
module Diagnostic = Msoc_check.Diagnostic

let header title = Printf.printf "\n=== %s ===\n\n" title

let env_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)

(* --- instance suite ------------------------------------------------ *)

(* Full job sets (digital cores + analog tests under no sharing, the
   largest rectangle population a plan ever packs) so the heuristics
   are compared where order actually matters. *)
let jobs_of_problem problem analog =
  Evaluate.jobs_for (Evaluate.prepare problem) (Sharing.no_sharing analog)

let synthetic_instance ~seed ~n_cores ~bottleneck ~m ~width name =
  let profile =
    { Synthetic.n_cores; target_area = 600_000; max_chains = 10; bottleneck }
  in
  let soc = Synthetic.generate ~seed ~name profile in
  let analog = Instances.scaled_analog ~n:m in
  let problem =
    Problem.make ~soc ~analog_cores:analog ~tam_width:width ~weight_time:0.5 ()
  in
  (name, width, jobs_of_problem problem analog)

let benchmark_soc () =
  (* dune exec runs from the project root; dune runtest would run from
     _build/default/bench — accept both, fall back to the generator so
     the bench never depends on the file being present. *)
  match
    List.find_opt Sys.file_exists [ "data/p93791s.soc"; "../data/p93791s.soc" ]
  with
  | Some path -> Soc_file.load path
  | None -> Synthetic.p93791s ()

let instances () =
  let soc = benchmark_soc () in
  let p93791s width =
    let analog = Msoc_analog.Catalog.all in
    let problem =
      Problem.make ~soc ~analog_cores:analog ~tam_width:width ~weight_time:0.5
        ()
    in
    (Printf.sprintf "p93791s/W%d" width, width, jobs_of_problem problem analog)
  in
  [
    synthetic_instance ~seed:11 ~n_cores:4 ~bottleneck:false ~m:6 ~width:24
      "syn-s11";
    synthetic_instance ~seed:23 ~n_cores:6 ~bottleneck:false ~m:8 ~width:32
      "syn-s23";
    synthetic_instance ~seed:97 ~n_cores:4 ~bottleneck:true ~m:10 ~width:16
      "syn-s97";
    p93791s 24;
    p93791s 48;
  ]

(* --- quality / throughput matrix ----------------------------------- *)

let verify ~instance ~packer_name ~jobs schedule =
  match Schedule_check.run ~expected:jobs schedule with
  | [] -> ()
  | ds ->
    failwith
      (Printf.sprintf
         "packer-matrix: %s on %s failed Msoc_check verification:\n%s"
         packer_name instance
         (Diagnostic.render_text ds))

let matrix ~repeats ~note insts =
  let columns =
    [
      Table.column "instance";
      Table.column ~align:Table.Right "jobs";
      Table.column "packer";
      Table.column ~align:Table.Right "LB";
      Table.column ~align:Table.Right "makespan";
      Table.column ~align:Table.Right "vs best_fit";
      Table.column ~align:Table.Right "packs/s";
      Table.column "verified";
    ]
  in
  let regressions = ref [] in
  let rows =
    List.concat_map
      (fun (instance, width, jobs) ->
        let baseline = ref 0 in
        List.map
          (fun packer ->
            let pname = Registry.name packer in
            let schedule = Registry.pack packer ~width jobs in
            let t0 = Unix.gettimeofday () in
            for _ = 1 to repeats do
              ignore (Registry.pack packer ~width jobs)
            done;
            let dt = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
            verify ~instance ~packer_name:pname ~jobs schedule;
            let ms = Schedule.makespan schedule in
            if pname = "best_fit" then baseline := ms
            else if ms > !baseline then
              regressions :=
                Printf.sprintf "%s on %s: %d > best_fit %d" pname instance ms
                  !baseline
                :: !regressions;
            let lb = Registry.lower_bound packer ~width jobs in
            note
              (Export.Object
                 [
                   ("instance", Export.String instance);
                   ("width", Export.Int width);
                   ("jobs", Export.Int (List.length jobs));
                   ("packer", Export.String pname);
                   ("lower_bound", Export.Int lb);
                   ("makespan", Export.Int ms);
                   ("packs_per_s", Export.Float (1.0 /. dt));
                   ("verified", Export.Bool true);
                 ]);
            [
              instance;
              string_of_int (List.length jobs);
              pname;
              Table.int_cell lb;
              Table.int_cell ms;
              (if pname = "best_fit" then "-"
               else Printf.sprintf "%+d" (ms - !baseline));
              Table.float_cell ~decimals:1 (1.0 /. dt);
              "yes";
            ])
          Registry.all)
      insts
  in
  Table.print ~columns ~rows;
  !regressions

let run () =
  header "Packer matrix: variants x instances, Msoc_check-verified";
  let repeats = max 1 (env_int "MSOC_PACKER_BENCH_REPEATS" 3) in
  let insts = instances () in
  let matrix_rows = ref [] in
  let regressions =
    matrix ~repeats ~note:(fun j -> matrix_rows := j :: !matrix_rows) insts
  in
  let doc =
    Export.Object
      [
        ("bench", Export.String "packer-matrix");
        ("repeats", Export.Int repeats);
        ("packers", Export.List (List.map (fun s -> Export.String s) Registry.names));
        ("matrix", Export.List (List.rev !matrix_rows));
        ("quality_gate_ok", Export.Bool (regressions = []));
      ]
  in
  let path = "BENCH_packer_matrix.json" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Export.pretty doc));
  Printf.printf
    "\nEvery schedule above was re-verified by Msoc_check.Schedule_check \
     before it counted. Wrote %s.\n"
    path;
  if regressions <> [] then
    failwith
      ("packer-matrix: variant makespan regressed vs best_fit:\n  "
      ^ String.concat "\n  " (List.rev regressions))
