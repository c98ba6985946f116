(* Benchmark harness: regenerates every table and figure of the
   DATE'05 paper (see DESIGN.md §4 for the experiment index) plus the
   ablations, then reports Bechamel timings.

   Usage: dune exec bench/main.exe [-- section ...]
   Sections: table1 table2 table3 table4 fig2 fig4 fig5 ablation-delta
   ablation-serial ablation-placement ablation-selftest ablation-fixed
   ablation-power ablation-packer ablation-engine generality sigma-delta
   tradeoff scaling search-scaling packer-matrix serve-throughput fleet
   cosim timings
   (default: all). *)

let sections =
  [
    ("table1", Tables.table1);
    ("table2", Tables.table2);
    ("table3", Tables.table3);
    ("table4", Tables.table4);
    ("fig2", Figures.fig2);
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("ablation-delta", Ablations.ablation_delta);
    ("ablation-serial", Ablations.ablation_serial);
    ("ablation-placement", Ablations.ablation_placement);
    ("ablation-selftest", Ablations.ablation_selftest);
    ("ablation-fixed", Ablations.ablation_fixed_partition);
    ("ablation-power", Ablations.ablation_power);
    ("ablation-packer", Ablations.ablation_packer);
    ("ablation-engine", Engine.run);
    ("generality", Ablations.generality);
    ("sigma-delta", Figures.sigma_delta);
    ("tradeoff", Ablations.tradeoff);
    ("scaling", Ablations.ablation_scaling);
    ("search-scaling", Search_scaling.run);
    ("packer-matrix", Packer_matrix.run);
    ("serve-throughput", Serve.run);
    ("fleet", Fleet.run);
    ("cosim", Cosim.run);
    ("timings", Timings.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst sections
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 1)
    requested;
  Printf.printf "\n[bench completed in %.1f s]\n" (Unix.gettimeofday () -. t0)
