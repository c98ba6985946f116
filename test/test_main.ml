(* Aggregated test runner: one alcotest binary over all libraries. *)

let () =
  Alcotest.run "msoc-testplan"
    (Test_util.suites @ Test_itc02.suites @ Test_wrapper.suites @ Test_tam.suites
   @ Test_analog.suites @ Test_sharing_ref.suites @ Test_signal.suites @ Test_mixedsig.suites
   @ Test_measurements.suites @ Test_placement.suites @ Test_power.suites @ Test_extensions.suites @ Test_toolkit.suites @ Test_robustness.suites @ Test_catalog_ext.suites @ Test_protocol.suites @ Test_explore.suites @ Test_interconnect.suites @ Test_hardening.suites @ Test_metrology.suites @ Test_invariants.suites
   @ Test_packers.suites @ Test_packer_ref.suites @ Test_schedule_ref.suites
   @ Test_dsp_ref.suites @ Test_search_ref.suites @ Test_cosim_ref.suites
   @ Test_soc_ref.suites @ Test_export_ref.suites
   @ Test_testplan.suites @ Test_integration.suites @ Test_engine.suites
   @ Test_check.suites @ Test_serve.suites @ Test_fleet.suites
   @ Test_cosim.suites
   @ Test_search.suites
   @ Test_analysis.suites @ Test_semantic.suites @ Test_resource.suites
   @ Test_stress.suites)
