let () =
  Alcotest.run "amoeba-repro"
    [
      Test_sim.suite;
      Test_net.suite;
      Test_switch.suite;
      Test_flip.suite;
      Test_core.suite;
      Test_wire.suite;
      Test_sync.suite;
      Test_api.suite;
      Test_recovery.suite;
      Test_failure_detector.suite;
      Test_rpc.suite;
      Test_baselines.suite;
      Test_grouplib.suite;
      Test_orca.suite;
      Test_harness.suite;
      Test_chaos.suite;
      Test_service.suite;
      Test_router.suite;
      Test_durability.suite;
      Test_migration.suite;
      Test_loadgen.suite;
    ]
