let () =
  Alcotest.run "tsms"
    [
      ("rng", Test_rng.suite);
      ("base", Test_base.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("isa", Test_isa.suite);
      ("ddg", Test_ddg.suite);
      ("scc+mii", Test_scc_mii.suite);
      ("parse+dot", Test_parse.suite);
      ("mrt", Test_mrt.suite);
      ("sched", Test_sched.suite);
      ("kernel", Test_kernel.suite);
      ("order+sms", Test_order_sms.suite);
      ("cost-model", Test_cost_model.suite);
      ("tms", Test_tms.suite);
      ("tms-equiv", Test_equiv.suite);
      ("tms-ims", Test_tms_ims.suite);
      ("cache+mdt", Test_cache_mdt.suite);
      ("sim", Test_sim.suite);
      ("placement", Test_placement.suite);
      ("workload", Test_workload.suite);
      ("harness", Test_harness.suite);
      ("persist", Test_persist.suite);
      ("resil", Test_resil.suite);
      ("serve", Test_serve.suite);
      ("extensions", Test_extensions.suite);
      ("profile+slices", Test_profile.suite);
      ("fuzz+check", Fuzz_check.suite);
    ]
