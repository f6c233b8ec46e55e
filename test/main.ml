(* Test entry point: one Alcotest run aggregating every module's suite. *)

let () =
  Alcotest.run "ssba"
    [
      ("rng", Test_rng.suite);
      ("event-queue", Test_event_queue.suite);
      ("event-queue-differential", Test_differential.suite);
      ("time-set", Test_time_set.suite);
      ("clock", Test_clock.suite);
      ("engine", Test_engine.suite);
      ("trace", Test_trace.suite);
      ("json", Test_json.suite);
      ("metrics", Test_metrics.suite);
      ("net", Test_net.suite);
      ("pool", Test_pool.suite);
      ("delay", Test_delay.suite);
      ("recv-log", Test_recv_log.suite);
      ("stamps", Test_stamps.suite);
      ("params", Test_params.suite);
      ("initiator-accept", Test_initiator_accept.suite);
      ("msgd-broadcast", Test_msgd_broadcast.suite);
      ("ss-byz-agree", Test_ss_byz_agree.suite);
      ("node", Test_node.suite);
      ("scramble", Test_scramble.suite);
      ("adversary", Test_adversary.suite);
      ("baseline", Test_baseline.suite);
      ("pulse", Test_pulse.suite);
      ("harness", Test_harness.suite);
      ("coherence", Test_coherence.suite);
      ("properties", Test_properties.suite);
      ("convergence", Test_convergence.suite);
      ("invariants", Test_invariants.suite);
      ("eig", Test_eig.suite);
      ("channels", Test_channels.suite);
      ("sessions", Test_sessions.suite);
      ("separation", Test_separation.suite);
      ("transport", Test_transport.suite);
      ("service", Test_service.suite);
      ("fuzz", Test_fuzz.suite);
      ("mc", Test_mc.suite);
      ("parallel", Test_parallel.suite);
      ("soak", Test_soak.suite);
    ]
