(* Every name the benchmark prints, with its unit and direction. The
   executable emits metrics only through these lists, and both the run-time
   manifest check and the test compare them with BENCHMARK.json, so the file
   and the output cannot drift apart. *)

type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m ?(better = `Lower) name unit_ = { name; unit_; better }

let workloads = [ "agree-n61"; "service-soak"; "fuzz-lossy"; "mc-smoke" ]

(* Timed with tracing off; printed on every workload with [--trace 0]. *)
let end_to_end =
  [
    m "ops_per_ref" "1/ref" ~better:`Higher;
    m "call_ref_p50" "ref";
    m "minor_words_per_op" "words";
    m "heap_peak_mb" "MB";
    m "setup_s" "s";
    m "decide_p50_d" "sim_d";
    m "decide_p99_d" "sim_d";
  ]

(* From the traced run, per API call unless the name says otherwise;
   printed on every workload with [--trace 1]. A layer a workload does not
   exercise (or that this benchmark cannot see on it) reads 0. *)
let per_layer =
  [
    m "engine.events" "count";
    m "engine.self_ns_per_event" "ns";
    m "engine.self_share" "ratio";
    m "net.send_calls" "count";
    m "net.deliveries" "count";
    m "net.send_ns_per_call" "ns";
    m "net.send_share" "ratio";
    m "net.pool_slots" "count";
    m "node.deliver_self_ns" "ns";
    m "node.deliver_share" "ratio";
    m "node.deliver_words" "words";
    m "node.propose_ns" "ns";
    m "node.sessions_peak_live" "count";
    m "node.sessions_gced" "count";
    m "node.sessions_evicted" "count";
    m "node.rejected_at_capacity" "count";
    m "service.on_return_ns" "ns";
    m "service.shed" "count";
    m "service.retries" "count";
    m "service.peak_live_frac" "ratio";
    m "runner.setup_ms" "ms";
    m "runner.run_ms" "ms";
    m "transport.retransmits" "count";
    m "transport.retransmit_ratio" "ratio";
    m "transport.dup_suppressed" "count";
    m "transport.expired" "count";
    m "fuzz.gen_ms" "ms";
    m "fuzz.compile_ms" "ms";
    m "fuzz.run_ms" "ms";
    m "fuzz.judge_ms" "ms";
    m "fuzz.events_per_scenario" "count";
    m "judge.recovery_report_ms" "ms";
    m "judge.invariants_ms" "ms";
    m "judge.digest_ms" "ms";
    m "mc.explored" "count";
    m "mc.judged" "count" ~better:`Higher;
    m "mc.pruned" "count" ~better:`Higher;
    m "mc.judged_ratio" "ratio" ~better:`Higher;
    m "mc.ms_per_run" "ms";
    m "gc.minor_collections_per_op" "count";
    m "gc.major_collections_per_op" "count";
    m "gc.promoted_words_per_op" "words";
    m "trace.overhead_ratio" "ratio";
  ]

let better_string = function `Lower -> "lower" | `Higher -> "higher"
