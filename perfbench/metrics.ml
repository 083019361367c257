(* The metric tables BENCHMARK.json declares.  A run prints every entry of
   one table: the end-to-end table untraced, the per-layer table traced.  A
   per-layer metric of a layer the workload does not exercise reads 0. *)

let end_to_end =
  [ ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_ratio", "ratio");
    ("result_p50_s", "s");
    ("precision", "ratio");
    ("recall", "ratio") ]

let per_layer =
  [ ("topology.world_build_s", "s");
    ("sim.run_s", "s");
    ("sim.events", "count");
    ("sim.deliveries", "count");
    ("sim.events_per_s", "1/s");
    ("sim.shard_imbalance", "ratio");
    ("sim.shard0.replay_s", "s");
    ("sim.shard1.replay_s", "s");
    ("sim.shard2.replay_s", "s");
    ("sim.shard3.replay_s", "s");
    ("bgp.ns_per_delivery", "ns");
    ("collector.dump_s", "s");
    ("collector.records", "count");
    ("labeling.label_s", "s");
    ("labeling.paths", "count");
    ("labeling.rfd_paths", "count");
    ("heuristics.evaluate_s", "s");
    ("core.tomography_s", "s");
    ("core.infer_s", "s");
    ("core.categorize_s", "s");
    ("core.nodes", "count");
    ("core.paths", "count");
    ("mcmc.sweeps", "count");
    ("mcmc.sweeps_per_s", "1/s");
    ("mcmc.acceptance.MH", "ratio");
    ("mcmc.acceptance.HMC", "ratio");
    ("mcmc.min_ess", "count");
    ("mcmc.ess_per_sweep", "ratio");
    ("mcmc.rhat_max", "ratio");
    ("stats.parallel_efficiency", "ratio");
    ("recover.bytes_written", "B");
    ("recover.files", "count");
    ("service.admit_ms", "ms");
    ("service.queue_wait_s", "s");
    ("service.run_s", "s");
    ("service.retries", "count");
    ("service.stream_s", "s");
    ("service.gate_passed", "count");
    ("faults.realized", "count");
    ("http.read_rtt_ms.status", "ms");
    ("http.read_rtt_ms.matrix", "ms");
    ("http.read_rtt_ms.estimates", "ms");
    ("http.submit_rtt_ms", "ms");
    ("http.shed", "count");
    ("http.bytes_per_read", "B");
    ("loadgen.late_p99_ms", "ms");
    ("telemetry.overhead_pct", "%") ]

(* Fill a table from measured values, in table order; every measured name
   must belong to the table. *)
let fill table measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then
        invalid_arg ("metric not declared: " ^ name))
    measured;
  List.map
    (fun (name, unit_) ->
      (name, Option.value ~default:0.0 (List.assoc_opt name measured), unit_))
    table
