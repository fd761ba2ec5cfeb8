//! The metric catalogue: every name a run prints, with its unit and
//! whether it is simulated (repeats exactly for equal inputs on one
//! commit) or host-measured. `BENCHMARK.json` lists the same names with
//! direction and bound; `tests/contract.rs` holds the two in step.

#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// Simulated results and counts: `compare` demands exact equality
    /// between runs on equal seeds before it looks at any bound.
    pub sim: bool,
}

const fn host(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        sim: false,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        sim: true,
    }
}

/// Printed by a `--trace 0` run.
pub const END_TO_END: &[Def] = &[
    host("setup_s", "s"),
    host("pass_wall_s", "s"),
    host("rx_pkts_per_s", "pkt/s"),
    host("peak_rss_mb", "MiB"),
    sim("recovery_rtt", "RTT"),
];

/// Printed by a `--trace 1` run. A metric reads 0 on a workload that does
/// not exercise its layer, or whose front door does not expose the figure.
pub const PER_LAYER: &[Def] = &[
    host("traces.synth_s", "s"),
    sim("traces.cells", "count"),
    host("traces.ns_per_cell", "ns"),
    host("lossmap.rates_s", "s"),
    host("lossmap.infer_s", "s"),
    sim("lossmap.lossy_packets", "count"),
    sim("lossmap.link_drops", "count"),
    host("lossmap.ns_per_lossy_packet", "ns"),
    host("topology.scale_tree_s", "s"),
    sim("topology.nodes", "count"),
    host("topology.ns_per_node", "ns"),
    sim("netsim.events", "count"),
    host("netsim.ns_per_event", "ns"),
    host("netsim.events_per_s", "1/s"),
    sim("netsim.transmits", "count"),
    sim("netsim.deliveries", "count"),
    sim("netsim.fan_outs", "count"),
    sim("netsim.queue.pushes", "count"),
    sim("netsim.queue.max_bucket_len", "count"),
    sim("netsim.queue.advances", "count"),
    sim("netsim.queue.far_pushes", "count"),
    sim("netsim.arena.allocs", "count"),
    sim("netsim.arena.high_water", "count"),
    host("srm.run_s", "s"),
    sim("srm.events", "count"),
    host("srm.ns_per_event", "ns"),
    sim("srm.requests_per_loss", "ratio"),
    sim("srm.replies_per_loss", "ratio"),
    sim("srm.recovery_rtt", "RTT"),
    host("cesrm.run_s", "s"),
    sim("cesrm.events", "count"),
    host("cesrm.ns_per_event", "ns"),
    sim("cesrm.requests_per_loss", "ratio"),
    sim("cesrm.replies_per_loss", "ratio"),
    sim("cesrm.recovery_rtt", "RTT"),
    sim("cesrm.latency_reduction_pct", "%"),
    sim("cesrm.expedited_requests", "count"),
    sim("cesrm.expedited_replies", "count"),
    sim("cesrm.expedited_success_pct", "%"),
    sim("cesrm.expedited_share", "ratio"),
    sim("cesrm.cache.hits", "count"),
    sim("cesrm.cache.misses", "count"),
    sim("cesrm.cache.hit_ratio", "ratio"),
    sim("metrics.records", "count"),
    sim("metrics.unrecovered", "count"),
    sim("metrics.crossings.retx", "count"),
    sim("metrics.crossings.control", "count"),
    sim("metrics.retx_overhead_ratio", "ratio"),
    sim("obs.records", "count"),
    host("obs.all_on_overhead_pct", "%"),
    host("obs.ns_per_record", "ns"),
    host("obs.monitor_overhead_pct", "%"),
    host("obs.digest_overhead_pct", "%"),
    host("obs.capture_overhead_pct", "%"),
    sim("obs.violations", "count"),
    host("obs.jsonl_write_s", "s"),
    host("obs.jsonl_ns_per_record", "ns"),
    host("obs.provenance_s", "s"),
    host("harness.suite_overhead_pct", "%"),
    host("harness.jobs2_speedup", "ratio"),
    host("harness.render_s", "s"),
    host("harness.shard.busy_s", "s"),
    host("harness.shard.barrier_s", "s"),
    host("harness.shard.barrier_share", "ratio"),
    host("harness.shard.imbalance_ratio", "ratio"),
    sim("harness.shard.cross_packets", "count"),
    sim("harness.shard.epochs", "count"),
    sim("harness.scale.state_bytes_per_receiver", "B"),
    host("harness.scale.cold_pass_s", "s"),
    host("trace.pass_wall_s", "s"),
    host("trace.overhead_pct", "%"),
    host("trace.attributed_pct", "%"),
    host("trace.spans", "count"),
];

/// Looks a metric up in either catalogue.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
