//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is this
//! table rendered by [`manifest_json`]; a test keeps the two identical.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`): three
/// repeats of a window sized to a third of it.
pub const RUN_SECONDS: u32 = 15;

/// In-process repeats of {set-up, measured window} per run.
pub const REPEATS: usize = 3;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit; `sim_*` units are simulated time, plain ones host time.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "closed_saturated",
        "closed loop, 200 clients on IDEM then Paxos then BFT-SMaRt: handlers and dispatch do the work, queues stay shallow",
    ),
    (
        "open_flash",
        "open loop, 1e5 clients, Poisson 0.7x/2.2x/0.7x capacity on IDEM: arrival sampling, backoff, timers, rejection",
    ),
    (
        "open_backlog",
        "open loop, 1e5 clients, 200 ms bursts at 1.9x capacity under a fast MMPP (mean 0.83x) on BFT-SMaRt, reads: deep backlogs, a large pending pool",
    ),
    (
        "durable_crash",
        "open loop, 1e4 clients, 1 KiB writes on IDEM with WAL and disk latency; leader crash, follower wipe and recovery",
    ),
];

/// Metrics a user of the system sees. Simulated metrics come from the
/// workload's primary cell. They repeat exactly for one seed; the pipeline
/// compares runs of ten different seeds, so each bound is at least three
/// times the widest seed-to-seed spread measured on any workload (host
/// metrics: the widest run-to-run spread on this two-core sandbox).
pub const END_TO_END: [Metric; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("host_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
    e2e("sim_goodput_per_s", "1/sim_s", Higher, 0.03),
    e2e("sim_fail_share", "ratio", Lower, 0.10),
    e2e("sim_lat_mean_ms", "sim_ms", Lower, 0.06),
    e2e("sim_lat_p50_ms", "sim_ms", Lower, 0.06),
    e2e("sim_lat_p99_ms", "sim_ms", Lower, 0.08),
    e2e("sim_lat_p999_ms", "sim_ms", Lower, 0.12),
];

/// Metrics of single layers, named `<crate>.<module>.<metric>`.
pub const PER_LAYER: [Metric; 57] = [
    layer("simnet.sim.events", "count", Lower),
    layer("simnet.sim.self_ns_per_event", "ns", Lower),
    layer("simnet.sim.self_share", "ratio", Lower),
    layer("simnet.sim.inline_wakes", "count", Higher),
    layer("simnet.sim.queue_high_water", "count", Lower),
    layer("simnet.sim.multicast_batches", "count", Higher),
    layer("simnet.wheel.push_pop_ns", "ns", Lower),
    layer("simnet.wheel.timers_fired", "count", Lower),
    layer("simnet.wheel.est_share", "ratio", Lower),
    layer("simnet.arena.messages", "count", Lower),
    layer("simnet.arena.high_water", "count", Lower),
    layer("simnet.arena.insert_take_ns", "ns", Lower),
    layer("simnet.net.sample_ns", "ns", Lower),
    layer("simnet.net.msgs_per_op", "ratio", Lower),
    layer("simnet.net.bytes_per_op", "B", Lower),
    layer("core.replica.handler_ns_per_msg", "ns", Lower),
    layer("core.replica.busy_share", "ratio", Lower),
    layer("core.replica.msgs_handled", "count", Lower),
    layer("core.replica.rejected_share", "ratio", Lower),
    layer("core.replica.forwards_per_op", "ratio", Lower),
    layer("core.replica.view_changes", "count", Lower),
    layer("core.replica.checkpoints", "count", Lower),
    layer("core.replica.sim_recovery_ms", "sim_ms", Lower),
    layer("paxos.replica.handler_ns_per_msg", "ns", Lower),
    layer("paxos.replica.busy_share", "ratio", Lower),
    layer("paxos.replica.max_queue_len", "count", Lower),
    layer("paxos.replica.sim_lat_p99_ms", "sim_ms", Lower),
    layer("paxos.replica.sim_goodput_per_s", "1/sim_s", Higher),
    layer("smart.replica.handler_ns_per_msg", "ns", Lower),
    layer("smart.replica.busy_share", "ratio", Lower),
    layer("smart.replica.max_pending_len", "count", Lower),
    layer("smart.replica.ops_per_batch", "ratio", Higher),
    layer("smart.replica.sim_lat_p99_ms", "sim_ms", Lower),
    layer("smart.replica.sim_goodput_per_s", "1/sim_s", Higher),
    layer("kv.store.exec_ns_per_op", "ns", Lower),
    layer("kv.store.exec_share", "ratio", Lower),
    layer("kv.ycsb.next_command_ns", "ns", Lower),
    layer("common.wal.records_per_op", "ratio", Lower),
    layer("common.wal.bytes_per_op", "B", Lower),
    layer("common.wal.encode_ns", "ns", Lower),
    layer("common.wal.decode_ns_per_record", "ns", Lower),
    layer("simnet.disk.fsyncs_per_op", "ratio", Lower),
    layer("harness.load.handler_ns_per_event", "ns", Lower),
    layer("harness.load.share", "ratio", Lower),
    layer("harness.load.shed_share", "ratio", Lower),
    layer("harness.load.retransmits_per_op", "ratio", Lower),
    layer("harness.client.handler_ns_per_event", "ns", Lower),
    layer("harness.client.share", "ratio", Lower),
    layer("common.load.next_gap_ns", "ns", Lower),
    layer("common.load.backoff_insert_pop_ns", "ns", Lower),
    layer("harness.recorder.record_ns", "ns", Lower),
    layer("harness.recorder.sim_outage_ms", "sim_ms", Lower),
    layer("metrics.histogram.record_ns", "ns", Lower),
    layer("harness.cluster.build_s", "s", Lower),
    layer("harness.cluster.warmup_s", "s", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("ledger.unattributed_share", "ratio", Lower),
];

fn better(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            better(m.better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name,
            m.unit,
            better(m.better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
