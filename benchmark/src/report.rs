//! One benchmark run: three repeats of a workload on fresh state, the
//! cross-repeat checks, and the metrics of the contract.
//!
//! End-to-end metrics come from untraced repeats only. On a traced run the
//! middle repeat stays untraced (the reference for the tracing overhead; the
//! first repeat of a process also pays for fresh pages from the OS, so it
//! would flatter tracing) and the others wrap every node and state machine;
//! the per-layer block is computed from the traced repeat that ran fastest.

use std::collections::BTreeMap;
use std::path::Path;

use crate::replay;
use crate::run::{run_cell, CellReport};
use crate::spec::{self, Metric, REPEATS, RUN_SECONDS};
use crate::trace::{spans_json, Layer, LayerTotals, Tracer};
use crate::workloads::{self, Load, Workload};

/// The result of one run, in the shape of the contract's last output line.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured windows of one repeat.
    pub attempted: u64,
    /// Successes behind the primary cell's latency percentiles.
    pub latency_samples: u64,
    /// Host seconds of each repeat's measured windows, summed over cells.
    pub repeat_host_s: Vec<f64>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// The metrics, in contract order.
    pub metrics: Vec<(&'static Metric, f64)>,
}

/// Successes the primary cell of a full-size run must record for its
/// 99.9th percentile to stand.
const P999_SAMPLES: u64 = 10_000;

/// The repeat a traced run leaves untraced.
const REFERENCE: usize = 1;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's high-water resident set size in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn sum(cells: &[CellReport], f: impl Fn(&CellReport) -> f64) -> f64 {
    cells.iter().map(f).sum()
}

fn end_to_end(repeats: &[Vec<CellReport>]) -> BTreeMap<String, f64> {
    let primary = &repeats[0][0].sim;
    let over = |f: &dyn Fn(&CellReport) -> f64| median(repeats.iter().map(|r| sum(r, f)).collect());
    [
        ("setup_s", over(&|c| c.build_s + c.warmup_s)),
        ("host_s", over(&|c| c.host_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_goodput_per_s", primary.goodput_per_s()),
        ("sim_fail_share", primary.fail_share()),
        ("sim_lat_mean_ms", primary.lat_mean_ms),
        ("sim_lat_p50_ms", primary.lat_p50_ms),
        ("sim_lat_p99_ms", primary.lat_p99_ms),
        ("sim_lat_p999_ms", primary.lat_p999_ms),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// The per-layer block. `reference` is the untraced repeat, `traced` the
/// traced one; counts are the same in both.
fn per_layer(
    workload: &Workload,
    reference: &[CellReport],
    traced: &[CellReport],
    build_s: f64,
    warmup_s: f64,
) -> BTreeMap<String, f64> {
    let mut m = Metrics::default();
    let host_ns = sum(traced, |c| c.host_s) * 1e9;
    let share = |ns: f64| ratio(ns, host_ns);
    let totals = |layer: Layer| {
        traced
            .iter()
            .filter_map(|c| c.trace)
            .fold(LayerTotals::default(), |mut acc, t| {
                let t = t.layer(layer);
                acc.calls += t.calls;
                acc.ns += t.ns;
                acc.app_ns += t.app_ns;
                acc
            })
    };
    let count = |f: &dyn Fn(&CellReport) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let peak = |f: &dyn Fn(&CellReport) -> u64| traced.iter().map(f).max().unwrap_or(0);
    let successes = count(&|c| c.sim.successes);

    // simnet: what the run loop did, and what is left of the window once
    // every handler span is taken out.
    let events = count(&|c| c.counts.events);
    let handler_ns = sum(traced, |c| c.trace.map_or(0, |t| t.handler_ns()) as f64);
    let spans = sum(traced, |c| {
        c.trace
            .map_or(0, |t| t.layers.iter().map(|l| l.calls).sum::<u64>()) as f64
    });
    let sim_self_ns = host_ns - handler_ns;
    m.insert("simnet.sim.events", events);
    m.insert("simnet.sim.self_ns_per_event", ratio(sim_self_ns, events));
    m.insert("simnet.sim.self_share", share(sim_self_ns));
    m.insert(
        "simnet.sim.inline_wakes",
        count(&|c| c.counts.stats.inline_wakes),
    );
    let queue_depth = peak(&|c| c.counts.stats.queue_high_water);
    m.insert("simnet.sim.queue_high_water", queue_depth as f64);
    m.insert(
        "simnet.sim.multicast_batches",
        count(&|c| c.counts.stats.multicast_batches),
    );

    let wheel_ns = replay::wheel_push_pop_ns(queue_depth);
    let queued = count(&|c| c.counts.stats.delivers + c.counts.stats.timers);
    m.insert("simnet.wheel.push_pop_ns", wheel_ns);
    m.insert(
        "simnet.wheel.timers_fired",
        count(&|c| c.counts.stats.timers),
    );
    m.insert("simnet.wheel.est_share", share(wheel_ns * queued));

    let arena_depth = peak(&|c| c.counts.stats.arena_high_water);
    let arena_ns = replay::arena_insert_take_ns(arena_depth);
    let arena_messages = count(&|c| c.counts.stats.arena_messages);
    m.insert("simnet.arena.messages", arena_messages);
    m.insert("simnet.arena.high_water", arena_depth as f64);
    m.insert("simnet.arena.insert_take_ns", arena_ns);

    let net_ns = replay::net_sample_ns();
    let messages = count(&|c| c.counts.messages);
    m.insert("simnet.net.sample_ns", net_ns);
    m.insert("simnet.net.msgs_per_op", ratio(messages, successes));
    m.insert(
        "simnet.net.bytes_per_op",
        ratio(count(&|c| c.counts.bytes), successes),
    );

    // The three replica implementations: handler self time, and the
    // simulated numbers of the cell each ran in.
    for (layer, protocol) in [
        (Layer::CoreReplica, "IDEM"),
        (Layer::PaxosReplica, "Paxos"),
        (Layer::SmartReplica, "BFT-SMaRt"),
    ] {
        let t = totals(layer);
        let cell = traced.iter().find(|c| c.protocol == protocol);
        let counters = cell.map(|c| c.counts.replicas).unwrap_or_default();
        let ops = cell.map_or(0.0, |c| c.sim.successes as f64);
        let key = |suffix: &str| format!("{}{suffix}", layer.name());
        m.insert(
            key(".handler_ns_per_msg"),
            ratio(t.self_ns() as f64, t.calls as f64),
        );
        m.insert(key(".busy_share"), share(t.self_ns() as f64));
        match layer {
            Layer::CoreReplica => {
                m.insert(key(".msgs_handled"), t.calls as f64);
                m.insert(
                    key(".rejected_share"),
                    ratio(counters.rejected as f64, counters.requests_received as f64),
                );
                m.insert(
                    key(".forwards_per_op"),
                    ratio(counters.forwards as f64, ops),
                );
                m.insert(key(".view_changes"), counters.view_changes as f64);
                m.insert(key(".checkpoints"), counters.checkpoints as f64);
                m.insert(
                    key(".sim_recovery_ms"),
                    cell.map_or(0.0, |c| c.sim.recovery_ms),
                );
            }
            _ => {
                let depth = if layer == Layer::PaxosReplica {
                    ".max_queue_len"
                } else {
                    m.insert(
                        key(".ops_per_batch"),
                        ratio(counters.executed as f64, counters.batches as f64),
                    );
                    ".max_pending_len"
                };
                m.insert(key(depth), counters.max_queue as f64);
                m.insert(
                    key(".sim_lat_p99_ms"),
                    cell.map_or(0.0, |c| c.sim.lat_p99_ms),
                );
                m.insert(
                    key(".sim_goodput_per_s"),
                    cell.map_or(0.0, |c| c.sim.goodput_per_s()),
                );
            }
        }
    }

    let app_ns = sum(traced, |c| c.trace.map_or(0, |t| t.app_ns) as f64);
    let app_calls = sum(traced, |c| c.trace.map_or(0, |t| t.app_calls) as f64);
    m.insert("kv.store.exec_ns_per_op", ratio(app_ns, app_calls));
    m.insert("kv.store.exec_share", share(app_ns));

    // The primary cell's inputs parameterize the generator replays.
    let primary = &workload.cells[0];
    let (spec, open) = match &primary.load {
        Load::Closed { workload, .. } => (*workload, None),
        Load::Open(scenario) => (scenario.workload, Some(scenario)),
    };
    m.insert("kv.ycsb.next_command_ns", replay::next_command_ns(spec));

    let wal_sample = &traced[0].wal_sample;
    let (encode_ns, decode_ns) = replay::wal_codec_ns(wal_sample);
    m.insert(
        "common.wal.records_per_op",
        ratio(count(&|c| c.counts.wal_records), successes),
    );
    m.insert(
        "common.wal.bytes_per_op",
        ratio(count(&|c| c.counts.wal_bytes), successes),
    );
    m.insert("common.wal.encode_ns", encode_ns);
    m.insert("common.wal.decode_ns_per_record", decode_ns);
    m.insert(
        "simnet.disk.fsyncs_per_op",
        ratio(count(&|c| c.counts.fsyncs), successes),
    );

    for (layer, per_event, of_host) in [
        (
            Layer::Load,
            "harness.load.handler_ns_per_event",
            "harness.load.share",
        ),
        (
            Layer::Client,
            "harness.client.handler_ns_per_event",
            "harness.client.share",
        ),
    ] {
        let t = totals(layer);
        m.insert(per_event, ratio(t.ns as f64, t.calls as f64));
        m.insert(of_host, share(t.ns as f64));
    }
    let attempted = count(&|c| c.sim.attempted);
    m.insert(
        "harness.load.shed_share",
        ratio(count(&|c| c.sim.shed), attempted),
    );
    m.insert(
        "harness.load.retransmits_per_op",
        ratio(count(&|c| c.sim.retransmits), successes),
    );
    m.insert(
        "common.load.next_gap_ns",
        open.map_or(0.0, |s| replay::next_gap_ns(&s.process, s.base_rate)),
    );
    m.insert(
        "common.load.backoff_insert_pop_ns",
        open.map_or(0.0, |s| replay::backoff_insert_pop_ns(s.base_rate)),
    );

    let sessions = match &primary.load {
        Load::Closed { clients, .. } => *clients,
        Load::Open(scenario) => scenario.population,
    };
    m.insert(
        "harness.recorder.record_ns",
        replay::recorder_record_ns(sessions),
    );
    m.insert("harness.recorder.sim_outage_ms", traced[0].sim.outage_ms);
    m.insert("metrics.histogram.record_ns", replay::histogram_record_ns());
    m.insert("harness.cluster.build_s", build_s);
    m.insert("harness.cluster.warmup_s", warmup_s);

    // The ledger's own quality: what tracing cost, and how much of the run
    // loop's self time the replayed simnet layers and the span bookkeeping
    // do not explain.
    let host_untraced_ns = sum(reference, |c| c.host_s) * 1e9;
    m.insert(
        "trace.overhead_share",
        ratio(host_ns, host_untraced_ns) - 1.0,
    );
    let explained = wheel_ns * queued
        + arena_ns * arena_messages
        + net_ns * messages
        + Tracer::outside_ns_per_span() * spans;
    m.insert("ledger.unattributed_share", share(sim_self_ns - explained));
    m.0
}

/// Metric values by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

fn write_trace(
    dir: &Path,
    workload: &str,
    seed: u64,
    traced: &[CellReport],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"cells\":[");
    for (i, cell) in traced.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"protocol\":\"{}\",\"layers\":{{",
            cell.protocol
        ));
        let trace = cell.trace.expect("traced repeat carries totals");
        for layer in Layer::ALL {
            let t = trace.layer(layer);
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"ns\":{},\"app_ns\":{}}},",
                layer.name(),
                t.calls,
                t.ns,
                t.app_ns
            ));
        }
        out.push_str(&format!(
            "\"kv.store\":{{\"calls\":{},\"ns\":{}}}}},\"host_ns\":{},\"spans\":{}}}",
            trace.app_calls,
            trace.app_ns,
            (cell.host_s * 1e9) as u64,
            spans_json(&cell.spans)
        ));
    }
    out.push_str("\n]}\n");
    std::fs::write(dir.join(format!("{workload}.trace.json")), out)
}

/// Runs `workload` once: [`REPEATS`] repeats of every cell on fresh state.
///
/// `seconds` is how long the run measures for; the simulated schedule is
/// `seconds / RUN_SECONDS` of the calibrated one, so the same `seconds`
/// and `seed` always simulate exactly the same events.
///
/// # Errors
/// Returns an error for an unknown workload name, or when a traced run
/// cannot write its trace file.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_dir: &Path,
) -> Result<RunReport, String> {
    let scale = seconds / f64::from(RUN_SECONDS);
    let workload =
        workloads::build(name, seed, scale).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let repeats: Vec<Vec<CellReport>> = (0..REPEATS)
        .map(|r| {
            workload
                .cells
                .iter()
                .map(|cell| run_cell(cell, traced && r != REFERENCE))
                .collect()
        })
        .collect();

    let mut failures = Vec::new();
    // A 99.9th percentile needs ten samples beyond it. Shorter smoke runs
    // print their tails all the same, without the claim.
    let samples = repeats[0][0].sim.successes;
    if scale >= 1.0 && samples < P999_SAMPLES {
        failures.push(format!(
            "{samples} successes: too few for a 99.9th percentile"
        ));
    }
    for (r, cells) in repeats.iter().enumerate() {
        for cell in cells {
            for failure in &cell.failures {
                failures.push(format!("repeat {r} {}: {failure}", cell.protocol));
            }
            let c = &cell.counts;
            let disk_used = (c.wal_records, c.wal_bytes, c.fsyncs) != (0, 0, 0);
            if disk_used != workload.durable() {
                failures.push(format!(
                    "repeat {r} {}: disk used = {disk_used}",
                    cell.protocol
                ));
            }
        }
        let same = cells
            .iter()
            .zip(&repeats[0])
            .all(|(a, b)| a.sim == b.sim && a.counts == b.counts);
        if !same {
            failures.push(format!("repeat {r} simulated differently from repeat 0"));
        }
    }

    let values = if traced {
        let fastest = (0..REPEATS)
            .filter(|&r| r != REFERENCE)
            .min_by(|&a, &b| {
                sum(&repeats[a], |c| c.host_s).total_cmp(&sum(&repeats[b], |c| c.host_s))
            })
            .expect("a traced run has traced repeats");
        write_trace(trace_dir, name, seed, &repeats[fastest])
            .map_err(|e| format!("cannot write trace to {}: {e}", trace_dir.display()))?;
        per_layer(
            &workload,
            &repeats[REFERENCE],
            &repeats[fastest],
            sum(&repeats[REFERENCE], |c| c.build_s),
            sum(&repeats[REFERENCE], |c| c.warmup_s),
        )
    } else {
        end_to_end(&repeats)
    };
    let contract: &[Metric] = if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics = contract
        .iter()
        .map(|metric| {
            let value = *values
                .get(metric.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
            (metric, value)
        })
        .collect();
    Ok(RunReport {
        correct: failures.is_empty(),
        latency_samples: samples,
        repeat_host_s: repeats.iter().map(|r| sum(r, |c| c.host_s)).collect(),
        attempted: repeats[0].iter().map(|c| c.sim.attempted).sum(),
        failures,
        metrics,
    })
}

impl RunReport {
    /// The contract's result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}
