//! One cell, start to finish: set-up, warm-up, the measured window with its
//! faults, then the output checks.
//!
//! *Set-up* is construction plus the whole simulated warm-up interval (the
//! part the `Recorder` excludes), so it is a fixed amount of simulated
//! work. The *measured window* is the rest of the schedule. Host time is
//! read around each; every simulated number and counter is the window's
//! own (totals minus their value at the end of warm-up).

use std::time::{Duration, Instant};

use idem_harness::invariants::{check_agreement, check_durability, check_exactly_once};
use idem_harness::{Protocol, Recorder};
use idem_metrics::Histogram;
use idem_simnet::{EventStats, NodeId};

use crate::trace::{Layer, LayerTotals};
use crate::wiring::{Cluster, ClusterSpec, Idem, Paxos, Probe, Proto, Smart, OUTAGE_BIN};
use crate::workloads::{Cell, Fault, Load, SLA};

/// What the simulated clients saw in the measured window. Repeats of one
/// seed must agree on every field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Simulated length of the window.
    pub measured: Duration,
    /// Operations attempted: open loop, arrivals sampled (shed ones
    /// included); closed loop, operations that ended in the window.
    pub attempted: u64,
    /// Operations answered with a result.
    pub successes: u64,
    /// Of those, the ones answered within the SLA.
    pub within_sla: u64,
    /// Operations abandoned after proactive rejection.
    pub rejected: u64,
    /// Arrivals shed at the source (open loop).
    pub shed: u64,
    /// Retransmissions sent (open loop).
    pub retransmits: u64,
    /// Mean success latency, arrival-due to reply.
    pub lat_mean_ms: f64,
    /// Median success latency.
    pub lat_p50_ms: f64,
    /// 99th-percentile success latency.
    pub lat_p99_ms: f64,
    /// 99.9th-percentile success latency.
    pub lat_p999_ms: f64,
    /// Longest run of recorder bins without a successful reply.
    pub outage_ms: f64,
    /// Wipe until the wiped replica is within one checkpoint interval of
    /// the most advanced live replica; zero without a wipe.
    pub recovery_ms: f64,
}

impl SimOutcome {
    /// Within-SLA completions per simulated second.
    pub fn goodput_per_s(&self) -> f64 {
        self.within_sla as f64 / self.measured.as_secs_f64()
    }

    /// Share of attempted operations that did not complete within the SLA:
    /// rejected, shed, late and never answered all count.
    pub fn fail_share(&self) -> f64 {
        1.0 - self.within_sla as f64 / self.attempted as f64
    }
}

/// Work each layer did in the measured window. Repeats must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Simulator events processed.
    pub events: u64,
    /// Per-kind dispatch counts of the window; high-water marks are those
    /// of the whole run.
    pub stats: EventStats,
    /// Messages put on links.
    pub messages: u64,
    /// Bytes put on links.
    pub bytes: u64,
    /// Replica counters summed over the replicas (`max_queue`: the maximum).
    pub replicas: Probe,
    /// Records appended to all disks.
    pub wal_records: u64,
    /// Bytes of those records.
    pub wal_bytes: u64,
    /// Records covered by an fsync barrier. `PersistMode::Wal` syncs after
    /// every append, so this is also the number of fsyncs.
    pub fsyncs: u64,
}

/// Host-time attribution of a traced window.
#[derive(Debug, Clone, Copy)]
pub struct TraceTotals {
    /// Per wrapped layer, in [`Layer::ALL`] order.
    pub layers: [LayerTotals; Layer::ALL.len()],
    /// `StateMachine::execute` calls.
    pub app_calls: u64,
    /// Host nanoseconds inside them.
    pub app_ns: u64,
}

impl TraceTotals {
    /// Totals of `layer`.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }

    /// Host nanoseconds inside all wrapped handlers, children included.
    pub fn handler_ns(&self) -> u64 {
        self.layers.iter().map(|t| t.ns).sum()
    }
}

/// Everything one run of one cell produced.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Protocol label.
    pub protocol: &'static str,
    /// Host seconds constructing the cluster.
    pub build_s: f64,
    /// Host seconds simulating the warm-up interval.
    pub warmup_s: f64,
    /// Host seconds simulating the measured window.
    pub host_s: f64,
    /// What the clients saw.
    pub sim: SimOutcome,
    /// What the layers did.
    pub counts: Counts,
    /// Host-time attribution, on a traced run.
    pub trace: Option<TraceTotals>,
    /// Retained spans, on a traced run.
    pub spans: Vec<crate::trace::Span>,
    /// The newest disk records of replica 1 at the end of a traced window,
    /// for the WAL codec replay (empty unless the cell persists).
    pub wal_sample: Vec<Vec<u8>>,
    /// Output checks that failed.
    pub failures: Vec<String>,
}

/// Cumulative counters, read at the end of warm-up and of the window.
struct Snapshot {
    events: u64,
    stats: EventStats,
    messages: u64,
    bytes: u64,
    probes: Vec<Probe>,
    wal_records: u64,
    wal_bytes: u64,
    fsyncs: u64,
}

fn snapshot<P: Proto>(cluster: &Cluster<P>) -> Snapshot {
    let sim = &cluster.sim;
    let disks = (0..sim.node_count()).map(|i| sim.disk(NodeId(i as u32)));
    Snapshot {
        events: sim.events_processed(),
        stats: sim.event_stats(),
        messages: sim.traffic().total_messages(),
        bytes: sim.traffic().total_bytes(),
        probes: (0..cluster.replicas.len())
            .map(|i| cluster.probe(i))
            .collect(),
        wal_records: disks.clone().map(|d| d.len() as u64).sum(),
        wal_bytes: disks
            .clone()
            .flat_map(|d| d.records())
            .map(|r| r.len() as u64)
            .sum(),
        fsyncs: disks.map(|d| d.synced_len() as u64).sum(),
    }
}

fn counts(before: &Snapshot, after: &Snapshot) -> Counts {
    let (b, a) = (&before.stats, &after.stats);
    let mut replicas = Probe::default();
    // A wiped replica restarts its counters from zero; saturate rather
    // than wrap on the rare counter that ends below its warm-up value.
    for (pb, pa) in before.probes.iter().zip(&after.probes) {
        replicas.frontier = replicas.frontier.max(pa.frontier);
        replicas.requests_received += pa.requests_received.saturating_sub(pb.requests_received);
        replicas.rejected += pa.rejected.saturating_sub(pb.rejected);
        replicas.executed += pa.executed.saturating_sub(pb.executed);
        replicas.forwards += pa.forwards.saturating_sub(pb.forwards);
        replicas.view_changes += pa.view_changes.saturating_sub(pb.view_changes);
        replicas.checkpoints += pa.checkpoints.saturating_sub(pb.checkpoints);
        replicas.max_queue = replicas.max_queue.max(pa.max_queue);
        replicas.batches += pa.batches.saturating_sub(pb.batches);
    }
    Counts {
        events: after.events - before.events,
        stats: EventStats {
            delivers: a.delivers - b.delivers,
            timers: a.timers - b.timers,
            wakes: a.wakes - b.wakes,
            inline_wakes: a.inline_wakes - b.inline_wakes,
            crashes: a.crashes - b.crashes,
            arena_messages: a.arena_messages - b.arena_messages,
            multicast_batches: a.multicast_batches - b.multicast_batches,
            batched_deliveries: a.batched_deliveries - b.batched_deliveries,
            ..*a
        },
        messages: after.messages - before.messages,
        bytes: after.bytes - before.bytes,
        replicas,
        // A truncating wipe can shrink a disk; the window's own appends
        // are what is left above the warm-up level.
        wal_records: after.wal_records.saturating_sub(before.wal_records),
        wal_bytes: after.wal_bytes.saturating_sub(before.wal_bytes),
        fsyncs: after.fsyncs.saturating_sub(before.fsyncs),
    }
}

/// Sub-buckets per power of two in `idem_metrics::Histogram` (its
/// documented 1.6 % quantization): a bucket whose low edge is `v >= 64`
/// is `2^(floor(log2 v) - 6)` wide.
const HISTOGRAM_SUB_BITS: u32 = 6;

/// The `p`-th percentile of `h` in nanoseconds, interpolated inside the
/// bucket it falls in. `Histogram::percentile` answers with the bucket's
/// low edge, so runs whose latencies differ by less than a bucket would
/// all print the same digits; the share of the bucket's population below
/// the requested rank locates the percentile within the bucket.
pub fn percentile_ns(h: &Histogram, p: f64) -> f64 {
    let edge = h.percentile(p);
    // The percentile ranks at which the answer enters and leaves `edge`.
    let boundary = |inside: &dyn Fn(u64) -> bool, mut lo: f64, mut hi: f64| {
        for _ in 0..64 {
            let mid = (lo + hi) / 2.0;
            if inside(h.percentile(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };
    let enters = boundary(&|v| v >= edge, 0.0, p);
    let leaves = boundary(&|v| v > edge, p, 100.0);
    let width = match edge.checked_ilog2() {
        Some(log) if log >= HISTOGRAM_SUB_BITS => (1u64 << (log - HISTOGRAM_SUB_BITS)) as f64,
        _ => 1.0,
    };
    let share = if leaves > enters {
        (p - enters) / (leaves - enters)
    } else {
        0.0
    };
    (edge as f64 + width * share).min(h.max() as f64)
}

/// Longest run of consecutive empty reply bins among the window's bins.
fn longest_outage(recorder: &Recorder, window: Duration) -> Duration {
    let bins = (window.as_nanos() / OUTAGE_BIN.as_nanos()) as usize;
    let (mut longest, mut run) = (0u32, 0u32);
    for i in 0..bins {
        if recorder.reply_series().bin(i).count == 0 {
            run += 1;
            longest = longest.max(run);
        } else {
            run = 0;
        }
    }
    OUTAGE_BIN * longest
}

/// Disk records kept for the WAL codec replay: several checkpoint intervals.
const WAL_SAMPLE: usize = 4096;

/// How long a wiped replica may take to catch up before the cell fails.
const RECOVERY_LIMIT: Duration = Duration::from_secs(5);

/// How long the load may take to drain after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Indexes of the replicas that are up.
fn live<P: Proto>(cluster: &Cluster<P>) -> impl Iterator<Item = usize> + '_ {
    (0..cluster.replicas.len()).filter(|&i| !cluster.sim.is_crashed(cluster.replicas[i]))
}

/// Runs the simulation until `index` is within one checkpoint interval of
/// the most advanced live replica, in 1 ms steps; returns the simulated
/// time that took, or `None` past [`RECOVERY_LIMIT`].
fn await_recovery<P: Proto>(cluster: &mut Cluster<P>, proto: &P, index: usize) -> Option<Duration> {
    let step = Duration::from_millis(1);
    let mut waited = Duration::ZERO;
    loop {
        let lead = live(cluster)
            .filter(|&i| i != index)
            .map(|i| cluster.probe(i).frontier)
            .max()
            .unwrap_or(0);
        if cluster.probe(index).frontier + proto.checkpoint_interval() >= lead {
            return Some(waited);
        }
        if waited >= RECOVERY_LIMIT {
            return None;
        }
        cluster.sim.run_for(step);
        waited += step;
    }
}

/// Stops the load and runs until the live replicas' frontiers agree and
/// stop moving, so their states can be compared.
fn drain<P: Proto>(cluster: &mut Cluster<P>) -> bool {
    cluster.stop_load();
    let step = Duration::from_millis(100);
    let mut waited = Duration::ZERO;
    let mut last = None;
    while waited < DRAIN_LIMIT {
        cluster.sim.run_for(step);
        waited += step;
        let frontiers: Vec<u64> = live(cluster).map(|i| cluster.probe(i).frontier).collect();
        let settled = frontiers.windows(2).all(|w| w[0] == w[1]);
        if settled && last.as_ref() == Some(&frontiers) {
            return true;
        }
        last = Some(frontiers);
    }
    false
}

fn run_proto<P: Proto>(proto: &P, label: &'static str, cell: &Cell, traced: bool) -> CellReport {
    let (warmup, window) = (cell.warmup(), cell.window());
    let spec = ClusterSpec {
        proto,
        seed: cell.seed,
        warmup,
        total: warmup + window,
        durability: cell.durability,
        traced,
    };

    let t_start = Instant::now();
    let mut cluster = match &cell.load {
        Load::Closed {
            clients, workload, ..
        } => Cluster::closed(&spec, *clients, *workload, SLA),
        Load::Open(scenario) => Cluster::open(&spec, scenario),
    };
    let t_built = Instant::now();
    cluster.sim.run_for(warmup);
    let t_warm = Instant::now();

    let before = snapshot(&cluster);
    if let Some(tracer) = &cluster.tracer {
        tracer.reset();
    }
    let mut failures = Vec::new();
    let mut pre_wipe = Vec::new();
    let mut recovery = Duration::ZERO;
    let mut elapsed = Duration::ZERO;
    let t_window = Instant::now();
    for &(at, fault) in &cell.faults {
        cluster.sim.run_for(at.saturating_sub(elapsed));
        elapsed = elapsed.max(at);
        match fault {
            Fault::Crash(index) => cluster.sim.crash_now(cluster.replicas[index]),
            Fault::Wipe(index) => {
                pre_wipe.push((index, P::exec_log(cluster.replica(index)).to_vec()));
                cluster.sim.wipe_now(cluster.replicas[index], true);
                match await_recovery(&mut cluster, proto, index) {
                    Some(waited) => {
                        recovery = waited;
                        elapsed += waited;
                    }
                    None => {
                        failures.push(format!("replica {index} did not recover from its wipe"));
                        elapsed += RECOVERY_LIMIT;
                    }
                }
            }
        }
    }
    cluster.sim.run_for(window.saturating_sub(elapsed));
    let host = t_window.elapsed();

    let after = snapshot(&cluster);
    let trace = cluster.tracer.as_ref().map(|tracer| TraceTotals {
        layers: Layer::ALL.map(|layer| tracer.totals(layer)),
        app_calls: tracer.app_clock().calls(),
        app_ns: tracer.app_clock().ns(),
    });
    let spans = cluster
        .tracer
        .as_ref()
        .map(|tracer| tracer.take_spans())
        .unwrap_or_default();
    let wal_sample = if traced {
        let records = cluster.sim.disk(cluster.replicas[1]).records();
        records[records.len().saturating_sub(WAL_SAMPLE)..].to_vec()
    } else {
        Vec::new()
    };

    let (outage, order_violations) = cluster
        .recorder
        .with(|r| (longest_outage(r, window), r.order_violations()));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // Both loops report every outcome to the recorder, so one histogram
    // serves the latency numbers of either.
    let (successes, mean_ms, quantiles) = cluster.recorder.with(|r| {
        let h = r.reply_latency();
        let q = [50.0, 99.0, 99.9].map(|p| percentile_ns(h, p) / 1e6);
        (r.successes(), h.mean() / 1e6, q)
    });
    let outcome = |attempted, within_sla, rejected, shed, retransmits| SimOutcome {
        measured: window,
        attempted,
        successes,
        within_sla,
        rejected,
        shed,
        retransmits,
        lat_mean_ms: mean_ms,
        lat_p50_ms: quantiles[0],
        lat_p99_ms: quantiles[1],
        lat_p999_ms: quantiles[2],
        outage_ms: ms(outage),
        recovery_ms: ms(recovery),
    };
    let sim = match cluster.source() {
        Some(source) => {
            let result = source.result(label);
            if let Some(err) = &result.conservation {
                failures.push(format!("load books do not balance: {err}"));
            }
            let t = &result.totals;
            if t.completed != successes {
                failures.push(format!(
                    "source completed {} operations, recorder saw {successes}",
                    t.completed
                ));
            }
            outcome(t.offered, t.within_sla, t.rejected, t.shed, t.retransmits)
        }
        None => {
            let rejected = cluster.recorder.with(Recorder::rejections);
            let within_sla = cluster.closed_within_sla().unwrap_or(0);
            outcome(successes + rejected, within_sla, rejected, 0, 0)
        }
    };

    if order_violations != 0 {
        failures.push(format!("{order_violations} session-order violations"));
    }
    if sim.within_sla == 0 {
        failures.push("goodput is zero".into());
    }
    if !drain(&mut cluster) {
        failures.push("replicas did not settle after the load stopped".into());
    }
    if let Some(source) = cluster.source() {
        if let Some(err) = source.conservation_error() {
            failures.push(format!("load books do not balance after the drain: {err}"));
        }
    }
    let digests: Vec<u64> = live(&cluster).map(|i| cluster.app_digest(i)).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!("live replicas disagree on state: {digests:x?}"));
    }
    if cell.durability.exec_log {
        let logs: Vec<_> = (0..cluster.replicas.len())
            .map(|i| P::exec_log(cluster.replica(i)).to_vec())
            .collect();
        let mut violations = check_agreement(&logs);
        violations.extend(check_exactly_once(&logs));
        for (index, pre) in &pre_wipe {
            violations.extend(check_durability(*index, pre, &logs[*index]));
        }
        failures.extend(violations.iter().map(ToString::to_string));
    }

    CellReport {
        protocol: label,
        build_s: (t_built - t_start).as_secs_f64(),
        warmup_s: (t_warm - t_built).as_secs_f64(),
        host_s: host.as_secs_f64(),
        sim,
        counts: counts(&before, &after),
        trace,
        spans,
        wal_sample,
        failures,
    }
}

/// Runs one cell on fresh state.
pub fn run_cell(cell: &Cell, traced: bool) -> CellReport {
    let label = cell.protocol.name();
    match cell.protocol.clone() {
        Protocol::Idem { config, client } => {
            run_proto(&Idem { config, client }, label, cell, traced)
        }
        Protocol::Paxos { config, client } => {
            run_proto(&Paxos { config, client }, label, cell, traced)
        }
        Protocol::Smart { config, client } => {
            run_proto(&Smart { config, client }, label, cell, traced)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles_track_exact_ones() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (0..100_000u64).map(|i| 700_000 + i * 13).collect();
        for &v in &values {
            h.record(v);
        }
        for p in [50.0, 99.0, 99.9] {
            let exact = values[(p / 100.0 * values.len() as f64) as usize - 1] as f64;
            let estimate = percentile_ns(&h, p);
            assert!(
                (estimate - exact).abs() / exact < 1e-3,
                "p{p}: {estimate} vs {exact}"
            );
            // The raw answer is a bucket edge, up to 1.6 % below.
            assert!(h.percentile(p) as f64 <= estimate);
        }
    }
}
