//! One measured run: protocol + load + optional crash, producing metrics.

use std::time::Duration;

use idem_kv::WorkloadSpec;
use idem_metrics::TimeBin;

use crate::cluster::{build_cluster, ClusterHandles, ClusterOptions, Protocol};
use crate::recorder::{RunMetrics, BIN_WIDTH};

/// The paper's baseline client count: 50 closed-loop clients saturate the
/// system (client-load factor 1x, Section 7.3).
pub const BASELINE_CLIENTS: u32 = 50;

/// Converts a client-load factor into a client count.
pub fn clients_for_factor(factor: f64) -> u32 {
    ((BASELINE_CLIENTS as f64 * factor).round() as u32).max(1)
}

/// A crash to inject during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Index of the replica to crash (0 is the initial leader).
    pub replica: usize,
    /// Virtual time of the crash, measured from simulation start.
    pub at: Duration,
}

/// A fully specified experiment run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The system under test.
    pub protocol: Protocol,
    /// Number of closed-loop clients.
    pub clients: u32,
    /// The workload issued by every client.
    pub workload: WorkloadSpec,
    /// Run phase excluded from metrics.
    pub warmup: Duration,
    /// Measured phase.
    pub duration: Duration,
    /// Optional crash injection.
    pub crash: Option<CrashPlan>,
    /// RNG seed.
    pub seed: u64,
}

impl Scenario {
    /// A scenario with the paper's defaults: update-heavy YCSB, 1 s warmup.
    pub fn new(protocol: Protocol, clients: u32, duration: Duration) -> Scenario {
        Scenario {
            protocol,
            clients,
            workload: WorkloadSpec::update_heavy(),
            warmup: Duration::from_secs(1),
            duration,
            crash: None,
            seed: 1,
        }
    }

    /// Returns a copy with a crash plan.
    #[must_use]
    pub fn with_crash(mut self, crash: CrashPlan) -> Scenario {
        self.crash = Some(crash);
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different workload.
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Scenario {
        self.workload = workload;
        self
    }

    fn options(&self) -> ClusterOptions {
        ClusterOptions {
            clients: self.clients,
            workload: self.workload,
            seed: self.seed,
            warmup: self.warmup,
            ops_per_client: None,
            record_exec_log: false,
            expected_duration: Some(self.warmup + self.duration),
            ..ClusterOptions::default()
        }
    }

    /// Runs the scenario to completion and collects the results.
    pub fn run(&self) -> RunResult {
        let mut cluster = build_cluster(&self.protocol, &self.options());
        let total = self.warmup + self.duration;
        match self.crash {
            Some(crash) => {
                let at = crash.at.min(total);
                cluster.run_for(at);
                cluster.crash_replica(crash.replica);
                cluster.run_for(total - at);
            }
            None => cluster.run_for(total),
        }
        self.collect(cluster)
    }

    /// Runs until `target` successful operations have completed (not
    /// counting warmup), advancing in `step`-sized chunks, up to a generous
    /// time cap. Used by the Table 1 reproduction ("issue a fixed number of
    /// 1,000,000 requests").
    pub fn run_until_successes(&self, target: u64, step: Duration) -> RunResult {
        let mut cluster = build_cluster(&self.protocol, &self.options());
        cluster.run_for(self.warmup);
        let cap = 100_000; // chunks; safety net against misconfiguration
        for _ in 0..cap {
            if cluster.recorder.with(crate::recorder::Recorder::successes) >= target {
                break;
            }
            cluster.run_for(step);
        }
        self.collect(cluster)
    }

    fn collect(&self, cluster: ClusterHandles) -> RunResult {
        let measured = cluster
            .now()
            .saturating_since(idem_simnet::SimTime::ZERO + self.warmup);
        let metrics = cluster.recorder.with(|r| r.metrics(measured));
        let reply_series = cluster.recorder.with(|r| r.reply_series().iter().collect());
        let reject_series = cluster
            .recorder
            .with(|r| r.reject_series().iter().collect());
        let idem_stats = (0..cluster.replicas.len())
            .filter_map(|i| cluster.idem_stats(i))
            .collect();
        let order_violations = cluster
            .recorder
            .with(crate::recorder::Recorder::order_violations);
        RunResult {
            name: self.protocol.name(),
            clients: self.clients,
            metrics,
            measured,
            reply_series,
            reject_series,
            client_traffic_bytes: cluster.client_traffic_bytes(),
            replica_traffic_bytes: cluster.replica_traffic_bytes(),
            total_messages: cluster.total_messages(),
            events_processed: cluster.events_processed(),
            event_stats: cluster.event_stats(),
            idem_stats,
            order_violations,
        }
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol label.
    pub name: &'static str,
    /// Client count of the run.
    pub clients: u32,
    /// Aggregate metrics over the measurement window.
    pub metrics: RunMetrics,
    /// Actual measured duration.
    pub measured: Duration,
    /// Per-bin successful operations (bin start, bin), bins [`BIN_WIDTH`]
    /// wide.
    pub reply_series: Vec<(Duration, TimeBin)>,
    /// Per-bin rejected operations (bin start, bin).
    pub reject_series: Vec<(Duration, TimeBin)>,
    /// Bytes on client↔replica links.
    pub client_traffic_bytes: u64,
    /// Bytes on replica↔replica links.
    pub replica_traffic_bytes: u64,
    /// Total message count.
    pub total_messages: u64,
    /// Simulator events processed during the run (delivery + timer
    /// dispatches) — the basis for events/sec performance reporting.
    pub events_processed: u64,
    /// Per-kind dispatch breakdown (deliver/timer/wake/crash) plus the
    /// event-queue high-water mark.
    pub event_stats: idem_simnet::EventStats,
    /// Per-replica IDEM stats (empty for baselines).
    pub idem_stats: Vec<idem_core::ReplicaStats>,
    /// Per-client session-order violations (always 0 for a correct
    /// protocol; see [`Recorder::order_violations`](crate::recorder::Recorder::order_violations)).
    pub order_violations: u64,
}

impl RunResult {
    /// Total traffic in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.client_traffic_bytes + self.replica_traffic_bytes
    }

    /// Per-bin throughput series in requests/second.
    pub fn throughput_series(&self) -> Vec<(f64, f64)> {
        let secs = BIN_WIDTH.as_secs_f64();
        self.reply_series
            .iter()
            .map(|(t, bin)| (t.as_secs_f64(), bin.count as f64 / secs))
            .collect()
    }

    /// Per-bin mean latency series in milliseconds (`None` bins skipped).
    pub fn latency_series_ms(&self) -> Vec<(f64, f64)> {
        self.reply_series
            .iter()
            .filter_map(|(t, bin)| bin.mean().map(|m| (t.as_secs_f64(), m / 1e6)))
            .collect()
    }

    /// Per-bin reject throughput series in rejections/second.
    pub fn reject_throughput_series(&self) -> Vec<(f64, f64)> {
        let secs = BIN_WIDTH.as_secs_f64();
        self.reject_series
            .iter()
            .map(|(t, bin)| (t.as_secs_f64(), bin.count as f64 / secs))
            .collect()
    }

    /// Per-bin mean reject latency series in milliseconds.
    pub fn reject_latency_series_ms(&self) -> Vec<(f64, f64)> {
        self.reject_series
            .iter()
            .filter_map(|(t, bin)| bin.mean().map(|m| (t.as_secs_f64(), m / 1e6)))
            .collect()
    }
}

/// A fully specified open-loop load run: a logical client population, an
/// arrival process, and a piecewise rate schedule, executed by the
/// aggregate engine in [`crate::load`].
///
/// Unlike [`Scenario`], load is *offered*, not implied by a client count:
/// `base_rate` arrivals/s (scaled per phase) hit the cluster whether or
/// not it keeps up. The population only bounds concurrency — an arrival
/// targeting a busy logical client is shed at the source.
#[derive(Debug, Clone)]
pub struct LoadScenario {
    /// Scenario name (appears in reports and bench output).
    pub name: &'static str,
    /// Logical client population size.
    pub population: u32,
    /// Base arrival rate in requests/second (phase multipliers scale it).
    pub base_rate: f64,
    /// Shape of the arrival process.
    pub process: idem_common::ArrivalProcess,
    /// The rate schedule; must be non-empty.
    pub phases: Vec<idem_common::LoadPhase>,
    /// Warmup prefix excluded from metrics, run at the first phase's rate.
    pub warmup: Duration,
    /// The YCSB workload arrivals draw commands from.
    pub workload: WorkloadSpec,
    /// Goodput deadline: completions slower than this don't count toward
    /// goodput (they still count as completed).
    pub sla: Duration,
    /// Post-reject backoff range (min, max) before a logical client
    /// accepts new arrivals again.
    pub backoff: (Duration, Duration),
    /// Retransmit interval for outstanding requests.
    pub retransmit_every: Duration,
    /// Fraction of the population that are stragglers (slow clients).
    pub straggler_fraction: f64,
    /// Extra issue delay range (min, max) for straggler clients.
    pub straggler_delay: (Duration, Duration),
    /// RNG seed (fully determines the run).
    pub seed: u64,
}

impl LoadScenario {
    /// A load scenario with engine defaults: Poisson arrivals,
    /// update-heavy YCSB, 100 ms SLA, 50–100 ms reject backoff, 1 s
    /// retransmit interval, no stragglers, seed 1.
    pub fn new(
        name: &'static str,
        population: u32,
        base_rate: f64,
        phases: Vec<idem_common::LoadPhase>,
    ) -> LoadScenario {
        LoadScenario {
            name,
            population,
            base_rate,
            process: idem_common::ArrivalProcess::Poisson,
            phases,
            warmup: Duration::from_secs(1),
            workload: WorkloadSpec::update_heavy(),
            sla: Duration::from_millis(100),
            backoff: idem_common::client::REJECT_BACKOFF,
            retransmit_every: Duration::from_secs(1),
            straggler_fraction: 0.0,
            straggler_delay: (Duration::from_millis(20), Duration::from_millis(50)),
            seed: 1,
        }
    }

    /// Returns a copy with a different arrival process.
    #[must_use]
    pub fn with_process(mut self, process: idem_common::ArrivalProcess) -> LoadScenario {
        self.process = process;
        self
    }

    /// Returns a copy with a different warmup.
    #[must_use]
    pub fn with_warmup(mut self, warmup: Duration) -> LoadScenario {
        self.warmup = warmup;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> LoadScenario {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different goodput deadline.
    #[must_use]
    pub fn with_sla(mut self, sla: Duration) -> LoadScenario {
        self.sla = sla;
        self
    }

    /// Returns a copy where `fraction` of the population are stragglers
    /// issuing within the given extra delay range.
    #[must_use]
    pub fn with_stragglers(mut self, fraction: f64, delay: (Duration, Duration)) -> LoadScenario {
        self.straggler_fraction = fraction;
        self.straggler_delay = delay;
        self
    }

    /// Returns a copy with a different workload.
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSpec) -> LoadScenario {
        self.workload = workload;
        self
    }

    /// Total virtual run length (warmup plus every phase).
    pub fn total_duration(&self) -> Duration {
        self.warmup + self.phases.iter().map(|p| p.duration).sum::<Duration>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_for_factor_scales_baseline() {
        assert_eq!(clients_for_factor(1.0), 50);
        assert_eq!(clients_for_factor(0.5), 25);
        assert_eq!(clients_for_factor(8.0), 400);
        assert_eq!(clients_for_factor(0.001), 1);
    }

    #[test]
    fn scenario_run_produces_consistent_result() {
        let scenario = Scenario::new(Protocol::idem(), 4, Duration::from_secs(1));
        let result = scenario.run();
        assert!(result.metrics.successes > 0);
        assert!(result.metrics.throughput > 0.0);
        assert!(result.total_traffic_bytes() > 0);
        let series_total: u64 = result.reply_series.iter().map(|(_, b)| b.count).sum();
        assert_eq!(series_total, result.metrics.successes);
    }

    #[test]
    fn crash_plan_interrupts_service() {
        let base = Scenario::new(Protocol::idem(), 4, Duration::from_secs(3));
        let quiet = base.clone().run();
        let crashed = base
            .with_crash(CrashPlan {
                replica: 0,
                at: Duration::from_secs(2),
            })
            .run();
        // Losing the leader for ~1.5 s must cost visible throughput.
        assert!(crashed.metrics.successes < quiet.metrics.successes * 9 / 10);
    }
}
