//! Outcome recording shared across all clients of an experiment.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use std::collections::BTreeMap;

use idem_common::dense::DENSE_CLIENT_LIMIT;
use idem_common::driver::{ClientApp, OperationOutcome, OutcomeKind};
use idem_kv::Workload;
use idem_metrics::{Histogram, TimeSeries};
use idem_simnet::SimTime;
use rand::rngs::SmallRng;

/// Aggregated measurements of one experiment run.
///
/// Latencies are recorded in nanoseconds. Outcomes completing before the
/// warmup cutoff are counted separately and excluded from the statistics.
#[derive(Debug)]
pub struct Recorder {
    warmup: SimTime,
    reply_latency: Histogram,
    reject_latency: Histogram,
    reply_series: TimeSeries,
    reject_series: TimeSeries,
    warmup_outcomes: u64,
    successes: u64,
    rejections_ambivalent: u64,
    rejections_final: u64,
    /// The session-order oracle: per client, the lowest op number still
    /// acceptable — one past the highest recorded, zero before the first.
    /// Ids below [`DENSE_CLIENT_LIMIT`] index `next_ok`, which grows on
    /// first touch; anything above lives in the tree, so a wild id never
    /// sizes the vector.
    next_ok: Vec<u64>,
    next_ok_sparse: BTreeMap<u32, u64>,
    order_violations: u64,
}

impl Recorder {
    /// Creates a recorder excluding outcomes before `warmup` and bucketing
    /// time series at `bin_width`.
    pub fn new(warmup: Duration, bin_width: Duration) -> Recorder {
        Recorder {
            warmup: SimTime::ZERO + warmup,
            reply_latency: Histogram::new(),
            reject_latency: Histogram::new(),
            reply_series: TimeSeries::new(bin_width),
            reject_series: TimeSeries::new(bin_width),
            warmup_outcomes: 0,
            successes: 0,
            rejections_ambivalent: 0,
            rejections_final: 0,
            next_ok: Vec::new(),
            next_ok_sparse: BTreeMap::new(),
            order_violations: 0,
        }
    }

    /// Pre-sizes both time series for a run expected to last `expected`
    /// of virtual time past the warmup cutoff, so steady recording never
    /// reallocates the bin vectors. A hint only — runs may exceed it.
    #[must_use]
    pub fn with_expected_duration(mut self, expected: Duration) -> Recorder {
        self.reply_series.reserve_for(expected);
        self.reject_series.reserve_for(expected);
        self
    }

    /// Records one outcome.
    ///
    /// Doubles as a correctness oracle: a client issues operations one at a
    /// time with strictly increasing operation numbers, so outcomes must
    /// arrive in strictly increasing per-client op order with no
    /// duplicates. Violations are counted (see
    /// [`order_violations`](Self::order_violations)); every harness test
    /// asserting on a run therefore also implicitly checks exactly-once
    /// outcome delivery.
    pub fn record(&mut self, outcome: &OperationOutcome) {
        let client = outcome.id.client.0;
        let op = outcome.id.op.0;
        let next_ok = if client < DENSE_CLIENT_LIMIT {
            let idx = client as usize;
            if idx >= self.next_ok.len() {
                self.next_ok.resize(idx + 1, 0);
            }
            &mut self.next_ok[idx]
        } else {
            self.next_ok_sparse.entry(client).or_insert(0)
        };
        if op < *next_ok {
            self.order_violations += 1;
        } else {
            // Saturating: a second `u64::MAX` is the one duplicate this
            // encoding cannot flag, and no client counts that far.
            *next_ok = op.saturating_add(1);
        }
        if outcome.completed_at < self.warmup {
            self.warmup_outcomes += 1;
            return;
        }
        let latency_ns = outcome.latency.as_nanos() as u64;
        let t = outcome.completed_at.as_nanos() - self.warmup.as_nanos();
        match outcome.kind {
            OutcomeKind::Success => {
                self.successes += 1;
                self.reply_latency.record(latency_ns);
                self.reply_series.record(t, latency_ns);
            }
            OutcomeKind::RejectedAmbivalent => {
                self.rejections_ambivalent += 1;
                self.reject_latency.record(latency_ns);
                self.reject_series.record(t, latency_ns);
            }
            OutcomeKind::RejectedFinal => {
                self.rejections_final += 1;
                self.reject_latency.record(latency_ns);
                self.reject_series.record(t, latency_ns);
            }
        }
    }

    /// Number of successful operations inside the measurement window.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of rejected operations inside the measurement window.
    pub fn rejections(&self) -> u64 {
        self.rejections_ambivalent + self.rejections_final
    }

    /// Outcomes discarded as warmup.
    pub fn warmup_outcomes(&self) -> u64 {
        self.warmup_outcomes
    }

    /// Number of per-client session-order violations observed (duplicate
    /// or out-of-order outcomes). Always zero for a correct protocol.
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    /// Highest completed op number per client id, in ascending client
    /// order — the basis of per-client liveness checks (did every client
    /// make progress after a heal?). Built on demand; not for hot paths.
    pub fn last_ops(&self) -> BTreeMap<u32, u64> {
        (0u32..)
            .zip(&self.next_ok)
            .chain(self.next_ok_sparse.iter().map(|(&c, n)| (c, n)))
            .filter(|(_, &n)| n > 0)
            .map(|(c, &n)| (c, n - 1))
            .collect()
    }

    /// Reply-latency histogram (nanoseconds).
    pub fn reply_latency(&self) -> &Histogram {
        &self.reply_latency
    }

    /// Reject-latency histogram (nanoseconds).
    pub fn reject_latency(&self) -> &Histogram {
        &self.reject_latency
    }

    /// Per-bin successful operations / mean latency over time.
    pub fn reply_series(&self) -> &TimeSeries {
        &self.reply_series
    }

    /// Per-bin rejected operations / mean reject latency over time.
    pub fn reject_series(&self) -> &TimeSeries {
        &self.reject_series
    }

    /// Condenses the recorder into a [`RunMetrics`] for a measurement
    /// window of `measured` duration.
    pub fn metrics(&self, measured: Duration) -> RunMetrics {
        let secs = measured.as_secs_f64().max(f64::MIN_POSITIVE);
        // One bucket scan resolves every reply quantile; numerically
        // identical to querying `percentile` per quantile.
        let quantiles = self.reply_latency.percentiles(&[50.0, 99.0]);
        RunMetrics {
            successes: self.successes,
            rejections: self.rejections(),
            rejections_final: self.rejections_final,
            throughput: self.successes as f64 / secs,
            reject_throughput: self.rejections() as f64 / secs,
            latency_mean_ms: self.reply_latency.mean() / 1e6,
            latency_std_ms: self.reply_latency.stddev() / 1e6,
            latency_p50_ms: quantiles[0] as f64 / 1e6,
            latency_p99_ms: quantiles[1] as f64 / 1e6,
            reject_latency_mean_ms: self.reject_latency.mean() / 1e6,
            reject_latency_std_ms: self.reject_latency.stddev() / 1e6,
        }
    }
}

/// Summary numbers of one run, in the units the paper plots.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct RunMetrics {
    pub successes: u64,
    pub rejections: u64,
    pub rejections_final: u64,
    /// Successful requests per second.
    pub throughput: f64,
    /// Rejections per second.
    pub reject_throughput: f64,
    pub latency_mean_ms: f64,
    pub latency_std_ms: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub reject_latency_mean_ms: f64,
    pub reject_latency_std_ms: f64,
}

impl RunMetrics {
    /// Share of rejections among all completed operations, in percent.
    pub fn reject_share_percent(&self) -> f64 {
        let total = self.successes + self.rejections;
        if total == 0 {
            0.0
        } else {
            100.0 * self.rejections as f64 / total as f64
        }
    }
}

/// Cloneable handle to a shared [`Recorder`].
#[derive(Debug, Clone)]
pub struct RecorderHandle(Rc<RefCell<Recorder>>);

impl RecorderHandle {
    /// Wraps a recorder for sharing among client apps.
    pub fn new(recorder: Recorder) -> RecorderHandle {
        RecorderHandle(Rc::new(RefCell::new(recorder)))
    }

    /// Records one outcome.
    pub fn record(&self, outcome: &OperationOutcome) {
        self.0.borrow_mut().record(outcome);
    }

    /// Runs `f` with read access to the recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.0.borrow())
    }
}

/// A [`ClientApp`] issuing YCSB operations forever and reporting outcomes
/// to a shared recorder.
///
/// The app owns its random stream (seeded per client), so the generated
/// command sequence is independent of the protocol under test and of event
/// ordering — the same client issues the same operations whether it talks
/// to IDEM, Paxos or the SMaRt baseline, which makes cross-protocol state
/// and traffic comparisons exact.
pub struct RecordingApp {
    workload: Workload,
    recorder: RecorderHandle,
    limit: Option<u64>,
    issued: u64,
    rng: SmallRng,
}

impl RecordingApp {
    /// Creates an app issuing from `workload`, reporting to `recorder`,
    /// with an own random stream derived from `seed`.
    pub fn new(workload: Workload, recorder: RecorderHandle, seed: u64) -> RecordingApp {
        RecordingApp {
            workload,
            recorder,
            limit: None,
            issued: 0,
            rng: <SmallRng as rand::SeedableRng>::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            ),
        }
    }

    /// Returns a copy that stops after `limit` issued operations.
    #[must_use]
    pub fn with_limit(mut self, limit: u64) -> RecordingApp {
        self.limit = Some(limit);
        self
    }
}

impl ClientApp for RecordingApp {
    fn next_command(&mut self, _rng: &mut SmallRng) -> Option<Vec<u8>> {
        if self.limit.is_some_and(|l| self.issued >= l) {
            return None;
        }
        self.issued += 1;
        Some(self.workload.next_command(&mut self.rng))
    }

    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        self.recorder.record(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::{ClientId, OpNumber, RequestId};

    fn outcome(kind: OutcomeKind, at_ms: u64, latency_us: u64) -> OperationOutcome {
        OperationOutcome {
            id: RequestId::new(ClientId(0), OpNumber(1)),
            kind,
            latency: Duration::from_micros(latency_us),
            completed_at: SimTime::ZERO + Duration::from_millis(at_ms),
            result: None,
        }
    }

    #[test]
    fn warmup_outcomes_are_excluded() {
        let mut r = Recorder::new(Duration::from_millis(100), Duration::from_millis(10));
        r.record(&outcome(OutcomeKind::Success, 50, 500));
        r.record(&outcome(OutcomeKind::Success, 150, 500));
        assert_eq!(r.successes(), 1);
        assert_eq!(r.warmup_outcomes(), 1);
    }

    #[test]
    fn duplicate_or_out_of_order_outcomes_are_flagged() {
        use idem_common::{ClientId, OpNumber, RequestId};
        let mut r = Recorder::new(Duration::ZERO, Duration::from_millis(10));
        let mk = |op: u64| OperationOutcome {
            id: RequestId::new(ClientId(3), OpNumber(op)),
            kind: OutcomeKind::Success,
            latency: Duration::from_micros(1),
            completed_at: SimTime::ZERO + Duration::from_millis(op),
            result: None,
        };
        r.record(&mk(1));
        r.record(&mk(2));
        assert_eq!(r.order_violations(), 0);
        r.record(&mk(2)); // duplicate
        assert_eq!(r.order_violations(), 1);
        r.record(&mk(1)); // out of order
        assert_eq!(r.order_violations(), 2);
        r.record(&mk(3)); // back on track
        assert_eq!(r.order_violations(), 2);
    }

    proptest::proptest! {
        /// The dense oracle against the tree it replaced: same verdict on
        /// every outcome, same `last_ops` view, for clients on both sides
        /// of `DENSE_CLIENT_LIMIT` and outcomes in any order.
        #[test]
        fn session_order_oracle_matches_tree_model(
            steps in proptest::collection::vec((0usize..9, 0u64..12), 1..400)
        ) {
            use idem_common::{ClientId, OpNumber, RequestId};
            const DENSE_MAX: u32 = 5_000;
            const CLIENTS: [u32; 9] = [
                0, 1, 2, 777, DENSE_MAX,
                DENSE_CLIENT_LIMIT, DENSE_CLIENT_LIMIT + 1, u32::MAX - 1, u32::MAX,
            ];
            let mut r = Recorder::new(Duration::ZERO, Duration::from_millis(10));
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut violations = 0u64;
            for (who, op) in steps {
                let client = CLIENTS[who];
                match model.get(&client) {
                    Some(&prev) if prev >= op => violations += 1,
                    _ => {
                        model.insert(client, op);
                    }
                }
                r.record(&OperationOutcome {
                    id: RequestId::new(ClientId(client), OpNumber(op)),
                    kind: OutcomeKind::Success,
                    latency: Duration::from_micros(1),
                    completed_at: SimTime::ZERO,
                    result: None,
                });
                proptest::prop_assert_eq!(r.order_violations(), violations);
            }
            proptest::prop_assert_eq!(r.last_ops(), model);
            // Ids past the limit never size the dense vector.
            proptest::prop_assert!(r.next_ok.len() <= DENSE_MAX as usize + 1);
        }
    }

    #[test]
    fn rejects_and_replies_tracked_separately() {
        let mut r = Recorder::new(Duration::ZERO, Duration::from_millis(10));
        r.record(&outcome(OutcomeKind::Success, 1, 1000));
        r.record(&outcome(OutcomeKind::RejectedAmbivalent, 2, 2000));
        r.record(&outcome(OutcomeKind::RejectedFinal, 3, 3000));
        assert_eq!(r.successes(), 1);
        assert_eq!(r.rejections(), 2);
        assert_eq!(r.reply_latency().count(), 1);
        assert_eq!(r.reject_latency().count(), 2);
        let m = r.metrics(Duration::from_secs(1));
        assert_eq!(m.successes, 1);
        assert!((m.reject_share_percent() - 66.666).abs() < 0.1);
        assert!((m.latency_mean_ms - 1.0).abs() < 1e-9);
        assert!((m.reject_latency_mean_ms - 2.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_derived_from_measured_duration() {
        let mut r = Recorder::new(Duration::ZERO, Duration::from_millis(10));
        for i in 0..100 {
            r.record(&outcome(OutcomeKind::Success, i, 100));
        }
        let m = r.metrics(Duration::from_secs(2));
        assert_eq!(m.throughput, 50.0);
    }

    #[test]
    fn recording_app_respects_limit() {
        let handle = RecorderHandle::new(Recorder::new(Duration::ZERO, Duration::from_millis(10)));
        let workload = Workload::new(idem_kv::WorkloadSpec::update_heavy(), 0);
        let mut app = RecordingApp::new(workload, handle, 7).with_limit(3);
        let mut rng = <SmallRng as rand::SeedableRng>::seed_from_u64(1);
        assert!(app.next_command(&mut rng).is_some());
        assert!(app.next_command(&mut rng).is_some());
        assert!(app.next_command(&mut rng).is_some());
        assert!(app.next_command(&mut rng).is_none());
    }
}
