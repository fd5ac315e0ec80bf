//! Open-loop load-generation primitives.
//!
//! The closed-loop [`driver`](crate::driver) keeps exactly one operation in
//! flight per simulated client, so offered load is bounded by the client
//! population — overload only happens if someone simulates enough actors.
//! This module holds the protocol-agnostic pieces of the *aggregate*
//! open-loop engine instead: arrival is a rate process sampled against the
//! simulator's timing wheel, the client population is plain counters and
//! arrays, and reject-backoff state is a count-bucketed wheel rather than
//! one timer per client. A single node can then stand in for 10⁶+ logical
//! clients.
//!
//! Three pieces live here because they are pure data/arithmetic:
//!
//! * [`ArrivalSampler`] — inter-arrival gap sampling for Poisson and
//!   Markov-modulated Poisson (bursty) processes,
//! * [`LoadPhase`] — piecewise rate schedules (flash crowds, diurnal
//!   ramps, hotspot migration),
//! * [`BackoffWheel`] — aggregate reject-backoff state, and
//! * [`LoadCounters`] — the conservation accounting that proves no logical
//!   client is ever stranded.
//!
//! The protocol-facing engine (the `LoadSource` simulation node) lives in
//! the harness crate, next to the cluster builders it needs.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::{Rng, RngCore};

/// Samples an exponential gap (nanoseconds) at `rate_per_s` events/s.
///
/// A non-positive rate means "no arrivals in this regime" and yields
/// infinity; callers clamp against phase/dwell boundaries.
fn exp_gap_ns<R: RngCore + ?Sized>(rate_per_s: f64, rng: &mut R) -> f64 {
    if rate_per_s <= 0.0 {
        return f64::INFINITY;
    }
    // u ∈ [0, 1) so 1-u ∈ (0, 1]: ln is finite, gap ≥ 0.
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate_per_s * 1e9
}

/// One state of a Markov-modulated Poisson process.
///
/// While the process occupies this state, arrivals are Poisson at
/// `rate_mult ×` the base rate; the state holds for an exponentially
/// distributed dwell with the given mean, then hands over to the next
/// state (states cycle in order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppState {
    /// Multiplier applied to the base arrival rate while in this state.
    pub rate_mult: f64,
    /// Mean of the exponential dwell time in this state.
    pub mean_dwell: Duration,
}

/// The arrival process shape, independent of the absolute rate.
///
/// The absolute rate is supplied per call to
/// [`ArrivalSampler::next_gap`], so one process description serves every
/// phase of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at the base rate.
    Poisson,
    /// Markov-modulated Poisson: burst/lull states cycled with
    /// exponential dwells. Needs at least two states to be meaningful,
    /// but one is accepted (it degenerates to Poisson at `rate_mult ×`).
    Mmpp(Vec<MmppState>),
}

/// Stateful inter-arrival gap sampler for an [`ArrivalProcess`].
///
/// # Example
/// ```
/// use idem_common::load::{ArrivalProcess, ArrivalSampler};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut s = ArrivalSampler::new(ArrivalProcess::Poisson);
/// let mean_ns: f64 = (0..10_000)
///     .map(|_| s.next_gap(1_000.0, &mut rng).as_nanos() as f64)
///     .sum::<f64>()
///     / 10_000.0;
/// // 1000 arrivals/s → 1 ms mean gap, within sampling noise.
/// assert!((0.9e6..1.1e6).contains(&mean_ns));
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalSampler {
    process: ArrivalProcess,
    state: usize,
    /// Remaining dwell in the current MMPP state; negative = not yet
    /// sampled (the constructor has no RNG to draw from).
    dwell_left_ns: f64,
}

impl ArrivalSampler {
    /// Creates a sampler at the start of the process (MMPP starts in
    /// state 0).
    ///
    /// # Panics
    /// Panics if an MMPP process has no states.
    pub fn new(process: ArrivalProcess) -> ArrivalSampler {
        if let ArrivalProcess::Mmpp(states) = &process {
            assert!(!states.is_empty(), "MMPP needs at least one state");
        }
        ArrivalSampler {
            process,
            state: 0,
            dwell_left_ns: -1.0,
        }
    }

    /// The current MMPP state index (always 0 for Poisson). Exposed for
    /// the phase-occupancy statistics tests.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Samples the gap to the next arrival, given the current base rate.
    ///
    /// Rate changes (phase schedule) take effect from the next sampled
    /// gap onwards; a change arriving mid-gap is not re-integrated. At
    /// the simulated rates (tens of thousands of arrivals per second)
    /// a gap is tens of microseconds, so the error is far below the
    /// phase granularity.
    pub fn next_gap<R: RngCore + ?Sized>(&mut self, rate_per_s: f64, rng: &mut R) -> Duration {
        match &self.process {
            ArrivalProcess::Poisson => {
                Duration::from_nanos(exp_gap_ns(rate_per_s, rng).min(u64::MAX as f64) as u64)
            }
            ArrivalProcess::Mmpp(states) => {
                if rate_per_s <= 0.0 {
                    // No state can produce an arrival, so the loop below
                    // would cycle through dwells forever.
                    return Duration::from_nanos(u64::MAX);
                }
                if self.dwell_left_ns < 0.0 {
                    self.dwell_left_ns = exp_gap_ns(
                        1e9 / states[self.state].mean_dwell.as_nanos().max(1) as f64,
                        rng,
                    );
                }
                let mut elapsed = 0.0_f64;
                loop {
                    let gap = exp_gap_ns(rate_per_s * states[self.state].rate_mult, rng);
                    if gap <= self.dwell_left_ns {
                        self.dwell_left_ns -= gap;
                        let total = (elapsed + gap).min(u64::MAX as f64);
                        return Duration::from_nanos(total as u64);
                    }
                    // No arrival before the state expires: consume the
                    // rest of the dwell and switch. Memorylessness lets
                    // us resample the gap fresh in the next state.
                    elapsed += self.dwell_left_ns;
                    self.state = (self.state + 1) % states.len();
                    self.dwell_left_ns = exp_gap_ns(
                        1e9 / states[self.state].mean_dwell.as_nanos().max(1) as f64,
                        rng,
                    );
                }
            }
        }
    }
}

/// One segment of a piecewise load schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// Short name shown in phase-split reports ("spike", "ramp2", ...).
    pub label: &'static str,
    /// How long the phase lasts.
    pub duration: Duration,
    /// Multiplier applied to the scenario's base arrival rate.
    pub rate_mult: f64,
    /// Whether entering this phase rotates the workload's zipfian key
    /// popularity ranking (hotspot migration).
    pub rotate_hotspot: bool,
}

impl LoadPhase {
    /// A phase with the given label, duration and rate multiplier, no
    /// hotspot rotation.
    pub fn new(label: &'static str, duration: Duration, rate_mult: f64) -> LoadPhase {
        LoadPhase {
            label,
            duration,
            rate_mult,
            rotate_hotspot: false,
        }
    }

    /// Same, but entering the phase migrates the zipf hotspot.
    pub fn rotating(label: &'static str, duration: Duration, rate_mult: f64) -> LoadPhase {
        LoadPhase {
            rotate_hotspot: true,
            ..LoadPhase::new(label, duration, rate_mult)
        }
    }
}

/// Aggregate reject-backoff state: which logical clients are sitting out
/// a backoff, bucketed by release time.
///
/// The closed-loop driver arms one simulator timer per backing-off
/// client; at 10⁶ logical clients that is 10⁶ wheel entries for what is
/// really one piece of aggregate state. This wheel instead groups
/// releases into fixed-granularity buckets, so the owning node needs at
/// most one timer per *bucket* and releases whole cohorts at once.
/// Rounding release times *up* to a bucket boundary means a client is
/// never released early — backoff is a lower bound, as with per-client
/// timers.
///
/// # Example
/// ```
/// use idem_common::load::BackoffWheel;
/// use std::time::Duration;
///
/// let mut w = BackoffWheel::new(Duration::from_millis(5));
/// w.insert(7_000_000, 42); // release c42 at t=7ms → bucket [10ms]
/// w.insert(9_000_000, 43);
/// assert_eq!(w.len(), 2);
/// let mut out = Vec::new();
/// w.pop_due(9_999_999, &mut out);
/// assert!(out.is_empty()); // bucket releases at 10ms, not before
/// w.pop_due(10_000_000, &mut out);
/// assert_eq!(out, vec![42, 43]);
/// assert!(w.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BackoffWheel {
    granularity_ns: u64,
    /// bucket index (release time / granularity, rounded up) → clients.
    buckets: BTreeMap<u64, Vec<u32>>,
    len: usize,
}

impl BackoffWheel {
    /// Creates a wheel with the given release granularity.
    ///
    /// # Panics
    /// Panics if the granularity is zero.
    pub fn new(granularity: Duration) -> BackoffWheel {
        let granularity_ns = granularity.as_nanos() as u64;
        assert!(granularity_ns > 0, "backoff granularity must be nonzero");
        BackoffWheel {
            granularity_ns,
            buckets: BTreeMap::new(),
            len: 0,
        }
    }

    /// Parks a client until at least `release_at_ns` (nanoseconds of
    /// virtual time).
    pub fn insert(&mut self, release_at_ns: u64, client: u32) {
        let bucket = release_at_ns.div_ceil(self.granularity_ns);
        self.buckets.entry(bucket).or_default().push(client);
        self.len += 1;
    }

    /// Drains every bucket whose release boundary is at or before
    /// `now_ns` into `out` (in insertion order within a bucket, bucket
    /// order across buckets — fully deterministic).
    pub fn pop_due(&mut self, now_ns: u64, out: &mut Vec<u32>) {
        loop {
            match self.buckets.first_key_value() {
                Some((&bucket, _)) if bucket * self.granularity_ns <= now_ns => {
                    let mut clients = self.buckets.remove(&bucket).expect("bucket exists");
                    self.len -= clients.len();
                    out.append(&mut clients);
                }
                _ => return,
            }
        }
    }

    /// The earliest release boundary currently scheduled, if any.
    pub fn next_release_ns(&self) -> Option<u64> {
        self.buckets
            .first_key_value()
            .map(|(&bucket, _)| bucket * self.granularity_ns)
    }

    /// Number of clients currently parked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no client is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Aggregate accounting for an open-loop source.
///
/// Every sampled arrival ends up in exactly one of the disposition
/// buckets; [`LoadCounters::conservation_error`] checks the books so a
/// test can prove that aggregating 10⁶ clients into counters never
/// strands one (the engine calls it at end of run, the property tests
/// call it after every step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadCounters {
    /// Arrivals sampled from the arrival process (open-loop demand).
    pub offered: u64,
    /// Arrivals shed at the source because the targeted logical client
    /// was still busy or backing off (open-loop excess demand).
    pub shed: u64,
    /// Operations completed successfully.
    pub completed: u64,
    /// Operations abandoned after proactive rejection.
    pub rejected: u64,
    /// Operations currently on the wire (issued, no outcome yet).
    pub in_flight: u64,
    /// Straggler operations assigned to a client but not yet issued.
    pub pending_issue: u64,
}

impl LoadCounters {
    /// Checks the conservation invariant
    /// `offered = shed + completed + rejected + in_flight + pending_issue`;
    /// returns a human-readable discrepancy description if it fails.
    pub fn conservation_error(&self) -> Option<String> {
        let accounted =
            self.shed + self.completed + self.rejected + self.in_flight + self.pending_issue;
        if accounted == self.offered {
            None
        } else {
            Some(format!(
                "offered={} but shed({}) + completed({}) + rejected({}) + \
                 in_flight({}) + pending_issue({}) = {}",
                self.offered,
                self.shed,
                self.completed,
                self.rejected,
                self.in_flight,
                self.pending_issue,
                accounted
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_matches_rate() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = ArrivalSampler::new(ArrivalProcess::Poisson);
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| s.next_gap(10_000.0, &mut rng).as_nanos() as f64)
            .sum();
        let mean = total / n as f64;
        // 10k/s → 100 µs mean gap; 2% tolerance at 50k samples.
        assert!(
            (98_000.0..102_000.0).contains(&mean),
            "mean gap {mean} ns, expected ≈100000"
        );
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = ArrivalSampler::new(ArrivalProcess::Poisson);
        let gap = s.next_gap(0.0, &mut rng);
        assert!(
            gap > Duration::from_secs(3600),
            "gap {gap:?} should be ~forever"
        );
    }

    #[test]
    fn zero_rate_mmpp_never_arrives_and_draws_nothing() {
        let states = vec![
            MmppState {
                rate_mult: 0.5,
                mean_dwell: Duration::from_millis(1),
            },
            MmppState {
                rate_mult: 2.0,
                mean_dwell: Duration::from_millis(1),
            },
        ];
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = ArrivalSampler::new(ArrivalProcess::Mmpp(states.clone()));
        // Used to spin through state dwells without ever returning.
        assert_eq!(s.next_gap(0.0, &mut rng), Duration::from_nanos(u64::MAX));
        // The stream continues exactly as if the idle call never happened.
        let mut fresh_rng = SmallRng::seed_from_u64(1);
        let mut fresh = ArrivalSampler::new(ArrivalProcess::Mmpp(states));
        for _ in 0..100 {
            assert_eq!(
                s.next_gap(1_000.0, &mut rng),
                fresh.next_gap(1_000.0, &mut fresh_rng)
            );
        }
    }

    #[test]
    fn mmpp_cycles_states() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = ArrivalSampler::new(ArrivalProcess::Mmpp(vec![
            MmppState {
                rate_mult: 0.0,
                mean_dwell: Duration::from_millis(1),
            },
            MmppState {
                rate_mult: 10.0,
                mean_dwell: Duration::from_millis(1),
            },
        ]));
        // State 0 never produces arrivals, so every gap must be returned
        // from state 1, proving dwell expiry switches states.
        for _ in 0..100 {
            let _ = s.next_gap(1_000.0, &mut rng);
            assert_eq!(s.state(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_mmpp_rejected() {
        let _ = ArrivalSampler::new(ArrivalProcess::Mmpp(vec![]));
    }

    #[test]
    fn backoff_wheel_rounds_release_up() {
        let mut w = BackoffWheel::new(Duration::from_millis(1));
        w.insert(1, 7); // 1 ns → bucket boundary 1 ms
        let mut out = Vec::new();
        w.pop_due(999_999, &mut out);
        assert!(out.is_empty());
        w.pop_due(1_000_000, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn backoff_wheel_orders_deterministically() {
        let mut w = BackoffWheel::new(Duration::from_millis(1));
        w.insert(5_000_000, 1);
        w.insert(2_000_000, 2);
        w.insert(5_000_000, 3);
        w.insert(2_000_001, 4);
        assert_eq!(w.next_release_ns(), Some(2_000_000));
        let mut out = Vec::new();
        w.pop_due(10_000_000, &mut out);
        // Bucket 2ms first (insertion order within), then 3ms, then 5ms.
        assert_eq!(out, vec![2, 4, 1, 3]);
        assert_eq!(w.next_release_ns(), None);
    }

    #[test]
    fn backoff_exact_boundary_lands_in_own_bucket() {
        let mut w = BackoffWheel::new(Duration::from_millis(1));
        w.insert(3_000_000, 9); // exactly on a boundary: no extra delay
        assert_eq!(w.next_release_ns(), Some(3_000_000));
    }

    #[test]
    fn counters_conservation() {
        let ok = LoadCounters {
            offered: 10,
            shed: 2,
            completed: 5,
            rejected: 1,
            in_flight: 1,
            pending_issue: 1,
        };
        assert_eq!(ok.conservation_error(), None);
        let bad = LoadCounters { offered: 11, ..ok };
        let err = bad.conservation_error().expect("must detect imbalance");
        assert!(err.contains("offered=11"), "{err}");
    }
}
