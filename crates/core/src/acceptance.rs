//! The acceptance test: IDEM's local, per-replica admission decision
//! (paper Section 5.1).
//!
//! The test does not need to be deterministic, but the default
//! active-queue-management variant deliberately *correlates* decisions
//! across replicas: the random draw for a request is produced by a
//! pseudo-random function seeded with the request id
//! ([`RequestId::stable_hash`]), so all replicas draw the same number and —
//! given similar load estimates — reach the same verdict. The paper shows
//! (Section 7.7) that this markedly stabilizes behaviour when only `f + 1`
//! replicas remain.

use std::time::Duration;

use idem_common::{ClientId, RequestId};
use idem_simnet::SimTime;

/// Fraction of the reject threshold at which the probabilistic early drop
/// of non-prioritized clients starts (paper Section 5.1: 60 %).
pub(crate) const AQM_START_FRACTION: f64 = 0.6;

/// Length of one prioritization time slice (paper Section 5.1: 2 s).
pub(crate) const AQM_SLICE: Duration = Duration::from_secs(2);

/// The admission policy a replica applies to fresh client requests.
///
/// Forwarded requests bypass the test entirely (Section 4.3: a replica
/// accepts relayed requests "regardless of the current load").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AcceptancePolicy {
    /// Accept everything — the `IDEM_noPR` baseline of the evaluation.
    AlwaysAccept,
    /// Accept while fewer than the reject threshold requests are active —
    /// plain tail drop, the `IDEM_noAQM` ablation.
    TailDrop,
    /// Tail drop for the currently prioritized client group, probabilistic
    /// early drop for everyone else, ramping from 60 % to 90 % of the
    /// threshold — IDEM's default.
    #[default]
    ActiveQueue,
}

/// The full acceptance test: a policy and its reject threshold.
///
/// # Example
/// ```
/// use idem_core::acceptance::{AcceptanceTest, AcceptancePolicy};
/// use idem_common::{ClientId, OpNumber, RequestId};
/// use idem_simnet::SimTime;
///
/// let test = AcceptanceTest::new(AcceptancePolicy::TailDrop, 50);
/// let id = RequestId::new(ClientId(0), OpNumber(1));
/// assert!(test.accepts(id, 49, 49.0, SimTime::ZERO, 1));
/// assert!(!test.accepts(id, 50, 50.0, SimTime::ZERO, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptanceTest {
    policy: AcceptancePolicy,
    threshold: u32,
}

impl AcceptanceTest {
    /// Creates a test with the given policy and reject threshold `r`.
    pub fn new(policy: AcceptancePolicy, threshold: u32) -> AcceptanceTest {
        AcceptanceTest { policy, threshold }
    }

    /// The configured reject threshold `r`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The configured policy.
    pub fn policy(&self) -> AcceptancePolicy {
        self.policy
    }

    /// The prioritization group a client belongs to: groups pack at most
    /// `r` clients each (Section 5.1).
    pub fn group_of(&self, client: ClientId) -> u32 {
        client.0 / self.threshold.max(1)
    }

    /// The group prioritized during the time slice containing `now`, given
    /// `group_count` groups. Groups take turns round-robin, so every client
    /// is prioritized regularly (the fairness argument of Theorem 6.4).
    pub fn prioritized_group(&self, now: SimTime, group_count: u32) -> u32 {
        if group_count <= 1 {
            return 0;
        }
        let slice_ns = AQM_SLICE.as_nanos() as u64;
        ((now.as_nanos() / slice_ns.max(1)) % u64::from(group_count)) as u32
    }

    /// Runs the acceptance test for request `id` given `r_now` currently
    /// active requests at this replica, a smoothed `load_estimate` of the
    /// same for the probabilistic branch, and `max_client` the highest
    /// client id observed so far (used to derive the number of
    /// prioritization groups).
    ///
    /// Replicas feed an exponentially smoothed `r_now` as the estimate:
    /// the slow-moving estimate is nearly identical across replicas, so
    /// together with the id-keyed PRF the early-drop verdicts become
    /// near-unanimous (Section 7.7's stability effect), while the
    /// instantaneous `r_now` still enforces the hard threshold.
    ///
    /// Returns `true` to accept, `false` to reject.
    pub fn accepts(
        &self,
        id: RequestId,
        r_now: u32,
        load_estimate: f64,
        now: SimTime,
        max_client: u32,
    ) -> bool {
        match self.policy {
            AcceptancePolicy::AlwaysAccept => true,
            AcceptancePolicy::TailDrop => r_now < self.threshold,
            AcceptancePolicy::ActiveQueue => {
                if r_now >= self.threshold {
                    return false;
                }
                let start = (f64::from(self.threshold) * AQM_START_FRACTION) as u32;
                if r_now < start && load_estimate < f64::from(start) {
                    return true;
                }
                let group_count = (max_client / self.threshold.max(1)) + 1;
                let prioritized = self.prioritized_group(now, group_count);
                if self.group_of(id.client) == prioritized {
                    // Prioritized clients get plain tail drop (already
                    // passed the r_now < threshold check above).
                    return true;
                }
                // Non-prioritized clients: early drop with a probability
                // that grows with load, drawn from a PRF keyed by the
                // request id so all replicas draw the same number. Two
                // refinements maximize cross-replica unanimity (the goal of
                // Section 5.1, whose stabilizing effect Section 7.7
                // demonstrates):
                //  * the probability ramps to 1.0 at 90 % of the threshold,
                //    so in sustained overload the *correlated* probabilistic
                //    branch performs the rejection and the uncorrelated
                //    hard cap is rarely reached;
                //  * the probability is quantized to coarse steps, so
                //    replicas whose load estimates differ by a few requests
                //    still compute the same p and reach the same verdict.
                let start_f = f64::from(self.threshold) * AQM_START_FRACTION;
                let full = f64::from(self.threshold) * 0.9;
                let load = load_estimate.max(f64::from(r_now));
                let raw = ((load - start_f) / (full - start_f).max(1.0)).clamp(0.0, 1.0);
                let p = (raw * 8.0).floor() / 8.0;
                let u = (id.stable_hash() >> 11) as f64 / (1u64 << 53) as f64;
                u >= p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::OpNumber;

    fn id(client: u32, op: u64) -> RequestId {
        RequestId::new(ClientId(client), OpNumber(op))
    }

    fn aqm_test(threshold: u32) -> AcceptanceTest {
        AcceptanceTest::new(AcceptancePolicy::ActiveQueue, threshold)
    }

    /// The test at an instantaneous load, estimate equal to `r_now`.
    fn accepts(t: &AcceptanceTest, id: RequestId, r_now: u32, max_client: u32) -> bool {
        t.accepts(id, r_now, f64::from(r_now), SimTime::ZERO, max_client)
    }

    #[test]
    fn always_accept_ignores_load() {
        let t = AcceptanceTest::new(AcceptancePolicy::AlwaysAccept, 1);
        assert!(accepts(&t, id(0, 0), u32::MAX, 1000));
    }

    #[test]
    fn tail_drop_binary_threshold() {
        let t = AcceptanceTest::new(AcceptancePolicy::TailDrop, 10);
        for r_now in 0..10 {
            assert!(accepts(&t, id(0, r_now as u64), r_now, 0));
        }
        assert!(!accepts(&t, id(0, 99), 10, 0));
        assert!(!accepts(&t, id(0, 99), 11, 0));
    }

    #[test]
    fn aqm_accepts_everything_below_start_fraction() {
        let t = aqm_test(50); // start at 30
        for r_now in 0..30 {
            for c in 0..200 {
                assert!(accepts(&t, id(c, 7), r_now, 199));
            }
        }
    }

    #[test]
    fn aqm_rejects_everything_at_threshold() {
        let t = aqm_test(50);
        for c in 0..200 {
            assert!(!accepts(&t, id(c, 7), 50, 199));
        }
    }

    #[test]
    fn aqm_prioritized_group_always_passes_tail_drop() {
        let t = aqm_test(50);
        // max_client 149 → 3 groups; at time 0 group 0 is prioritized.
        for c in 0..50 {
            assert!(
                accepts(&t, id(c, 3), 45, 149),
                "prioritized client {c} must be accepted below threshold"
            );
        }
    }

    #[test]
    fn aqm_non_prioritized_drop_rate_tracks_load() {
        // The drop probability ramps from 0 at the AQM start fraction
        // (60 % of RT) to 1 at 90 % of RT.
        let t = aqm_test(50);
        // Clients 50..100 are group 1 (not prioritized at time 0).
        let count_accepted = |r_now: u32| {
            (0..1000u64)
                .filter(|&op| accepts(&t, id(60, op), r_now, 149))
                .count()
        };
        let at_start = count_accepted(30); // p = 0 → everyone accepted
        let mid_ramp = count_accepted(38); // p ≈ 0.5 → ~half accepted
        let at_full = count_accepted(45); // p = 1 → everyone rejected
        assert_eq!(at_start, 1000, "no early drop at the ramp start");
        assert!(
            (350..=650).contains(&mid_ramp),
            "accept rate mid-ramp was {mid_ramp}/1000"
        );
        assert_eq!(at_full, 0, "full drop at 90% of the threshold");
    }

    #[test]
    fn aqm_decision_is_identical_across_replicas() {
        // Two replicas with the same load estimate must agree on every
        // request — the PRF is keyed by the request id alone.
        let a = aqm_test(50);
        let b = aqm_test(50);
        for c in 0..100 {
            for op in 0..50 {
                let r = id(c, op);
                assert_eq!(accepts(&a, r, 40, 99), accepts(&b, r, 40, 99));
            }
        }
    }

    #[test]
    fn prioritized_group_rotates_over_time_slices() {
        let t = aqm_test(50);
        let g0 = t.prioritized_group(SimTime::ZERO, 3);
        let g1 = t.prioritized_group(SimTime::ZERO + AQM_SLICE, 3);
        let g2 = t.prioritized_group(SimTime::ZERO + AQM_SLICE * 2, 3);
        let g3 = t.prioritized_group(SimTime::ZERO + AQM_SLICE * 3, 3);
        assert_eq!(vec![g0, g1, g2], vec![0, 1, 2]);
        assert_eq!(g3, 0, "rotation wraps around");
    }

    #[test]
    fn every_group_is_prioritized_regularly() {
        // Fairness: over one full rotation each of the 4 groups gets
        // exactly one slice.
        let t = aqm_test(10);
        let mut seen = [false; 4];
        for i in 0..4u32 {
            let g = t.prioritized_group(SimTime::ZERO + AQM_SLICE * i, 4);
            seen[g as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn group_packing_respects_threshold() {
        let t = aqm_test(50);
        assert_eq!(t.group_of(ClientId(0)), 0);
        assert_eq!(t.group_of(ClientId(49)), 0);
        assert_eq!(t.group_of(ClientId(50)), 1);
        assert_eq!(t.group_of(ClientId(149)), 2);
    }

    #[test]
    fn aqm_smoothed_estimate_alone_engages_early_drop() {
        // No request active right now, but the smoothed estimate sits at
        // 90 % of the threshold: non-prioritized clients are all dropped,
        // the prioritized group (clients 0..50 at time 0) still gets in.
        let t = aqm_test(50);
        for op in 0..200 {
            assert!(!t.accepts(id(60, op), 0, 45.0, SimTime::ZERO, 149));
            assert!(t.accepts(id(10, op), 0, 45.0, SimTime::ZERO, 149));
        }
    }

    #[test]
    fn aqm_low_estimate_cannot_lift_the_hard_threshold() {
        let t = aqm_test(50);
        for c in 0..150 {
            assert!(!t.accepts(id(c, 1), 50, 0.0, SimTime::ZERO, 149));
        }
    }

    #[test]
    fn aqm_instant_load_above_the_estimate_still_drives_early_drop() {
        // The ramp reads the higher of the two: a lagging estimate must not
        // let a burst through once r_now itself is at 90 %.
        let t = aqm_test(50);
        for op in 0..200 {
            assert!(!t.accepts(id(60, op), 45, 0.0, SimTime::ZERO, 149));
        }
    }

    #[test]
    fn aqm_estimates_within_one_eighth_step_reach_identical_verdicts() {
        // RT = 50: the ramp runs from 30 to 45 in eighths of 1.875, so
        // 37.6 and 39.3 share p = 1/2 while 39.4 is already at p = 5/8.
        let t = aqm_test(50);
        let verdicts = |estimate: f64| -> Vec<bool> {
            (0..1000u64)
                .map(|op| t.accepts(id(60, op), 0, estimate, SimTime::ZERO, 149))
                .collect()
        };
        assert_eq!(verdicts(37.6), verdicts(39.3));
        assert_ne!(verdicts(39.3), verdicts(39.4));
    }

    #[test]
    fn aqm_early_drop_begins_above_sixty_percent_of_the_threshold() {
        // RT = 100: everything passes at 59 active requests; one eighth
        // step past 60 (at 64) the first non-prioritized requests drop.
        let t = aqm_test(100);
        let rejected = |load: u32| {
            (0..1000u64)
                .filter(|&op| !accepts(&t, id(150, op), load, 299))
                .count()
        };
        assert_eq!(rejected(59), 0);
        assert!(
            (50..=200).contains(&rejected(64)),
            "p = 1/8 rejected {}/1000",
            rejected(64)
        );
    }

    #[test]
    fn tail_drop_ignores_the_load_estimate() {
        let t = AcceptanceTest::new(AcceptancePolicy::TailDrop, 10);
        assert!(t.accepts(id(0, 1), 9, 1000.0, SimTime::ZERO, 0));
        assert!(!t.accepts(id(0, 1), 10, 0.0, SimTime::ZERO, 0));
    }

    #[test]
    fn prioritized_group_changes_every_two_seconds() {
        let t = aqm_test(50);
        let at = |ms: u64| t.prioritized_group(SimTime::ZERO + Duration::from_millis(ms), 3);
        assert_eq!([at(0), at(1_999), at(2_000), at(3_999)], [0, 0, 1, 1]);
        assert_eq!([at(4_000), at(5_999), at(6_000)], [2, 2, 0]);
    }

    #[test]
    fn one_group_is_prioritized_at_every_time() {
        let t = aqm_test(50);
        for s in [0, 1, 2, 3, 7, 1_000] {
            let now = SimTime::ZERO + Duration::from_secs(s);
            assert_eq!(t.prioritized_group(now, 1), 0);
            assert_eq!(t.prioritized_group(now, 0), 0);
        }
    }

    #[test]
    fn single_group_degrades_to_tail_drop() {
        let t = aqm_test(50);
        // Only clients 0..50 exist → one group → everyone prioritized.
        for c in 0..50 {
            assert!(accepts(&t, id(c, 1), 49, 49));
        }
    }
}
