//! The acceptance test: IDEM's local, per-replica admission decision
//! (paper Section 5.1).
//!
//! The test does not need to be deterministic, but the default
//! active-queue-management variant deliberately *correlates* decisions
//! across replicas: the random draw for a request is produced by a
//! pseudo-random function seeded with the request id
//! ([`RequestId::stable_hash`]), so all replicas draw the same number:
//! replicas at the same `r_now` reach the same verdict, and replicas at
//! different loads disagree only on the ids whose draw falls between their
//! two drop probabilities. The paper shows (Section 7.7) that this markedly
//! stabilizes behaviour when only `f + 1` replicas remain.

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
    /// early drop for everyone else, ramping linearly from 60 % of the
    /// threshold to the threshold itself — IDEM's default.
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
/// assert!(test.accepts(id, 49, SimTime::ZERO, 1));
/// assert!(!test.accepts(id, 50, SimTime::ZERO, 1));
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
    /// active requests at this replica and `max_client` the highest client
    /// id observed so far (used to derive the number of prioritization
    /// groups).
    ///
    /// Returns `true` to accept, `false` to reject.
    pub fn accepts(&self, id: RequestId, r_now: u32, now: SimTime, max_client: u32) -> bool {
        match self.policy {
            AcceptancePolicy::AlwaysAccept => true,
            AcceptancePolicy::TailDrop => r_now < self.threshold,
            AcceptancePolicy::ActiveQueue => {
                if r_now >= self.threshold {
                    return false;
                }
                let start = f64::from(self.threshold) * AQM_START_FRACTION;
                if r_now < start as u32 {
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
                // that ramps linearly from 0 at the start fraction to 1 at
                // the threshold, where the hard cap takes over, drawn from
                // a PRF keyed by the request id so all replicas draw the
                // same number.
                let full = f64::from(self.threshold);
                let p = ((f64::from(r_now) - start) / (full - start)).clamp(0.0, 1.0);
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

    /// The test at time zero.
    fn accepts(t: &AcceptanceTest, id: RequestId, r_now: u32, max_client: u32) -> bool {
        t.accepts(id, r_now, SimTime::ZERO, max_client)
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
        // The drop probability ramps linearly from 0 at the AQM start
        // fraction (60 % of RT) to 1 at RT.
        let t = aqm_test(50);
        // Clients 50..100 are group 1 (not prioritized at time 0).
        let count_accepted = |r_now: u32| {
            (0..1000u64)
                .filter(|&op| accepts(&t, id(60, op), r_now, 149))
                .count()
        };
        assert_eq!(count_accepted(30), 1000, "no early drop at the ramp start");
        let mid_ramp = count_accepted(40); // p = 1/2
        assert!(
            (400..=600).contains(&mid_ramp),
            "accept rate mid-ramp was {mid_ramp}/1000"
        );
        let near_cap = count_accepted(49); // p = 19/20
        assert!(
            (20..=80).contains(&near_cap),
            "accept rate one below RT was {near_cap}/1000"
        );
        assert_eq!(count_accepted(50), 0, "full drop at the threshold");
    }

    #[test]
    fn aqm_ramp_meets_the_hard_cap_without_a_gap() {
        // One request below RT the non-prioritized accept share is still
        // 1 / (0.4 · RT); at RT the hard cap takes it to 0.
        for threshold in [20u32, 50, 100] {
            let t = aqm_test(threshold);
            let non_prioritized = ClientId(threshold);
            let max_client = 3 * threshold - 1;
            let accepted = |r_now: u32| {
                (0..4000u64)
                    .filter(|&op| {
                        let r = RequestId::new(non_prioritized, OpNumber(op));
                        accepts(&t, r, r_now, max_client)
                    })
                    .count()
            };
            let expected = 4000.0 / (0.4 * f64::from(threshold));
            let below = accepted(threshold - 1) as f64;
            assert!(
                (0.6 * expected..=1.4 * expected).contains(&below),
                "RT {threshold}: {below} of 4000 accepted at RT - 1, expected ≈{expected}"
            );
            assert_eq!(accepted(threshold), 0, "RT {threshold}");
        }
    }

    #[test]
    fn aqm_decision_is_identical_across_replicas() {
        // Two replicas at the same r_now must agree on every request —
        // the PRF is keyed by the request id alone.
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
    fn aqm_early_drop_begins_above_sixty_percent_of_the_threshold() {
        // RT = 100: everything passes at 59 active requests; four past 60
        // (at 64, p = 1/10) the first non-prioritized requests drop.
        let t = aqm_test(100);
        let rejected = |load: u32| {
            (0..1000u64)
                .filter(|&op| !accepts(&t, id(150, op), load, 299))
                .count()
        };
        assert_eq!(rejected(59), 0);
        assert!(
            (50..=200).contains(&rejected(64)),
            "p = 1/10 rejected {}/1000",
            rejected(64)
        );
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
