//! Property-based tests (proptest) over the core data structures and
//! invariants of the suite.

use std::time::Duration;

use idem_common::{
    ClientId, OpNumber, QuorumSet, QuorumTracker, ReplicaId, RequestId, SeqNumber, SeqWindow,
};
use idem_core::acceptance::{AcceptancePolicy, AcceptanceTest, AqmConfig};
use idem_kv::{Command, DecodeCommandError, KvStore, Zipfian};
use idem_metrics::{Histogram, Welford};
use idem_simnet::SimTime;
use proptest::prelude::*;

proptest! {
    // ---------------------------------------------------------- histogram

    /// Histogram percentiles stay within the documented relative error of
    /// exact order statistics.
    #[test]
    fn histogram_percentile_error_bounded(mut values in prop::collection::vec(1u64..100_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = values[rank.min(values.len() - 1)] as f64;
            let approx = h.percentile(p) as f64;
            prop_assert!((approx - exact).abs() / exact < 0.04,
                "p{}: exact {} approx {}", p, exact, approx);
        }
    }

    /// Histogram mean is exact; merge equals bulk recording.
    #[test]
    fn histogram_merge_equals_bulk(a in prop::collection::vec(0u64..1_000_000, 0..100),
                                   b in prop::collection::vec(0u64..1_000_000, 0..100)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in &a { ha.record(v); hall.record(v); }
        for &v in &b { hb.record(v); hall.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert!((ha.mean() - hall.mean()).abs() < 1e-6);
        prop_assert_eq!(ha.max(), hall.max());
        for p in [10.0, 50.0, 90.0] {
            prop_assert_eq!(ha.percentile(p), hall.percentile(p));
        }
    }

    /// Welford matches the two-pass computation.
    #[test]
    fn welford_matches_two_pass(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &v in &values { w.record(v); }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((w.variance() - var).abs() < 1e-5 * var.abs().max(1.0));
    }

    // ------------------------------------------------------------- window

    /// A window never reports slots outside its bounds and advance drops
    /// exactly the slots below the new low mark.
    #[test]
    fn window_advance_preserves_in_range_slots(
        size in 1u64..64,
        fills in prop::collection::vec(0u64..64, 0..64),
        advance in 0u64..128,
    ) {
        let mut w: SeqWindow<u64> = SeqWindow::new(size);
        let mut inserted = Vec::new();
        for f in fills {
            let sqn = SeqNumber(f % size);
            w.insert(sqn, f);
            inserted.push(sqn);
        }
        let dropped = w.advance_to(SeqNumber(advance));
        for (sqn, _) in &dropped {
            prop_assert!(sqn.0 < advance);
        }
        for (sqn, _) in w.iter() {
            prop_assert!(w.contains(sqn));
            prop_assert!(sqn.0 >= advance.min(w.low().0) || sqn >= w.low());
        }
        if advance > 0 {
            prop_assert!(w.low().0 == advance || w.low().0 == 0);
        }
    }

    // ------------------------------------------------------------- quorum

    /// A tracker reaches its threshold exactly once, regardless of vote
    /// order and duplication.
    #[test]
    fn quorum_tracker_triggers_once(
        threshold in 1u32..6,
        votes in prop::collection::vec(0u32..8, 1..64),
    ) {
        let mut tracker = QuorumTracker::new(threshold);
        let mut transitions = 0;
        for v in &votes {
            if tracker.record(ReplicaId(*v)) {
                transitions += 1;
            }
        }
        let distinct = {
            let mut d = votes.clone();
            d.sort_unstable();
            d.dedup();
            d.len() as u32
        };
        prop_assert_eq!(tracker.count(), distinct);
        prop_assert_eq!(tracker.reached(), distinct >= threshold);
        prop_assert_eq!(transitions, u32::from(distinct >= threshold));
    }

    /// Quorum arithmetic invariants: majority > n/2 and ambivalence ≥
    /// majority for `n = 2f + 1`.
    #[test]
    fn quorum_arithmetic(f in 0u32..8) {
        let q = QuorumSet::for_faults(f);
        prop_assert_eq!(q.n(), 2 * f + 1);
        prop_assert!(2 * q.majority() > q.n());
        prop_assert_eq!(q.ambivalence(), f + 1);
        prop_assert_eq!(q.replicas().count() as u32, q.n());
    }

    // --------------------------------------------------------- acceptance

    /// The acceptance decision is a pure function of (id, load, time,
    /// client horizon): two replicas with the same view of those agree.
    #[test]
    fn acceptance_is_replica_independent(
        client in 0u32..500,
        op in 0u64..1000,
        r_now in 0u32..60,
        now_ms in 0u64..10_000,
        max_client in 0u32..500,
    ) {
        let t1 = AcceptanceTest::new(AcceptancePolicy::ActiveQueue, 50, AqmConfig::default());
        let t2 = AcceptanceTest::new(AcceptancePolicy::ActiveQueue, 50, AqmConfig::default());
        let id = RequestId::new(ClientId(client), OpNumber(op));
        let now = SimTime::ZERO + Duration::from_millis(now_ms);
        prop_assert_eq!(
            t1.accepts(id, r_now, now, max_client),
            t2.accepts(id, r_now, now, max_client)
        );
    }

    /// Tail drop accepts iff below threshold — for any input.
    #[test]
    fn tail_drop_is_threshold_indicator(
        client in 0u32..100, op in 0u64..100, r_now in 0u32..200, threshold in 1u32..100,
    ) {
        let t = AcceptanceTest::new(AcceptancePolicy::TailDrop, threshold, AqmConfig::default());
        let id = RequestId::new(ClientId(client), OpNumber(op));
        prop_assert_eq!(t.accepts(id, r_now, SimTime::ZERO, 100), r_now < threshold);
    }

    /// At or above the threshold, AQM rejects everything; below the AQM
    /// start fraction it accepts everything.
    #[test]
    fn aqm_extremes(client in 0u32..300, op in 0u64..100, over in 0u32..50) {
        let t = AcceptanceTest::new(AcceptancePolicy::ActiveQueue, 50, AqmConfig::default());
        let id = RequestId::new(ClientId(client), OpNumber(op));
        prop_assert!(!t.accepts(id, 50 + over, SimTime::ZERO, 299));
        prop_assert!(t.accepts(id, 29u32.min(over), SimTime::ZERO, 299));
    }

    // ------------------------------------------------------------ kv & co

    /// Command encoding round-trips for arbitrary payloads.
    #[test]
    fn command_roundtrip(key in any::<u64>(), value in prop::collection::vec(any::<u8>(), 0..256)) {
        for cmd in [
            Command::Get { key },
            Command::Update { key, value: value.clone() },
            Command::Delete { key },
            Command::Scan { start: key, count: (value.len() as u32) },
        ] {
            prop_assert_eq!(Command::decode(&cmd.encode()).unwrap(), cmd);
        }
    }

    /// `Command::decode` is total and canonical: it never panics, an
    /// accepted buffer is exactly the command's own encoding, and every
    /// rejection names the right cause. Bytes after a fixed-length command
    /// are refused, by `KvStore::execute_into` too (`execute_equivalence.rs`
    /// holds the two together), so no two buffers decode to one command.
    #[test]
    fn command_decode_is_total(mut bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(Command::decode(&[]), Err(DecodeCommandError::Empty));
        for tag in 0..=u8::MAX {
            let Some(first) = bytes.first_mut() else { break };
            *first = tag;
            let fixed_len = match tag {
                0x01..=0x03 => 9,
                0x04 => 13,
                _ => 0,
            };
            match Command::decode(&bytes) {
                Ok(cmd) => prop_assert_eq!(&cmd.encode(), &bytes),
                Err(DecodeCommandError::Empty) => prop_assert!(false, "not empty: {bytes:?}"),
                Err(DecodeCommandError::UnknownTag(t)) => prop_assert!(t == tag && fixed_len == 0),
                Err(DecodeCommandError::Truncated) => prop_assert!(bytes.len() < fixed_len),
                Err(DecodeCommandError::TrailingBytes) => {
                    prop_assert!(tag != 0x02 && fixed_len > 0 && bytes.len() > fixed_len)
                }
            }
        }
    }

    /// KvStore snapshots round-trip arbitrary contents exactly.
    #[test]
    fn kv_snapshot_roundtrip(entries in prop::collection::vec((any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)), 0..50)) {
        use idem_common::StateMachine;
        let mut store = KvStore::new();
        for (k, v) in &entries {
            store.execute(&Command::Update { key: *k, value: v.clone() }.encode());
        }
        let snap = store.snapshot();
        let mut restored = KvStore::new();
        restored.restore(&snap);
        prop_assert_eq!(store.digest(), restored.digest());
        prop_assert_eq!(store.len(), restored.len());
    }

    /// Zipfian samples always stay in range; the distribution is skewed
    /// (rank 0 at least as likely as a high rank).
    #[test]
    fn zipfian_in_range(n in 2u64..10_000, theta in 0.01f64..0.99, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut z = Zipfian::new(n, theta);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Request-id stable hashing never collides for distinct ids in small
    /// domains (sanity: used as a PRF seed, collisions would correlate
    /// unrelated accept decisions).
    #[test]
    fn request_id_hash_injective_on_small_domain(c1 in 0u32..64, o1 in 0u64..64, c2 in 0u32..64, o2 in 0u64..64) {
        let a = RequestId::new(ClientId(c1), OpNumber(o1));
        let b = RequestId::new(ClientId(c2), OpNumber(o2));
        if a != b {
            prop_assert_ne!(a.stable_hash(), b.stable_hash());
        }
    }
}
