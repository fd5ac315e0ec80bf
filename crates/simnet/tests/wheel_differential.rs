//! Differential property tests for the event engine: the hierarchical
//! timing wheel is compared op-for-op against a reference binary-heap
//! scheduler, and the generation-stamped timer table against a reference
//! list model. Any divergence in `(time, seq)` pop order — including for
//! far-future timers that must cascade across wheel levels — fails the
//! test with the offending op sequence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use idem_simnet::{TimerId, TimerTable, TimingWheel};
use proptest::prelude::*;

proptest! {
    /// Randomized push/pop schedules pop identically from the wheel and
    /// from a reference min-heap. Push distances are drawn on an
    /// exponential ladder up to ~2^46 ns ahead, so entries land anywhere
    /// from the ready heap to the outermost wheel levels and have to
    /// cascade down correctly as the horizon advances.
    #[test]
    fn wheel_matches_reference_heap(ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..300)) {
        let mut wheel = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (sel, raw) in ops {
            if sel % 4 < 3 {
                let exp = (raw >> 58) % 46;
                let delta = raw % (1u64 << (exp + 1));
                let time = now + delta;
                seq += 1;
                wheel.push(time, seq, ());
                heap.push(Reverse((time, seq)));
            } else {
                // Drain everything inside a bounded window, comparing each
                // pop (and the terminating None) against the reference.
                let limit = now.saturating_add(raw % 2_000_000);
                loop {
                    let got = wheel.pop_before(limit).map(|(t, s, ())| (t, s));
                    let expect = match heap.peek() {
                        Some(&Reverse((t, s))) if t <= limit => {
                            heap.pop();
                            Some((t, s))
                        }
                        _ => None,
                    };
                    prop_assert_eq!(got, expect);
                    match got {
                        Some((t, _)) => now = t,
                        None => break,
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // The tail must agree too, in exact (time, seq) order.
        loop {
            let got = wheel.pop_before(u64::MAX).map(|(t, s, ())| (t, s));
            let expect = heap.pop().map(|Reverse(p)| p);
            prop_assert_eq!(got, expect);
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Randomized schedules of the simulator's timer protocol keep the
    /// timer table consistent with a reference model. A timer is armed;
    /// its queue entry expires (`is_live`) and the timer waits in a node
    /// backlog; the backlog drains (`consume`). A cancel may land before
    /// expiry or in the backlog window between `is_live` and `consume`.
    /// Live handles resolve to their payload exactly once, cancelled ones
    /// never, stale handles (consumed, cancelled, or recycled) are no-ops
    /// everywhere, and the live count never drifts.
    #[test]
    fn timer_table_matches_reference_model(ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..250)) {
        let mut table: TimerTable<u64> = TimerTable::new();
        // Armed timers whose queue entry has not expired yet.
        let mut armed: Vec<(TimerId, u64)> = Vec::new();
        // Expired timers waiting in a backlog: `None` once cancelled there.
        let mut backlog: Vec<(TimerId, Option<u64>)> = Vec::new();
        let mut dead: Vec<TimerId> = Vec::new();
        let mut next_payload = 0u64;
        for (sel, raw) in ops {
            match sel % 6 {
                0 | 1 => {
                    next_payload += 1;
                    armed.push((table.arm(next_payload), next_payload));
                }
                2 => {
                    if raw & 1 == 0 && !armed.is_empty() {
                        let (id, _) = armed.swap_remove(raw as usize % armed.len());
                        prop_assert!(table.cancel(id));
                        prop_assert!(!table.is_live(id), "a cancelled entry expires into nothing");
                        dead.push(id);
                    } else if !dead.is_empty() {
                        let id = dead[raw as usize % dead.len()];
                        prop_assert!(!table.cancel(id), "stale cancel must be a no-op");
                    }
                }
                3 => {
                    if !armed.is_empty() {
                        let (id, payload) = armed.swap_remove(raw as usize % armed.len());
                        prop_assert!(table.is_live(id));
                        backlog.push((id, Some(payload)));
                    }
                }
                4 => {
                    let waiting: Vec<usize> = (0..backlog.len()).filter(|&i| backlog[i].1.is_some()).collect();
                    if !waiting.is_empty() {
                        let i = waiting[raw as usize % waiting.len()];
                        prop_assert!(table.cancel(backlog[i].0));
                        backlog[i].1 = None;
                    }
                }
                _ => {
                    if !backlog.is_empty() {
                        let (id, payload) = backlog.remove(raw as usize % backlog.len());
                        prop_assert_eq!(table.consume(id), payload);
                        dead.push(id);
                    }
                }
            }
            let waiting = backlog.iter().filter(|(_, p)| p.is_some()).count();
            prop_assert_eq!(table.live(), armed.len() + waiting);
        }
        // Every dead handle stays dead, even after all the slot reuse above.
        for id in dead {
            prop_assert!(!table.is_live(id));
            prop_assert!(!table.cancel(id));
            prop_assert_eq!(table.consume(id), None);
        }
    }
}
