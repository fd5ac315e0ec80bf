//! Event types and the global event queue.
//!
//! The queue is a thin wrapper over the hierarchical
//! [`TimingWheel`](crate::wheel::TimingWheel); see that module for the
//! scheduling algorithm and the `(time, seq)` ordering contract.
//!
//! Message bodies never travel through the queue: entries carry 8-byte
//! [`MsgId`] handles into the simulator's [`MessageArena`]
//! (see [`arena`](crate::arena)), keeping the wheel's memmove traffic —
//! heap sifts, slot cascades — independent of the protocol's message size.

use crate::arena::{MessageArena, MsgId};
use crate::node::{NodeId, TimerId};
use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// An in-flight message body handle.
///
/// Unicast sends own their arena slot exclusively. Multicast sends share
/// one refcounted slot across all recipients and materialize a
/// per-recipient value only at delivery time — the final delivery moves
/// the body out without cloning, and copies destined for crashed nodes are
/// never cloned at all. The stored clone function is captured where the
/// `M: Clone` bound is available (multicast), keeping the rest of the
/// simulator free of that bound.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payload<M> {
    /// Exclusively owned arena slot (unicast).
    Unique(MsgId),
    /// Slot shared across the deliveries of one multicast.
    Shared {
        /// Handle of the shared body.
        id: MsgId,
        /// Clones the body for all but the last delivery.
        clone: fn(&M) -> M,
    },
}

impl<M> Payload<M> {
    /// Materializes the message for delivery, cloning only when other
    /// deliveries of the same multicast are still pending.
    pub fn into_message(self, arena: &mut MessageArena<M>) -> M {
        match self {
            Payload::Unique(id) => arena
                .materialize(id, |_| unreachable!("unique payloads never clone"))
                .expect("unique payload taken once"),
            Payload::Shared { id, clone } => {
                arena.materialize(id, clone).expect("live shared payload")
            }
        }
    }

    /// Drops this delivery without materializing it (crashed recipient,
    /// wiped backlog), releasing the arena reference so the slot recycles.
    pub fn release(self, arena: &mut MessageArena<M>) {
        let (Payload::Unique(id) | Payload::Shared { id, .. }) = self;
        arena.release(id);
    }
}

/// What a scheduled event does when it fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver the body behind `msg` from `from` to `to`.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Payload<M>,
    },
    /// Fire timer `id` at `node`. The payload lives in the simulator's
    /// timer table until the timer is processed, so cancellation frees it
    /// immediately and this entry becomes a stale no-op. `epoch` is the
    /// node incarnation that armed the timer: a wipe bumps the node's
    /// epoch, so timers armed by a previous incarnation drop on fire
    /// instead of reaching the rebuilt node.
    Timer {
        node: NodeId,
        id: TimerId,
        epoch: u64,
    },
    /// Crash `node`.
    Crash { node: NodeId },
    /// Bring a crashed `node` back.
    Recover { node: NodeId },
}

/// A scheduled event. Ordering is `(time, seq)`: seq is a global
/// monotonically increasing tiebreaker that preserves scheduling order among
/// simultaneous events, making runs fully deterministic.
#[derive(Debug)]
pub(crate) struct Event<M> {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind<M>,
}

/// The global event queue, ordered by `(time, seq)`.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    wheel: TimingWheel<EventKind<M>>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
        }
    }
}

impl<M> EventQueue<M> {
    /// Pushes an event.
    pub fn push(&mut self, ev: Event<M>) {
        self.wheel.push(ev.time.as_nanos(), ev.seq, ev.kind);
    }

    /// Reserves capacity for at least `additional` further events, so that
    /// steady-state simulations do not pay repeated reallocations.
    pub fn reserve(&mut self, additional: usize) {
        self.wheel.reserve(additional);
    }

    /// The `(time, seq)` of the earliest pending event if it fires at or
    /// before `limit`, without dequeuing it. `None` when the queue is
    /// empty or its earliest event is past the limit.
    pub fn next_event_before(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        let (time, seq) = self.wheel.peek_before(limit.as_nanos())?;
        Some((SimTime::from_nanos(time), seq))
    }

    /// Pops the earliest event if it fires at or before `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Event<M>> {
        let (time, seq, kind) = self.wheel.pop_before(limit.as_nanos())?;
        Some(Event {
            time: SimTime::from_nanos(time),
            seq,
            kind,
        })
    }

    /// Number of pending queue entries.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// The largest number of entries that were ever pending at once.
    pub fn high_water(&self) -> usize {
        self.wheel.high_water()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ns: u64, seq: u64) -> Event<()> {
        Event {
            time: SimTime::from_nanos(time_ns),
            seq,
            kind: EventKind::Crash { node: NodeId(0) },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(ev(30, 0));
        q.push(ev(10, 1));
        q.push(ev(20, 2));
        let limit = SimTime::from_nanos(100);
        assert_eq!(q.pop_before(limit).unwrap().time, SimTime::from_nanos(10));
        assert_eq!(q.pop_before(limit).unwrap().time, SimTime::from_nanos(20));
        assert_eq!(q.pop_before(limit).unwrap().time, SimTime::from_nanos(30));
        assert!(q.pop_before(limit).is_none());
    }

    #[test]
    fn seq_breaks_ties_fifo() {
        let mut q = EventQueue::default();
        q.push(ev(10, 5));
        q.push(ev(10, 2));
        q.push(ev(10, 9));
        let limit = SimTime::from_nanos(10);
        assert_eq!(q.pop_before(limit).unwrap().seq, 2);
        assert_eq!(q.pop_before(limit).unwrap().seq, 5);
        assert_eq!(q.pop_before(limit).unwrap().seq, 9);
    }

    #[test]
    fn pop_before_respects_limit() {
        let mut q = EventQueue::default();
        q.push(ev(50, 0));
        assert!(q.pop_before(SimTime::from_nanos(49)).is_none());
        assert_eq!(q.len(), 1);
        assert!(q.pop_before(SimTime::from_nanos(50)).is_some());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn heavy_same_timestamp_load_stays_fifo() {
        // 10k events at the same virtual time, pushed in a scrambled seq
        // order, must still pop in strict seq order — the property the
        // per-node FIFO backlog and hence determinism rest on.
        const N: u64 = 10_000;
        let mut q = EventQueue::default();
        q.reserve(N as usize);
        // Deterministic scramble: visit seqs by a coprime stride.
        let stride = 7919; // prime, coprime with N
        for i in 0..N {
            q.push(ev(42, (i * stride) % N));
        }
        assert_eq!(q.len(), N as usize);
        let limit = SimTime::from_nanos(42);
        for expect in 0..N {
            assert_eq!(q.pop_before(limit).unwrap().seq, expect);
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.high_water(), N as usize);
    }

    #[test]
    fn interleaved_push_pop_preserves_order_under_ties() {
        // Pops interleaved with pushes at the same timestamp: every pop must
        // return the smallest pending seq at that point.
        let mut q = EventQueue::default();
        let limit = SimTime::from_nanos(5);
        q.push(ev(5, 10));
        q.push(ev(5, 4));
        assert_eq!(q.pop_before(limit).unwrap().seq, 4);
        q.push(ev(5, 2));
        q.push(ev(5, 7));
        assert_eq!(q.pop_before(limit).unwrap().seq, 2);
        assert_eq!(q.pop_before(limit).unwrap().seq, 7);
        q.push(ev(5, 1));
        assert_eq!(q.pop_before(limit).unwrap().seq, 1);
        assert_eq!(q.pop_before(limit).unwrap().seq, 10);
        assert!(q.pop_before(limit).is_none());
    }

    #[test]
    fn mixed_times_and_ties_pop_by_time_then_seq() {
        let mut q = EventQueue::default();
        for (t, s) in [(20, 3), (10, 5), (20, 1), (10, 2), (30, 0)] {
            q.push(ev(t, s));
        }
        let limit = SimTime::from_nanos(100);
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop_before(limit))
            .map(|e| (e.time.as_nanos(), e.seq))
            .collect();
        assert_eq!(order, vec![(10, 2), (10, 5), (20, 1), (20, 3), (30, 0)]);
    }

    #[test]
    fn payload_shared_clones_only_while_contended() {
        #[derive(Debug, PartialEq, Clone)]
        struct Body(u32);
        let mut arena: MessageArena<Body> = MessageArena::new();
        let id = arena.insert(Body(7), 2);
        let first = Payload::Shared {
            id,
            clone: Body::clone,
        };
        let last = Payload::Shared {
            id,
            clone: |_: &Body| panic!("last delivery must move, not clone"),
        };
        // While both copies are pending, materializing clones...
        assert_eq!(first.into_message(&mut arena), Body(7));
        // ...and the final copy moves the body out of the arena.
        assert_eq!(last.into_message(&mut arena), Body(7));
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn payload_release_frees_the_slot() {
        let mut arena: MessageArena<u8> = MessageArena::new();
        let id = arena.insert(1, 1);
        let p: Payload<u8> = Payload::Unique(id);
        p.release(&mut arena);
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn event_entries_stay_small() {
        // The point of the arena: protocol enums of any size ride the
        // wheel as fixed small entries.
        #[allow(dead_code)]
        struct Huge([u8; 256]);
        assert!(std::mem::size_of::<EventKind<Huge>>() <= 40);
    }
}
