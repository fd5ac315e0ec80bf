//! Slab storage for in-flight message bodies.
//!
//! The arena follows the generation-stamped slab idiom of
//! [`TimerTable`](crate::wheel::TimerTable): slots are recycled through a
//! free list, handles pack `(generation, slot)`, and a stale handle (from a
//! previous occupant of the slot) never matches the current generation, so
//! it degrades into a no-op instead of corrupting a live entry. After a
//! short warm-up the steady state allocates nothing: every insert reuses a
//! slot.
//!
//! # Why bodies live out-of-line
//!
//! A queue entry used to carry the message body inline — 100+ bytes for the
//! protocol enums — and every heap sift, wheel cascade, and backlog move
//! paid that size in memmove traffic. With bodies parked here, a queue
//! entry carries a single 8-byte [`MsgId`] (plus a clone fn for multicast)
//! and the body is written exactly once and read exactly once per delivery.
//! Multicast keeps one shared body for the whole recipient set: the slot
//! holds a reference count, all but the last materialization clone, and the
//! last moves the body out — the same copies (and non-copies) as the
//! `Arc`-based scheme it replaces, minus the allocator round-trip per
//! multicast.

/// Handle to a message body stored in a [`MessageArena`], packing
/// `(generation << 32) | slot` like a
/// [`TimerId`](crate::node::TimerId).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgId(u64);

impl MsgId {
    fn parts(self) -> (usize, u32) {
        ((self.0 & u32::MAX as u64) as usize, (self.0 >> 32) as u32)
    }

    /// The slot index this handle refers to (diagnostics/tests only).
    pub fn slot(self) -> usize {
        self.parts().0
    }
}

/// One arena slot: generation stamp, remaining deliveries, body.
/// Generations are odd while the slot is live and even while it is free,
/// mirroring [`TimerTable`](crate::wheel::TimerTable).
#[derive(Debug)]
struct Slot<M> {
    gen: u32,
    refs: u32,
    msg: Option<M>,
}

/// A recycling slab of in-flight message bodies with reference-counted
/// multicast sharing.
///
/// # Example
/// ```
/// use idem_simnet::MessageArena;
/// let mut arena: MessageArena<String> = MessageArena::new();
/// let id = arena.insert("hello".to_string(), 2);
/// // All but the last materialization clone the body...
/// assert_eq!(arena.materialize(id, |s| s.clone()).as_deref(), Some("hello"));
/// // ...and the last moves it out, freeing the slot.
/// assert_eq!(arena.materialize(id, |s| s.clone()).as_deref(), Some("hello"));
/// assert_eq!(arena.live(), 0);
/// // The handle is now stale: a no-op everywhere.
/// assert_eq!(arena.materialize(id, |s| s.clone()), None);
/// ```
#[derive(Debug)]
pub struct MessageArena<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    inserted: u64,
}

impl<M> Default for MessageArena<M> {
    fn default() -> Self {
        MessageArena::new()
    }
}

impl<M> MessageArena<M> {
    /// Creates an empty arena.
    pub fn new() -> MessageArena<M> {
        MessageArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            inserted: 0,
        }
    }

    /// Stores `msg` with `refs` pending deliveries and returns its handle.
    ///
    /// # Panics
    /// Panics if `refs` is zero — a body nobody will ever take would leak
    /// its slot.
    pub fn insert(&mut self, msg: M, refs: u32) -> MsgId {
        assert!(refs > 0, "a stored body needs at least one delivery");
        self.inserted += 1;
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    refs: 0,
                    msg: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1); // even → odd: live
        slot.refs = refs;
        slot.msg = Some(msg);
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        MsgId(((slot.gen as u64) << 32) | idx as u64)
    }

    /// Materializes one delivery of `id`: clones via `clone` while other
    /// deliveries remain, moves the body out (freeing the slot) on the
    /// last. Stale handles return `None`.
    pub fn materialize(&mut self, id: MsgId, clone: impl FnOnce(&M) -> M) -> Option<M> {
        let (idx, gen) = id.parts();
        let slot = self.slots.get_mut(idx)?;
        if slot.gen != gen {
            return None;
        }
        if slot.refs > 1 {
            slot.refs -= 1;
            return Some(clone(slot.msg.as_ref().expect("live slot holds a body")));
        }
        let msg = slot.msg.take().expect("live slot holds a body");
        slot.gen = slot.gen.wrapping_add(1); // odd → even: free
        slot.refs = 0;
        self.free.push(idx as u32);
        self.live -= 1;
        Some(msg)
    }

    /// Releases one delivery of `id` without materializing it (the
    /// recipient crashed or its backlog was wiped); the last release drops
    /// the body and frees the slot. Returns whether the handle was live.
    pub fn release(&mut self, id: MsgId) -> bool {
        let (idx, gen) = id.parts();
        let Some(slot) = self.slots.get_mut(idx) else {
            return false;
        };
        if slot.gen != gen {
            return false;
        }
        if slot.refs > 1 {
            slot.refs -= 1;
            return true;
        }
        slot.msg = None;
        slot.gen = slot.gen.wrapping_add(1);
        slot.refs = 0;
        self.free.push(idx as u32);
        self.live -= 1;
        true
    }

    /// Number of bodies currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The most bodies ever stored at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total bodies ever stored.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Slots ever created — the arena's footprint. Steady state inserts
    /// recycle, so this stops growing once the population peak is reached.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_roundtrip_recycles_slot() {
        let mut a: MessageArena<u32> = MessageArena::new();
        let first = a.insert(7, 1);
        assert_eq!(a.live(), 1);
        assert_eq!(a.materialize(first, |&v| v), Some(7));
        assert_eq!(a.live(), 0);
        let second = a.insert(9, 1);
        assert_eq!(first.slot(), second.slot(), "slot is recycled");
        assert_ne!(first, second, "generation differs");
        assert_eq!(a.capacity(), 1, "no second slot was ever created");
        assert_eq!(a.materialize(second, |&v| v), Some(9));
    }

    #[test]
    fn shared_body_clones_then_moves() {
        let mut a: MessageArena<Vec<u8>> = MessageArena::new();
        let id = a.insert(vec![1, 2, 3], 3);
        assert_eq!(a.materialize(id, |v| v.clone()), Some(vec![1, 2, 3]));
        assert_eq!(a.materialize(id, |v| v.clone()), Some(vec![1, 2, 3]));
        assert_eq!(a.live(), 1, "last reference still live");
        // The final materialization must move, not clone: a clone fn that
        // panics proves it is never consulted.
        assert_eq!(
            a.materialize(id, |_| panic!("last take must move")),
            Some(vec![1, 2, 3])
        );
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn stale_handles_are_noops() {
        let mut a: MessageArena<u8> = MessageArena::new();
        let id = a.insert(1, 1);
        assert_eq!(a.materialize(id, |&v| v), Some(1));
        assert_eq!(a.materialize(id, |&v| v), None);
        assert!(!a.release(id));
        // A new occupant of the same slot is untouched by the stale handle.
        let fresh = a.insert(2, 2);
        assert!(!a.release(id));
        assert_eq!(a.materialize(fresh, |&v| v), Some(2));
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn release_drops_without_materializing() {
        let mut a: MessageArena<u8> = MessageArena::new();
        let id = a.insert(5, 2);
        assert!(a.release(id));
        assert_eq!(a.live(), 1, "one delivery still pending");
        assert!(a.release(id));
        assert_eq!(a.live(), 0);
        assert!(!a.release(id), "third release is stale");
    }

    #[test]
    fn counters_track_population() {
        let mut a: MessageArena<u8> = MessageArena::new();
        let ids: Vec<MsgId> = (0..4).map(|i| a.insert(i, 1)).collect();
        assert_eq!(a.high_water(), 4);
        assert_eq!(a.inserted(), 4);
        for id in ids {
            a.materialize(id, |&v| v);
        }
        a.insert(9, 1);
        assert_eq!(a.high_water(), 4, "high water survives drain");
        assert_eq!(a.inserted(), 5);
        assert_eq!(a.capacity(), 4, "fifth insert reused a slot");
    }

    #[test]
    #[should_panic(expected = "at least one delivery")]
    fn zero_refs_rejected() {
        MessageArena::new().insert(1u8, 0);
    }
}
