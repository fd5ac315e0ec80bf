//! The event scheduler: a hierarchical timing wheel plus a
//! generation-stamped timer table.
//!
//! # Why a wheel
//!
//! The simulator funnels every delivery, timer and crash through one
//! global priority queue. A binary heap pays O(log K) per push/pop with K
//! growing into the hundreds of thousands under the overload regimes the
//! paper studies. A timing wheel exploits the structure of simulated time —
//! events are popped in nondecreasing time order and are overwhelmingly
//! scheduled a short, bounded distance into the future — to make both
//! operations amortized O(1), independent of population.
//!
//! # Layout
//!
//! Virtual time (u64 nanoseconds) is bucketed into *chunks* of
//! 2^`GRANULARITY_BITS` ns (1.024 µs). The wheel keeps:
//!
//! * a `ready` min-heap holding only the events of the chunk currently being
//!   drained (a handful of events, so its O(log n) is on a tiny n) — this is
//!   what restores exact `(time, seq)` order *within* a chunk;
//! * `LEVELS` levels of 2^`SLOT_BITS` = 64 slots each. A slot at level
//!   `l` spans 64^l chunks; level 0 resolves single chunks, level 8 spans
//!   the remainder of the u64 range. Each level has a 64-bit occupancy
//!   bitmap so the next occupied slot is one `trailing_zeros` away.
//!
//! An event at chunk `c` is filed by XOR distance from the wheel's
//! `horizon` (the chunk of the slot most recently drained): the highest bit
//! position at which `c` differs from `horizon` picks the level, and the
//! corresponding 6-bit digit of `c` picks the slot. When the ready heap
//! runs dry, the wheel advances: it finds the lowest occupied level's first
//! occupied slot, jumps `horizon` to that slot's first chunk, and re-files
//! the slot's events — each lands at a strictly lower level (its leading
//! digits now agree with `horizon`), so every event cascades at most
//! `LEVELS` times before reaching the ready heap. That bounded re-filing
//! is the amortized O(1).
//!
//! # Ordering invariant
//!
//! All slotted events live at chunks strictly greater than `horizon`, and
//! every ready event's chunk is ≤ `horizon`; hence the ready heap's minimum
//! is always the global minimum and pops come out in exact `(time, seq)`
//! order — the contract the simulator's determinism tests pin down.
//! `horizon` only ever advances to the first chunk of the earliest occupied
//! slot, which is ≤ the earliest pending event's chunk, so an event pushed
//! "late" (at a chunk at or before `horizon`, e.g. after an idle period
//! advanced the clock) simply joins the ready heap and still sorts
//! correctly.
//!
//! # Footprint
//!
//! Slotted events live in one slab of cells; a slot is a `u32` head of a
//! singly linked list through that slab, and freed cells form a free
//! list. Filing pops a free cell and links it at the slot's head;
//! draining a slot detaches the whole list and frees each cell before
//! re-filing its event, so a cascade reuses the cells it empties. The
//! slab therefore holds at most as many cells as events were ever
//! slotted at once — it follows the pending population, not the time
//! elapsed. Order inside a slot does not matter: the ready heap orders by
//! `(time, seq)`, and a cascade only files into lower levels.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::node::TimerId;

/// Log2 of the chunk width: events within the same 2^10 ns = 1.024 µs chunk
/// are ordered by the ready heap rather than by wheel position.
const GRANULARITY_BITS: u32 = 10;

/// Log2 of the slot count per level.
const SLOT_BITS: u32 = 6;

/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;

/// Wheel levels. Chunks are 54-bit (64 − 10), and ceil(54 / 6) = 9 levels
/// cover every representable future time.
const LEVELS: usize = 9;

/// The end of a slot's list and of the free list.
const NIL: u32 = u32::MAX;

/// One scheduled item. Only `(time, seq)` participate in ordering; `seq` is
/// globally unique, so the order is total.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the ready heap needs
        // earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A slab cell: a slotted entry and the next cell of its slot's list, or,
/// while free, no entry and the next free cell.
#[derive(Debug)]
struct Cell<T> {
    entry: Option<Entry<T>>,
    next: u32,
}

/// A hierarchical timing wheel ordering items by `(time, seq)`.
///
/// `push` and `pop_before` are amortized O(1) in the number of pending
/// items. `seq` values must be unique across all pending items (the
/// simulator uses a global monotone counter), which makes the order total
/// and pops fully deterministic.
///
/// # Example
/// ```
/// use idem_simnet::TimingWheel;
/// let mut w = TimingWheel::new();
/// w.push(2_000_000, 1, "later");
/// w.push(500, 2, "sooner");
/// assert_eq!(w.pop_before(u64::MAX), Some((500, 2, "sooner")));
/// assert_eq!(w.pop_before(1_000_000), None); // beyond the limit
/// assert_eq!(w.pop_before(u64::MAX), Some((2_000_000, 1, "later")));
/// ```
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// Events of the chunk currently being drained (plus any late pushes at
    /// or before the horizon).
    ready: BinaryHeap<Entry<T>>,
    /// Every slotted entry, in cells linked into one list per slot.
    cells: Vec<Cell<T>>,
    /// First cell of each of the `LEVELS × SLOTS` slots, row-major by
    /// level; `NIL` when the slot is empty.
    heads: Box<[u32]>,
    /// First free cell of `cells`; `NIL` when every cell is in use.
    free: u32,
    /// Per-level occupancy bitmaps.
    occ: [u64; LEVELS],
    /// Chunk index of the slot most recently drained. Every slotted event
    /// is at a strictly greater chunk.
    horizon: u64,
    len: usize,
    high_water: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel with `horizon` at time zero.
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            ready: BinaryHeap::new(),
            cells: Vec::new(),
            heads: vec![NIL; LEVELS * SLOTS].into_boxed_slice(),
            free: NIL,
            occ: [0; LEVELS],
            horizon: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Schedules `value` at `(time, seq)`.
    pub fn push(&mut self, time: u64, seq: u64, value: T) {
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
        let entry = Entry { time, seq, value };
        let chunk = time >> GRANULARITY_BITS;
        if chunk <= self.horizon {
            self.ready.push(entry);
        } else {
            self.place(chunk, entry);
        }
    }

    /// Files an entry at `chunk > self.horizon` into its wheel slot: a
    /// free cell, linked in at the head of the slot's list.
    fn place(&mut self, chunk: u64, entry: Entry<T>) {
        let delta = chunk ^ self.horizon;
        let level = ((63 - delta.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((chunk >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize;
        let head = &mut self.heads[level * SLOTS + slot];
        let cell = Cell {
            entry: Some(entry),
            next: *head,
        };
        *head = match self.free {
            NIL => {
                let idx = u32::try_from(self.cells.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("wheel exceeds u32 cells");
                self.cells.push(cell);
                idx
            }
            free => {
                self.free = mem::replace(&mut self.cells[free as usize], cell).next;
                free
            }
        };
        self.occ[level] |= 1 << slot;
    }

    /// Advances `horizon` to the earliest occupied slot and cascades its
    /// events down. Returns `false` (without advancing) if that slot starts
    /// after `limit`. Must only be called while slotted events exist.
    fn advance(&mut self, limit: u64) -> bool {
        let level = (0..LEVELS)
            .find(|&l| self.occ[l] != 0)
            .expect("advance on empty wheel");
        let slot = self.occ[level].trailing_zeros() as usize;
        let width = level as u32 * SLOT_BITS;
        // First chunk the slot covers: horizon's digits above this level,
        // the slot index at this level, zeros below.
        let slot_chunk =
            (self.horizon & !((1u64 << (width + SLOT_BITS)) - 1)) | ((slot as u64) << width);
        if slot_chunk << GRANULARITY_BITS > limit {
            return false;
        }
        self.horizon = slot_chunk;
        self.occ[level] &= !(1u64 << slot);
        let mut cur = mem::replace(&mut self.heads[level * SLOTS + slot], NIL);
        while cur != NIL {
            // Free the cell before re-filing its entry, so a cascade reuses
            // the cells it empties instead of growing the slab.
            let cell = &mut self.cells[cur as usize];
            let entry = cell.entry.take().expect("a listed cell holds an entry");
            let next = mem::replace(&mut cell.next, self.free);
            self.free = cur;
            cur = next;
            let chunk = entry.time >> GRANULARITY_BITS;
            if chunk <= self.horizon {
                self.ready.push(entry);
            } else {
                // Strictly lower level than before: the digits at and above
                // `level` now agree with the horizon.
                self.place(chunk, entry);
            }
        }
        true
    }

    /// Pops the earliest item if it is scheduled at or before `limit`.
    pub fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, T)> {
        loop {
            if let Some(top) = self.ready.peek() {
                if top.time > limit {
                    return None;
                }
                let e = self.ready.pop().expect("peeked entry");
                self.len -= 1;
                return Some((e.time, e.seq, e.value));
            }
            if self.len == 0 || !self.advance(limit) {
                return None;
            }
        }
    }

    /// The `(time, seq)` of the earliest pending item if it is scheduled
    /// at or before `limit`, without removing it —
    /// [`pop_before`](Self::pop_before) minus the pop.
    ///
    /// This is the look-ahead the run-to-completion scheduler is built on:
    /// a node may keep draining its backlog as long as its next start slot
    /// precedes every pending event in the global `(time, seq)` order.
    /// Peeking may advance the horizon to surface the earliest slotted
    /// item in the ready heap, but — like a pop — never past `limit`:
    /// advancing further would park far-future pushes in the ready heap
    /// and degenerate the wheel into a plain binary heap. Within the
    /// limit, advancement is safe: late pushes at or before the horizon
    /// still sort correctly (see the module docs), so a peek never
    /// perturbs what subsequent pops return.
    ///
    /// # Example
    /// ```
    /// use idem_simnet::TimingWheel;
    /// let mut w = TimingWheel::new();
    /// w.push(2_000_000, 1, "later");
    /// w.push(500, 2, "sooner");
    /// assert_eq!(w.peek_before(u64::MAX), Some((500, 2)));
    /// assert_eq!(w.pop_before(u64::MAX), Some((500, 2, "sooner")));
    /// assert_eq!(w.peek_before(1_000_000), None); // beyond the limit
    /// assert_eq!(w.peek_before(u64::MAX), Some((2_000_000, 1)));
    /// ```
    pub fn peek_before(&mut self, limit: u64) -> Option<(u64, u64)> {
        loop {
            if let Some(top) = self.ready.peek() {
                if top.time > limit {
                    return None;
                }
                return Some((top.time, top.seq));
            }
            if self.len == 0 || !self.advance(limit) {
                return None;
            }
        }
    }

    /// Reserves capacity in the ready heap. The slab of slotted events
    /// grows only while the pending population sets a new high-water mark.
    pub fn reserve(&mut self, additional: usize) {
        self.ready.reserve(additional);
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no item is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest number of items that were ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// A slab of armed timers with generation-stamped handles.
///
/// Arming stores the timer payload in a recycled slot and returns a
/// [`TimerId`] packing `(generation, slot)`. Cancelling bumps the slot's
/// generation — an O(1) store that instantly invalidates the handle *and*
/// the matching queue entry (which carries only the id), frees the payload,
/// and recycles the slot. Stale handles (already fired, already cancelled,
/// or from a previous occupant of the slot) never match the current
/// generation, so stale cancels are harmless no-ops and nothing accumulates
/// over a long run.
///
/// Generations are odd while a slot is live and even while it is free, so
/// liveness needs no separate flag.
#[derive(Debug)]
pub struct TimerTable<M> {
    /// `(generation, payload)` per slot. A live slot holds its payload
    /// until [`consume`](Self::consume) or [`cancel`](Self::cancel)
    /// settles it, so a cancel racing work queued behind a busy node still
    /// wins; a free slot holds `None`.
    slots: Vec<(u32, Option<M>)>,
    free: Vec<u32>,
    live: usize,
}

impl<M> Default for TimerTable<M> {
    fn default() -> Self {
        TimerTable::new()
    }
}

impl<M> TimerTable<M> {
    /// Creates an empty table.
    pub fn new() -> TimerTable<M> {
        TimerTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn parts(id: TimerId) -> (usize, u32) {
        ((id.0 & u32::MAX as u64) as usize, (id.0 >> 32) as u32)
    }

    /// Stores `msg` and returns a fresh handle for it.
    pub fn arm(&mut self, msg: M) -> TimerId {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push((0, None));
                (self.slots.len() - 1) as u32
            }
        };
        let slot = &mut self.slots[idx as usize];
        slot.0 = slot.0.wrapping_add(1); // even → odd: live
        slot.1 = Some(msg);
        self.live += 1;
        TimerId(((slot.0 as u64) << 32) | idx as u64)
    }

    /// Invalidates `id`, dropping its payload and recycling the slot.
    /// Returns whether the timer was still live; stale ids are no-ops.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let (idx, gen) = Self::parts(id);
        match self.slots.get_mut(idx) {
            Some(slot) if slot.0 == gen => {
                slot.0 = slot.0.wrapping_add(1); // odd → even: free
                slot.1 = None;
                self.free.push(idx as u32);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `id` is still live: the dispatch-time check made when the
    /// timer's queue entry expires. The payload stays in the table until
    /// [`consume`](Self::consume).
    pub fn is_live(&self, id: TimerId) -> bool {
        let (idx, gen) = Self::parts(id);
        matches!(self.slots.get(idx), Some(slot) if slot.0 == gen)
    }

    /// Takes the payload and settles the slot in one step, right before
    /// the handler runs. Returns `None` when the timer was cancelled while
    /// its delivery sat in a node backlog.
    ///
    /// The payload stays in the table while the delivery is queued behind
    /// a busy node, so the queued work is an 8-byte id instead of a
    /// message body, and a cancel in that window still frees the payload
    /// immediately.
    pub fn consume(&mut self, id: TimerId) -> Option<M> {
        let (idx, gen) = Self::parts(id);
        let slot = self.slots.get_mut(idx)?;
        if slot.0 != gen {
            return None;
        }
        let msg = slot.1.take().expect("a live slot holds its payload");
        slot.0 = slot.0.wrapping_add(1); // odd → even: free
        self.free.push(idx as u32);
        self.live -= 1;
        Some(msg)
    }

    /// Number of timers currently armed (including expired ones still
    /// deferred behind busy nodes).
    pub fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop_before(u64::MAX))
            .map(|(t, s, _)| (t, s))
            .collect()
    }

    #[test]
    fn pops_sorted_across_levels() {
        let mut w = TimingWheel::new();
        // Times spanning level 0 through the far levels, scrambled.
        let times = [
            5u64,
            1 << 9,
            1 << 12,
            (1 << 16) + 3,
            1 << 22,
            (1 << 30) + 7,
            1 << 40,
            (1 << 52) + 11,
            3,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, 0);
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        expect.sort_unstable();
        assert_eq!(drain(&mut w), expect);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_event_cascades_down() {
        let mut w = TimingWheel::new();
        // One event many levels out; interleave near events so the horizon
        // advances in small steps first.
        w.push(1 << 45, 0, 0);
        for i in 0..100u64 {
            w.push(i * 1500, i + 1, 0);
        }
        let order = drain(&mut w);
        assert_eq!(order.len(), 101);
        assert_eq!(order.last(), Some(&(1 << 45, 0)));
        assert!(order.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn same_chunk_orders_by_seq() {
        let mut w = TimingWheel::new();
        // All in one chunk, scrambled seq, equal times.
        for &s in &[4u64, 1, 3, 0, 2] {
            w.push(100, s, 0);
        }
        assert_eq!(
            drain(&mut w),
            vec![(100, 0), (100, 1), (100, 2), (100, 3), (100, 4)]
        );
    }

    #[test]
    fn pop_before_respects_limit_without_losing_events() {
        let mut w = TimingWheel::new();
        w.push(10_000_000, 1, 7);
        assert_eq!(w.pop_before(9_999_999), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(10_000_000), Some((10_000_000, 1, 7)));
        assert!(w.is_empty());
    }

    #[test]
    fn late_push_at_or_before_horizon_still_sorts() {
        let mut w = TimingWheel::new();
        w.push(5_000_000, 1, 0);
        // Drain up to well past the event so the horizon advances.
        assert!(w.pop_before(u64::MAX).is_some());
        // A push earlier than the horizon (the simulator clock can sit past
        // it after an idle stretch) must still pop, and in order.
        w.push(1_000_000, 2, 0);
        w.push(900_000, 3, 0);
        assert_eq!(w.pop_before(u64::MAX), Some((900_000, 3, 0)));
        assert_eq!(w.pop_before(u64::MAX), Some((1_000_000, 2, 0)));
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_sorted() {
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimingWheel<u32>, t: u64| {
            seq += 1;
            w.push(t, seq, 0);
        };
        push(&mut w, 300_000);
        push(&mut w, 100_000);
        assert_eq!(w.pop_before(u64::MAX).unwrap().0, 100_000);
        // Push between the popped time and the pending one.
        push(&mut w, 200_000);
        push(&mut w, 150_000);
        assert_eq!(w.pop_before(u64::MAX).unwrap().0, 150_000);
        assert_eq!(w.pop_before(u64::MAX).unwrap().0, 200_000);
        assert_eq!(w.pop_before(u64::MAX).unwrap().0, 300_000);
        assert!(w.pop_before(u64::MAX).is_none());
    }

    #[test]
    fn peek_always_matches_next_pop() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_before(u64::MAX), None);
        // Times spanning several levels, scrambled, so peeking has to
        // advance the horizon and cascade slots.
        let times = [5u64, 1 << 12, (1 << 30) + 7, 1 << 9, (1 << 52) + 11, 3];
        for (i, &t) in times.iter().enumerate() {
            w.push(t, i as u64, 0);
        }
        while !w.is_empty() {
            let peeked = w.peek_before(u64::MAX).expect("non-empty wheel peeks");
            assert_eq!(w.peek_before(u64::MAX), Some(peeked), "peek is idempotent");
            let (t, s, _) = w.pop_before(u64::MAX).expect("non-empty wheel pops");
            assert_eq!((t, s), peeked);
        }
        assert_eq!(w.peek_before(u64::MAX), None);
    }

    #[test]
    fn peek_does_not_disturb_limited_pops_or_late_pushes() {
        let mut w = TimingWheel::new();
        w.push(10_000_000, 1, 0);
        // A peek bounded below the event refuses it, like a bounded pop...
        assert_eq!(w.peek_before(9_999_999), None);
        // ...and an unbounded peek advances the horizon to surface it...
        assert_eq!(w.peek_before(u64::MAX), Some((10_000_000, 1)));
        // ...but a pop with a smaller limit still refuses it.
        assert_eq!(w.pop_before(9_999_999), None);
        // A push behind the advanced horizon still sorts first.
        w.push(2_000_000, 2, 0);
        assert_eq!(w.peek_before(u64::MAX), Some((2_000_000, 2)));
        assert_eq!(w.pop_before(u64::MAX), Some((2_000_000, 2, 0)));
        assert_eq!(w.pop_before(u64::MAX), Some((10_000_000, 1, 0)));
    }

    #[test]
    fn bounded_peek_does_not_advance_past_limit() {
        let mut w = TimingWheel::new();
        // One far-future event (a distant timer, in scheduler terms).
        w.push(1 << 40, 1, 0);
        assert_eq!(w.peek_before(1 << 20), None);
        // Because the bounded peek left the horizon near the limit, a
        // subsequent near-term push must land in wheel slots (not the
        // ready heap) and pop first.
        w.push(1 << 21, 2, 0);
        assert_eq!(w.peek_before(u64::MAX), Some((1 << 21, 2)));
        assert_eq!(w.pop_before(u64::MAX), Some((1 << 21, 2, 0)));
        assert_eq!(w.pop_before(u64::MAX), Some((1 << 40, 1, 0)));
        assert!(w.is_empty());
    }

    #[test]
    fn len_and_high_water_track_population() {
        let mut w = TimingWheel::new();
        for i in 0..50u64 {
            w.push(i * 10_000, i, 0);
        }
        assert_eq!(w.len(), 50);
        for _ in 0..20 {
            w.pop_before(u64::MAX);
        }
        assert_eq!(w.len(), 30);
        w.push(1, 99, 0);
        assert_eq!(w.high_water(), 50);
        assert_eq!(w.len(), 31);
    }

    /// The IDEM shape: every delivery schedules the next one 100–150 µs out
    /// and arms a timer 200 ms–1.5 s out that is long dead when the wheel
    /// reaches it. The far entries pile up by the thousand in level-3 slots
    /// (268 ms each) and cascade down as those slots drain; the slab must
    /// follow the pending population, never the time elapsed.
    #[test]
    fn slot_buffers_do_not_grow_with_elapsed_time() {
        const PERIOD: u64 = 1 << (GRANULARITY_BITS + 3 * SLOT_BITS);
        const DELIVERY: [u8; 32] = [0; 32];
        const DEAD_TIMER: [u8; 32] = [1; 32];
        let mut w: TimingWheel<[u8; 32]> = TimingWheel::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |lo: u64, hi: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            lo + rng % (hi - lo)
        };
        let mut seq = 0u64;
        for chain in 0..8 {
            w.push(chain * 10_000, seq, DELIVERY);
            seq += 1;
        }
        loop {
            let (now, _, kind) = w.pop_before(u64::MAX).expect("chains never end");
            if now >= 40 * PERIOD {
                break;
            }
            assert!(
                w.cells.capacity() <= 2 * w.high_water(),
                "{} cells for a high-water mark of {} at {now} ns",
                w.cells.capacity(),
                w.high_water()
            );
            if kind == DELIVERY {
                w.push(now + draw(100_000, 150_000), seq, DELIVERY);
                w.push(now + draw(200_000_000, 1_500_000_000), seq + 1, DEAD_TIMER);
                seq += 2;
            }
        }
    }

    /// A cascade frees each cell before it re-files the entry, so draining
    /// one slot into lower ones reuses the cells it empties.
    #[test]
    fn cascade_reuses_the_cells_it_frees() {
        let mut w = TimingWheel::new();
        for i in 0..1_000u64 {
            // One level-2 slot, spread over many level-1 and level-0 slots.
            w.push((1 << 22) + i * 4_096, i, 0u32);
        }
        assert_eq!(w.cells.len(), 1_000);
        assert_eq!(w.pop_before(u64::MAX), Some((1 << 22, 0, 0)));
        assert_eq!(w.cells.len(), 1_000, "the cascade took no new cell");
        assert_eq!(drain(&mut w).len(), 999);
        assert_eq!(w.cells.len(), 1_000);
    }

    /// The lifecycle the simulator drives: arm, the queue entry fires
    /// (`is_live`), the handler runs (`consume` completes the timer).
    #[test]
    fn timer_table_arm_fire_complete_roundtrip() {
        let mut t: TimerTable<&str> = TimerTable::new();
        let id = t.arm("hello");
        assert_eq!(t.live(), 1);
        assert!(t.is_live(id));
        assert_eq!(t.live(), 1, "fired timers stay live until consumed");
        assert_eq!(t.consume(id), Some("hello"));
        assert_eq!(t.live(), 0);
        // The handle is now stale everywhere.
        assert!(!t.is_live(id));
        assert!(!t.cancel(id));
        assert_eq!(t.consume(id), None);
    }

    #[test]
    fn cancel_frees_payload_and_invalidates_queue_entry() {
        let mut t: TimerTable<u32> = TimerTable::new();
        let id = t.arm(7);
        assert!(t.cancel(id));
        assert_eq!(t.live(), 0);
        // The queue entry that still references the id fires into nothing.
        assert!(!t.is_live(id));
    }

    #[test]
    fn stale_cancel_after_slot_reuse_is_noop() {
        fn slot_of(id: TimerId) -> u64 {
            id.0 & u32::MAX as u64
        }
        let mut t: TimerTable<u32> = TimerTable::new();
        let first = t.arm(1);
        assert_eq!(t.consume(first), Some(1));
        // The slot is recycled with a new generation.
        let second = t.arm(2);
        assert_eq!(slot_of(first), slot_of(second));
        assert_ne!(first, second);
        // Cancelling the dead handle must not touch the new occupant.
        assert!(!t.cancel(first));
        assert_eq!(t.live(), 1);
        assert_eq!(t.consume(second), Some(2));
    }

    #[test]
    fn consume_takes_and_settles_in_one_step() {
        let mut t: TimerTable<u32> = TimerTable::new();
        let id = t.arm(11);
        assert!(t.is_live(id));
        assert_eq!(t.consume(id), Some(11));
        assert_eq!(t.live(), 0);
        assert!(!t.is_live(id));
        assert_eq!(t.consume(id), None, "second consume is stale");
        // The recycled slot's new occupant is invisible to the old handle.
        let fresh = t.arm(12);
        assert!(!t.is_live(id));
        assert!(!t.cancel(id));
        assert_eq!(t.consume(fresh), Some(12));
    }

    #[test]
    fn cancel_between_dispatch_and_consume_wins() {
        let mut t: TimerTable<u32> = TimerTable::new();
        let id = t.arm(5);
        assert!(t.is_live(id));
        // Cancelled while the delivery sits in a node backlog…
        assert!(t.cancel(id));
        // …so the deferred consume must see it dead.
        assert_eq!(t.consume(id), None);
        assert_eq!(t.live(), 0);
    }
}
