//! Dense, handle-indexed protocol state (DESIGN.md §6e).
//!
//! The replication hot path used to resolve every incoming message
//! against a fistful of `BTreeMap<RequestId, …>`s — one tree probe per
//! concern (body store, endorsement votes, propose cursor, forward
//! timer, duplicate suppression). This module replaces those with two
//! flat structures, mirroring the message-arena design of the simnet
//! layer:
//!
//! * [`ReqSlab`] — a generation-stamped slab of per-request records.
//!   A record is addressed by a small copyable [`ReqHandle`]; a freed
//!   slot bumps its generation so stale handles read as absent instead
//!   of aliasing a recycled record. Protocols cache handles in window
//!   instances and queues, so every later stage of a request's life
//!   costs an O(1) slot load instead of a fresh tree descent.
//!
//! * [`SessionTable`] — the per-client session state (highest executed
//!   op, cached reply, and the head of that client's chain of live
//!   request records), indexed directly by the contiguous client ids
//!   the harness assigns. Rows live in fixed pages of [`SESSION_PAGE`]
//!   rows, each allocated when one of its ids is first touched and never
//!   moved, so the table holds the pages its clients touch whatever order
//!   they arrive in. Reserved ids near `u32::MAX` (the reconfig and no-op
//!   pseudo-clients) and any pathologically large id fall back to a tree
//!   so the dense part never over-allocates.
//!
//! Request records for one client are threaded into a singly-linked
//! chain (the [`Chained`] trait) rooted at the client's session slot:
//! resolving a message's request context is one session-slot load plus
//! a walk over that client's handful of live records — in the common
//! case a chain of length 0 or 1.
//!
//! Iteration over a slab visits slots in index order and the session
//! table in ascending client id, so cold paths that must re-derive a
//! sorted view (view change, checkpointing, reconfiguration) stay
//! deterministic.

use std::collections::BTreeMap;

use crate::ids::{ClientId, OpNumber, RequestId};
use crate::request::ResultBytes;

/// Client ids at or above this value are stored in the session table's
/// fallback tree rather than its pages. Covers the reserved
/// pseudo-clients (`RECONFIG_CLIENT`, the no-op client) and shields the
/// page directory from ever sizing itself to a wild id.
pub const DENSE_CLIENT_LIMIT: u32 = 1 << 26;

/// Log2 of [`SESSION_PAGE`].
const PAGE_BITS: u32 = 10;

/// Rows per session-table page: 40 KiB of 40-byte rows, so a cell of a
/// few hundred clients pays for one small page and 10⁵ clients for 98.
pub const SESSION_PAGE: usize = 1 << PAGE_BITS;

/// One page of session rows, ids `page << PAGE_BITS ..` upwards.
type Page = Box<[Session; SESSION_PAGE]>;

/// Compact, copyable key of a record in a [`ReqSlab`].
///
/// The null handle ([`ReqHandle::NULL`]) never resolves. A handle to a
/// freed slot stops resolving the moment the slot is reused or freed
/// (generation stamp mismatch), so protocols may cache handles without
/// use-after-free hazards: a stale handle simply reads as absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqHandle {
    index: u32,
    generation: u32,
}

impl ReqHandle {
    /// The handle that never resolves.
    pub const NULL: ReqHandle = ReqHandle {
        index: 0,
        generation: 0,
    };

    /// Whether this is the null handle. A non-null handle may still
    /// fail to resolve if its record was freed.
    pub fn is_null(self) -> bool {
        self.generation == 0
    }
}

impl Default for ReqHandle {
    fn default() -> ReqHandle {
        ReqHandle::NULL
    }
}

struct Slot<T> {
    /// Even = vacant, odd = occupied; incremented on every transition,
    /// so a handle (which always carries an odd generation) resolves
    /// only against the exact occupancy it was issued for.
    generation: u32,
    value: Option<T>,
}

/// A generation-stamped slab of per-request protocol records.
///
/// # Example
/// ```
/// use idem_common::dense::ReqSlab;
/// let mut slab: ReqSlab<u64> = ReqSlab::new();
/// let h = slab.insert(7);
/// assert_eq!(slab.get(h), Some(&7));
/// assert_eq!(slab.remove(h), Some(7));
/// assert_eq!(slab.get(h), None); // stale handle reads as absent
/// ```
pub struct ReqSlab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for ReqSlab<T> {
    fn default() -> ReqSlab<T> {
        ReqSlab::new()
    }
}

impl<T> ReqSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> ReqSlab<T> {
        ReqSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no records are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a record and returns its handle. Freed slots are reused
    /// LIFO, so steady-state traffic stops growing the slab.
    pub fn insert(&mut self, value: T) -> ReqHandle {
        self.live += 1;
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.generation = slot.generation.wrapping_add(1);
                slot.value = Some(value);
                ReqHandle {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
                self.slots.push(Slot {
                    generation: 1,
                    value: Some(value),
                });
                ReqHandle {
                    index,
                    generation: 1,
                }
            }
        }
    }

    fn slot(&self, h: ReqHandle) -> Option<&Slot<T>> {
        self.slots
            .get(h.index as usize)
            .filter(|s| s.generation == h.generation && s.value.is_some())
    }

    /// Resolves a handle; `None` for null, stale, or freed handles.
    pub fn get(&self, h: ReqHandle) -> Option<&T> {
        self.slot(h).and_then(|s| s.value.as_ref())
    }

    /// Mutable [`get`](Self::get).
    pub fn get_mut(&mut self, h: ReqHandle) -> Option<&mut T> {
        match self.slots.get_mut(h.index as usize) {
            Some(s) if s.generation == h.generation && s.value.is_some() => s.value.as_mut(),
            _ => None,
        }
    }

    /// Whether the handle currently resolves.
    pub fn contains(&self, h: ReqHandle) -> bool {
        self.slot(h).is_some()
    }

    /// Frees a record, invalidating every copy of its handle.
    pub fn remove(&mut self, h: ReqHandle) -> Option<T> {
        match self.slots.get_mut(h.index as usize) {
            Some(s) if s.generation == h.generation && s.value.is_some() => {
                s.generation = s.generation.wrapping_add(1);
                self.free.push(h.index);
                self.live -= 1;
                s.value.take()
            }
            _ => None,
        }
    }

    /// Iterates live records in slot-index order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (ReqHandle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    ReqHandle {
                        index: i as u32,
                        generation: s.generation,
                    },
                    v,
                )
            })
        })
    }

    /// Drops every record. Generations keep advancing, so handles from
    /// before the clear still read as absent.
    pub fn clear(&mut self) {
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.value.is_some() {
                s.generation = s.generation.wrapping_add(1);
                s.value = None;
            }
            self.free.push(i as u32);
        }
        // LIFO reuse from low indices first, matching a fresh slab's
        // allocation order as closely as possible.
        self.free.reverse();
        self.live = 0;
    }
}

/// A record that can be threaded into a per-client chain.
pub trait Chained {
    /// The request this record tracks.
    fn request_id(&self) -> RequestId;
    /// Next record in the owning client's chain.
    fn next(&self) -> ReqHandle;
    /// Re-links the record.
    fn set_next(&mut self, next: ReqHandle);
}

impl<T: Chained> ReqSlab<T> {
    /// Finds the record for `id` in the chain rooted at `head`.
    /// Chains hold one client's live records, so this walk is O(1) in
    /// the common case.
    pub fn chain_find(&self, head: ReqHandle, id: RequestId) -> ReqHandle {
        let mut cur = head;
        while let Some(rec) = self.get(cur) {
            if rec.request_id() == id {
                return cur;
            }
            cur = rec.next();
        }
        ReqHandle::NULL
    }

    /// Pushes a record at the front of a chain.
    pub fn chain_push(&mut self, head: &mut ReqHandle, h: ReqHandle) {
        let old = *head;
        if let Some(rec) = self.get_mut(h) {
            rec.set_next(old);
            *head = h;
        }
    }

    /// Unlinks a record from a chain (the record itself stays live).
    /// Returns whether it was found.
    pub fn chain_unlink(&mut self, head: &mut ReqHandle, h: ReqHandle) -> bool {
        if *head == h {
            if let Some(rec) = self.get(h) {
                *head = rec.next();
                return true;
            }
            return false;
        }
        let mut prev = *head;
        loop {
            let Some(rec) = self.get(prev) else {
                return false;
            };
            let next = rec.next();
            if next == h {
                let skip = self.get(h).map(|r| r.next()).unwrap_or(ReqHandle::NULL);
                if let Some(prev_rec) = self.get_mut(prev) {
                    prev_rec.set_next(skip);
                }
                return true;
            }
            prev = next;
        }
    }
}

#[derive(Clone)]
struct Session {
    /// Highest executed op for this client; `NO_OP` when none.
    last_op: u64,
    reply: ResultBytes,
    /// Head of the client's chain of live request records.
    head: ReqHandle,
}

const NO_OP: u64 = u64::MAX;

impl Session {
    const EMPTY: Session = Session {
        last_op: NO_OP,
        reply: ResultBytes::Inline {
            len: 0,
            buf: [0; crate::request::INLINE_RESULT_CAP],
        },
        head: ReqHandle::NULL,
    };
}

/// A page of empty rows, built on the heap: a `[Session; SESSION_PAGE]`
/// temporary would give every caller of `slot_mut` a 40 KiB stack frame to
/// probe on each call.
#[cold]
fn new_page() -> Page {
    vec![Session::EMPTY; SESSION_PAGE]
        .into_boxed_slice()
        .try_into()
        .ok()
        .expect("a page holds SESSION_PAGE rows")
}

/// Dense per-client session state: the `last_executed` reply cache plus
/// the root of each client's live-request chain.
///
/// Client ids below [`DENSE_CLIENT_LIMIT`] index fixed pages of
/// [`SESSION_PAGE`] rows. A page is allocated when one of its ids is first
/// touched and is never moved or freed — membership reconfiguration can
/// only widen the client population, so an epoch change keeps every row
/// and later epochs reuse them (the membership-epoch resize rule of
/// DESIGN.md §6e). Reserved pseudo-client ids near `u32::MAX` live in a
/// small fallback tree.
///
/// # Example
/// ```
/// use idem_common::dense::SessionTable;
/// use idem_common::{ClientId, OpNumber, ResultBytes};
/// let mut t = SessionTable::new();
/// t.record(ClientId(3), OpNumber(1), ResultBytes::from_slice(b"ok"));
/// assert_eq!(t.last_op(ClientId(3)), Some(OpNumber(1)));
/// assert_eq!(t.last_op(ClientId(4)), None);
/// ```
#[derive(Clone, Default)]
pub struct SessionTable {
    /// Page `i` holds ids `i * SESSION_PAGE ..`; `None` until touched.
    pages: Vec<Option<Page>>,
    special: BTreeMap<u32, Session>,
}

impl SessionTable {
    /// Creates an empty table.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    fn slot(&self, client: ClientId) -> Option<&Session> {
        if client.0 < DENSE_CLIENT_LIMIT {
            let page = self.pages.get((client.0 >> PAGE_BITS) as usize)?;
            Some(&page.as_ref()?[client.0 as usize % SESSION_PAGE])
        } else {
            self.special.get(&client.0)
        }
    }

    fn slot_mut(&mut self, client: ClientId) -> &mut Session {
        if client.0 < DENSE_CLIENT_LIMIT {
            let idx = (client.0 >> PAGE_BITS) as usize;
            if idx >= self.pages.len() {
                self.pages.resize_with(idx + 1, || None);
            }
            let page = self.pages[idx].get_or_insert_with(new_page);
            &mut page[client.0 as usize % SESSION_PAGE]
        } else {
            self.special.entry(client.0).or_insert(Session::EMPTY)
        }
    }

    /// Every allocated row with its client id, in ascending id order.
    fn rows(&self) -> impl Iterator<Item = (u32, &Session)> + Clone {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, page)| Some((i, page.as_ref()?)))
            .flat_map(|(i, page)| {
                page.iter()
                    .enumerate()
                    .map(move |(j, s)| (((i << PAGE_BITS) + j) as u32, s))
            })
    }

    /// Highest executed op and cached reply, if any.
    pub fn get(&self, client: ClientId) -> Option<(OpNumber, &ResultBytes)> {
        self.slot(client)
            .filter(|s| s.last_op != NO_OP)
            .map(|s| (OpNumber(s.last_op), &s.reply))
    }

    /// Highest executed op, if any (skips touching the reply bytes).
    pub fn last_op(&self, client: ClientId) -> Option<OpNumber> {
        self.slot(client)
            .filter(|s| s.last_op != NO_OP)
            .map(|s| OpNumber(s.last_op))
    }

    /// Whether `id` is at or below the client's highest executed op —
    /// the duplicate-suppression test every message pays first.
    pub fn executed_already(&self, id: RequestId) -> bool {
        self.slot(id.client)
            .is_some_and(|s| s.last_op != NO_OP && OpNumber(s.last_op) >= id.op)
    }

    /// Records an execution: overwrites the client's op and reply.
    pub fn record(&mut self, client: ClientId, op: OpNumber, reply: ResultBytes) {
        let slot = self.slot_mut(client);
        slot.last_op = op.0;
        slot.reply = reply;
    }

    /// Head of the client's live-request chain.
    pub fn head(&self, client: ClientId) -> ReqHandle {
        self.slot(client).map(|s| s.head).unwrap_or(ReqHandle::NULL)
    }

    /// Re-roots the client's live-request chain.
    pub fn set_head(&mut self, client: ClientId, head: ReqHandle) {
        self.slot_mut(client).head = head;
    }

    /// Forgets every execution record (checkpoint install replaces the
    /// table wholesale) while keeping the live-request chains rooted.
    pub fn clear_executed(&mut self) {
        for s in self.pages.iter_mut().flatten().flat_map(|p| p.iter_mut()) {
            s.last_op = NO_OP;
            s.reply = ResultBytes::from_slice(&[]);
        }
        self.special.retain(|_, s| {
            s.last_op = NO_OP;
            s.reply = ResultBytes::from_slice(&[]);
            !s.head.is_null()
        });
    }

    /// Replaces every execution record with a checkpoint's
    /// `(client, last_op, reply)` rows — checkpoint install and WAL
    /// replay both restore the table this way.
    pub fn restore_executed<'r>(&mut self, rows: impl Iterator<Item = (u32, u64, &'r [u8])>) {
        self.clear_executed();
        for (client, op, reply) in rows {
            self.record(
                ClientId(client),
                OpNumber(op),
                ResultBytes::from_slice(reply),
            );
        }
    }

    /// Iterates executed clients in ascending id order (paged ids first,
    /// then the reserved high ids — numerically ascending overall, which
    /// matches the `BTreeMap` order checkpoints were built with).
    pub fn iter(&self) -> impl Iterator<Item = (u32, OpNumber, &ResultBytes)> + Clone {
        self.rows()
            .chain(self.special.iter().map(|(&c, s)| (c, s)))
            .filter(|(_, s)| s.last_op != NO_OP)
            .map(|(c, s)| (c, OpNumber(s.last_op), &s.reply))
    }

    /// Number of clients with a recorded execution.
    pub fn executed_clients(&self) -> usize {
        self.rows()
            .map(|(_, s)| s)
            .chain(self.special.values())
            .filter(|s| s.last_op != NO_OP)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_insert_get_remove_roundtrip() {
        let mut slab: ReqSlab<u32> = ReqSlab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&1));
        assert_eq!(slab.get(b), Some(&2));
        assert_eq!(slab.remove(a), Some(1));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slab_reuses_slots_with_fresh_generations() {
        let mut slab: ReqSlab<u32> = ReqSlab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // Same slot, different generation: the stale handle is dead.
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), Some(&2));
        assert!(!slab.contains(a));
        assert!(slab.contains(b));
    }

    #[test]
    fn null_handle_never_resolves() {
        let mut slab: ReqSlab<u32> = ReqSlab::new();
        assert!(ReqHandle::NULL.is_null());
        assert_eq!(slab.get(ReqHandle::NULL), None);
        assert_eq!(slab.remove(ReqHandle::NULL), None);
        let _ = slab.insert(9);
        assert_eq!(slab.get(ReqHandle::NULL), None);
    }

    #[test]
    fn slab_clear_invalidates_all() {
        let mut slab: ReqSlab<u32> = ReqSlab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), None);
        let c = slab.insert(3);
        assert_eq!(slab.get(c), Some(&3));
    }

    #[derive(Debug, PartialEq)]
    struct Rec {
        id: RequestId,
        next: ReqHandle,
    }

    impl Chained for Rec {
        fn request_id(&self) -> RequestId {
            self.id
        }
        fn next(&self) -> ReqHandle {
            self.next
        }
        fn set_next(&mut self, next: ReqHandle) {
            self.next = next;
        }
    }

    fn rid(client: u32, op: u64) -> RequestId {
        RequestId::new(ClientId(client), OpNumber(op))
    }

    #[test]
    fn chain_push_find_unlink() {
        let mut slab: ReqSlab<Rec> = ReqSlab::new();
        let mut head = ReqHandle::NULL;
        let hs: Vec<ReqHandle> = (0..4)
            .map(|op| {
                let h = slab.insert(Rec {
                    id: rid(1, op),
                    next: ReqHandle::NULL,
                });
                slab.chain_push(&mut head, h);
                h
            })
            .collect();
        for op in 0..4 {
            assert_eq!(slab.chain_find(head, rid(1, op)), hs[op as usize]);
        }
        assert!(slab.chain_find(head, rid(1, 9)).is_null());
        assert!(slab.chain_find(head, rid(2, 0)).is_null());

        // Unlink middle, head, tail; chain stays consistent throughout.
        assert!(slab.chain_unlink(&mut head, hs[2]));
        assert!(slab.chain_find(head, rid(1, 2)).is_null());
        assert_eq!(slab.chain_find(head, rid(1, 3)), hs[3]);
        assert!(slab.chain_unlink(&mut head, hs[3])); // head
        assert_eq!(head, hs[1]);
        assert!(slab.chain_unlink(&mut head, hs[0])); // tail
        assert_eq!(slab.chain_find(head, rid(1, 1)), hs[1]);
        assert!(!slab.chain_unlink(&mut head, hs[0])); // already gone
    }

    #[test]
    fn session_table_records_and_iterates_sorted() {
        let mut t = SessionTable::new();
        t.record(ClientId(5), OpNumber(2), ResultBytes::from_slice(b"b"));
        t.record(ClientId(1), OpNumber(7), ResultBytes::from_slice(b"a"));
        t.record(
            ClientId(u32::MAX - 1),
            OpNumber(1),
            ResultBytes::from_slice(&[]),
        );
        let ids: Vec<u32> = t.iter().map(|(c, _, _)| c).collect();
        assert_eq!(ids, vec![1, 5, u32::MAX - 1]);
        assert!(t.executed_already(rid(1, 7)));
        assert!(t.executed_already(rid(1, 3)));
        assert!(!t.executed_already(rid(1, 8)));
        assert!(!t.executed_already(rid(2, 0)));
        assert_eq!(t.executed_clients(), 3);
    }

    #[test]
    fn session_table_clear_keeps_chain_heads() {
        let mut t = SessionTable::new();
        let head = ReqHandle {
            index: 3,
            generation: 5,
        };
        t.set_head(ClientId(2), head);
        t.record(ClientId(2), OpNumber(1), ResultBytes::from_slice(b"x"));
        t.record(
            ClientId(u32::MAX),
            OpNumber(4),
            ResultBytes::from_slice(b""),
        );
        t.clear_executed();
        assert_eq!(t.last_op(ClientId(2)), None);
        assert_eq!(t.last_op(ClientId(u32::MAX)), None);
        assert_eq!(t.head(ClientId(2)), head);
    }

    fn pages_allocated(t: &SessionTable) -> usize {
        t.pages.iter().flatten().count()
    }

    /// The first ids to arrive need not be the lowest: the table holds
    /// the pages its clients touch, not a vector doubled from whichever
    /// id came first (77,965 then 99,999 once sized one to 155,932 rows).
    #[test]
    fn session_table_allocates_the_pages_its_clients_touch() {
        let mut t = SessionTable::new();
        t.record(ClientId(77_965), OpNumber(1), ResultBytes::from_slice(b"a"));
        t.record(ClientId(99_999), OpNumber(1), ResultBytes::from_slice(b"b"));
        assert_eq!(pages_allocated(&t), 2);
        for c in 0..100_000 {
            t.set_head(ClientId(c), ReqHandle::NULL);
        }
        let pages = 100_000usize.div_ceil(SESSION_PAGE);
        assert_eq!(pages_allocated(&t), pages);
        assert_eq!(t.executed_clients(), 2);
        // Neither a reserved id nor a lookup past the last page takes one.
        t.record(
            ClientId(DENSE_CLIENT_LIMIT),
            OpNumber(1),
            ResultBytes::from_slice(&[]),
        );
        assert_eq!(t.last_op(ClientId(200_000)), None);
        assert_eq!(pages_allocated(&t), pages);
    }

    #[test]
    fn session_table_iterates_ascending_across_pages() {
        let page = SESSION_PAGE as u32;
        let ids = [
            0,
            page - 1,
            page,
            page + 1,
            5 * page + 7,
            DENSE_CLIENT_LIMIT - 1,
            DENSE_CLIENT_LIMIT,
            u32::MAX - 1,
            u32::MAX,
        ];
        let mut t = SessionTable::new();
        for (n, &c) in ids.iter().enumerate().rev() {
            t.record(
                ClientId(c),
                OpNumber(n as u64),
                ResultBytes::from_slice(&[n as u8]),
            );
        }
        // A touched row without an execution is skipped.
        t.set_head(ClientId(2 * page), ReqHandle::NULL);
        let got: Vec<(u32, u64, Vec<u8>)> = t
            .iter()
            .map(|(c, op, r)| (c, op.0, r.as_slice().to_vec()))
            .collect();
        let want: Vec<(u32, u64, Vec<u8>)> = ids
            .iter()
            .enumerate()
            .map(|(n, &c)| (c, n as u64, vec![n as u8]))
            .collect();
        assert_eq!(got, want);
        assert_eq!(t.executed_clients(), ids.len());
    }

    #[test]
    fn session_table_clear_keeps_chain_heads_on_every_page() {
        let page = SESSION_PAGE as u32;
        let ids = [1, page + 2, 3 * page, 7 * page - 1];
        let mut t = SessionTable::new();
        for (n, &c) in ids.iter().enumerate() {
            let head = ReqHandle {
                index: n as u32,
                generation: 1,
            };
            t.set_head(ClientId(c), head);
            t.record(ClientId(c), OpNumber(9), ResultBytes::from_slice(b"x"));
        }
        t.clear_executed();
        assert_eq!(t.executed_clients(), 0);
        for (n, &c) in ids.iter().enumerate() {
            assert_eq!(t.last_op(ClientId(c)), None);
            assert_eq!(t.head(ClientId(c)).index, n as u32, "client {c}");
        }
    }
}
