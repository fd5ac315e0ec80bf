//! The replicated key-value store state machine.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use idem_common::{ResultBytes, StateMachine, INLINE_RESULT_CAP};

use crate::command::{TAG_DELETE, TAG_GET, TAG_SCAN, TAG_UPDATE};

/// Reply status byte: operation succeeded, value attached (if any).
pub const STATUS_OK: u8 = 0x00;
/// Reply status byte: key not found.
pub const STATUS_NOT_FOUND: u8 = 0x01;
/// Reply status byte: command failed to decode.
pub const STATUS_BAD_COMMAND: u8 = 0x02;

/// A deterministic in-memory key-value store.
///
/// Keys are `u64`, values arbitrary bytes; a `BTreeMap` keeps iteration
/// (and therefore [`snapshot`](StateMachine::snapshot)) deterministic across
/// replicas, which protocol checkpoint comparison relies on.
///
/// Each value is stored in GET-reply form, `STATUS_OK` then the value
/// bytes, in one `Arc<[u8]>`. A GET hit too long to inline hands that
/// `Arc` out through [`execute_reply`](StateMachine::execute_reply), so
/// the replica's session row and the outgoing reply share the store's
/// buffer. An UPDATE that writes the bytes already stored keeps the
/// buffer, so every row holding it keeps sharing one allocation with the
/// store (workloads derive each value from its key, so most rewrites are
/// identical). Any other UPDATE overwrites in place only while nobody
/// shares the buffer and the length is unchanged; otherwise it installs a
/// fresh one (copy-on-write), so a reply once handed out never changes.
/// The derived `Clone` shares buffers the same way.
///
/// Execution costs model a memory-resident store: a base cost per operation
/// plus a small per-byte cost for values, calibrated so a three-replica
/// cluster saturates in the paper's ballpark (≈40–50 k req/s).
///
/// # Example
/// ```
/// use idem_kv::{Command, KvStore};
/// use idem_common::StateMachine;
///
/// let mut store = KvStore::new();
/// store.execute(&Command::Update { key: 1, value: b"v".to_vec() }.encode());
/// let reply = store.execute(&Command::Get { key: 1 }.encode());
/// assert_eq!(reply[0], idem_kv::store::STATUS_OK);
/// assert_eq!(&reply[1..], b"v");
/// ```
#[derive(Debug, Clone, Default)]
pub struct KvStore {
    /// Key → `[STATUS_OK, value…]`.
    map: BTreeMap<u64, Arc<[u8]>>,
    base_cost: Duration,
    per_byte_cost: Duration,
    writes: u64,
    reads: u64,
    /// Total length of all stored values, maintained incrementally so
    /// [`snapshot_len`](StateMachine::snapshot_len) is O(1) — the WAL calls
    /// it to size every checkpoint record before streaming the snapshot.
    value_bytes: usize,
}

impl KvStore {
    /// Creates an empty store with the default cost model (6 µs per
    /// operation).
    pub fn new() -> KvStore {
        KvStore::with_costs(Duration::from_micros(6), Duration::ZERO)
    }

    /// Creates an empty store with an explicit cost model.
    pub fn with_costs(base: Duration, per_byte: Duration) -> KvStore {
        KvStore {
            map: BTreeMap::new(),
            base_cost: base,
            per_byte_cost: per_byte,
            writes: 0,
            reads: 0,
            value_bytes: 0,
        }
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Reads a value directly (bypassing the command layer), for tests and
    /// state comparison.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.map.get(&key).map(|v| &v[1..])
    }

    /// Total successfully executed write commands.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total successfully executed read commands.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// A 64-bit digest of the full store contents, for cheap cross-replica
    /// state-equality assertions in tests (FNV-1a over entries).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for (k, v) in &self.map {
            for b in k.to_le_bytes() {
                mix(b);
            }
            for &b in &v[1..] {
                mix(b);
            }
            mix(0xFF);
        }
        h
    }

    /// The stored reply of a well-formed GET hit too long to inline.
    fn shared_get(&self, command: &[u8]) -> Option<&Arc<[u8]>> {
        let [TAG_GET, raw_key @ ..] = command else {
            return None;
        };
        let key = u64::from_le_bytes(raw_key.try_into().ok()?);
        self.map.get(&key).filter(|v| v.len() > INLINE_RESULT_CAP)
    }
}

/// A value in its stored form, `STATUS_OK` then the bytes, in one
/// allocation (the iterator has a trusted length).
fn stored(value: &[u8]) -> Arc<[u8]> {
    std::iter::once(STATUS_OK)
        .chain(value.iter().copied())
        .collect()
}

impl StateMachine for KvStore {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.execute_into(command, &mut out);
        out
    }

    fn execute_into(&mut self, command: &[u8], out: &mut Vec<u8>) {
        out.clear();
        // Borrowed parse, replies written straight into the caller's
        // scratch: unlike `Command::decode`, the Update value stays a slice
        // into `command` instead of round-tripping through an owned `Vec`,
        // and no reply allocates. This is the replicas' execution hot path.
        let Some((&tag, rest)) = command.split_first() else {
            out.push(STATUS_BAD_COMMAND);
            return;
        };
        let Some(raw_key) = rest.get(..8) else {
            out.push(STATUS_BAD_COMMAND);
            return;
        };
        let key = u64::from_le_bytes(raw_key.try_into().expect("8-byte slice"));
        // Only an Update's value runs on; bytes past any other command
        // make it malformed, as `Command::decode` says.
        match tag {
            TAG_GET if rest.len() == 8 => {
                self.reads += 1;
                match self.map.get(&key) {
                    Some(v) => out.extend_from_slice(v),
                    None => out.push(STATUS_NOT_FOUND),
                }
            }
            TAG_UPDATE => {
                let value = rest.get(8..).unwrap_or_default();
                self.writes += 1;
                self.value_bytes += value.len();
                match self.map.entry(key) {
                    Entry::Occupied(mut e) => {
                        let old = e.get_mut();
                        self.value_bytes -= old.len() - 1;
                        // The bytes already stored: keep the buffer, so
                        // the replies sharing it stay one allocation.
                        // Otherwise in place when no cached reply shares
                        // the buffer and the length is unchanged, else
                        // copy-on-write, so a handed-out reply keeps its bytes.
                        if old[1..] != *value {
                            match Arc::get_mut(old) {
                                Some(buf) if buf.len() == 1 + value.len() => {
                                    buf[1..].copy_from_slice(value);
                                }
                                _ => *old = stored(value),
                            }
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(stored(value));
                    }
                }
                out.push(STATUS_OK);
            }
            TAG_DELETE if rest.len() == 8 => {
                self.writes += 1;
                if let Some(old) = self.map.remove(&key) {
                    self.value_bytes -= old.len() - 1;
                    out.push(STATUS_OK);
                } else {
                    out.push(STATUS_NOT_FOUND);
                }
            }
            TAG_SCAN if rest.len() == 12 => {
                let count = u32::from_le_bytes(rest[8..].try_into().expect("4-byte slice"));
                self.reads += 1;
                out.push(STATUS_OK);
                for (k, v) in self.map.range(key..).take(count as usize) {
                    let v = &v[1..];
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                }
            }
            _ => out.push(STATUS_BAD_COMMAND),
        }
    }

    fn execute_reply(&mut self, command: &[u8], scratch: &mut Vec<u8>) -> ResultBytes {
        if let Some(v) = self.shared_get(command) {
            let reply = ResultBytes::Shared(Arc::clone(v));
            self.reads += 1;
            return reply;
        }
        self.execute_into(command, scratch);
        ResultBytes::from_slice(scratch)
    }

    fn execution_cost(&self, command: &[u8]) -> Duration {
        self.base_cost + self.per_byte_cost * command.len().saturating_sub(9) as u32
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.snapshot_len());
        self.snapshot_into(&mut out);
        out
    }

    fn snapshot_into(&self, out: &mut Vec<u8>) {
        // [n: u64][key: u64, len: u32, bytes]* — deterministic by BTreeMap order.
        let start = out.len();
        out.extend_from_slice(&(self.map.len() as u64).to_le_bytes());
        for (k, v) in &self.map {
            let v = &v[1..];
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        debug_assert_eq!(out.len() - start, self.snapshot_len());
    }

    fn snapshot_len(&self) -> usize {
        // Header + per-entry framing + the incrementally tracked value bytes.
        8 + 12 * self.map.len() + self.value_bytes
    }

    fn restore(&mut self, snapshot: &[u8]) {
        self.map.clear();
        self.value_bytes = 0;
        let mut pos = 0usize;
        let n = u64::from_le_bytes(snapshot[pos..pos + 8].try_into().expect("length prefix"));
        pos += 8;
        for _ in 0..n {
            let k = u64::from_le_bytes(snapshot[pos..pos + 8].try_into().expect("key"));
            pos += 8;
            let len = u32::from_le_bytes(snapshot[pos..pos + 4].try_into().expect("len")) as usize;
            pos += 4;
            self.value_bytes += len;
            self.map.insert(k, stored(&snapshot[pos..pos + len]));
            pos += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Command;

    fn update(key: u64, value: &[u8]) -> Vec<u8> {
        Command::Update {
            key,
            value: value.to_vec(),
        }
        .encode()
    }

    #[test]
    fn get_after_update_returns_value() {
        let mut s = KvStore::new();
        assert_eq!(s.execute(&update(5, b"hello")), vec![STATUS_OK]);
        let rep = s.execute(&Command::Get { key: 5 }.encode());
        assert_eq!(rep[0], STATUS_OK);
        assert_eq!(&rep[1..], b"hello");
    }

    #[test]
    fn get_missing_key_not_found() {
        let mut s = KvStore::new();
        assert_eq!(
            s.execute(&Command::Get { key: 1 }.encode()),
            vec![STATUS_NOT_FOUND]
        );
    }

    #[test]
    fn delete_removes_and_reports() {
        let mut s = KvStore::new();
        s.execute(&update(1, b"x"));
        assert_eq!(
            s.execute(&Command::Delete { key: 1 }.encode()),
            vec![STATUS_OK]
        );
        assert_eq!(
            s.execute(&Command::Delete { key: 1 }.encode()),
            vec![STATUS_NOT_FOUND]
        );
        assert!(s.is_empty());
    }

    #[test]
    fn scan_returns_range_in_order() {
        let mut s = KvStore::new();
        for k in [30u64, 10, 20, 40] {
            s.execute(&update(k, &k.to_le_bytes()));
        }
        let rep = s.execute(
            &Command::Scan {
                start: 15,
                count: 2,
            }
            .encode(),
        );
        assert_eq!(rep[0], STATUS_OK);
        let k1 = u64::from_le_bytes(rep[1..9].try_into().unwrap());
        assert_eq!(k1, 20);
    }

    #[test]
    fn bad_command_is_reported_not_panicked() {
        let mut s = KvStore::new();
        assert_eq!(s.execute(&[0xEE, 1, 2]), vec![STATUS_BAD_COMMAND]);
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_digest() {
        let mut a = KvStore::new();
        for k in 0..100u64 {
            a.execute(&update(k, format!("value-{k}").as_bytes()));
        }
        a.execute(&Command::Delete { key: 50 }.encode());
        let snap = a.snapshot();
        let mut b = KvStore::new();
        b.execute(&update(999, b"stale")); // must be wiped by restore
        b.restore(&snap);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(b.len(), 99);
        assert_eq!(b.get(51), Some("value-51".to_string().as_bytes()));
        assert_eq!(b.get(50), None);
    }

    #[test]
    fn snapshot_into_appends_exactly_the_snapshot() {
        let mut s = KvStore::new();
        for k in 0..20u64 {
            s.execute(&update(k, &vec![k as u8; k as usize]));
        }
        let mut out = vec![0xEE, 0xFF];
        s.snapshot_into(&mut out);
        assert_eq!(&out[..2], [0xEE, 0xFF]);
        assert_eq!(&out[2..], s.snapshot());
        assert_eq!(out.len() - 2, s.snapshot_len());
    }

    #[test]
    fn digest_differs_on_different_state() {
        let mut a = KvStore::new();
        a.execute(&update(1, b"x"));
        let mut b = KvStore::new();
        b.execute(&update(1, b"y"));
        assert_ne!(a.digest(), b.digest());
        let mut c = KvStore::new();
        c.execute(&update(2, b"x"));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn execution_is_deterministic_across_instances() {
        let script: Vec<Vec<u8>> = (0..50)
            .map(|i| update(i % 7, &[i as u8; 16]))
            .chain((0..10).map(|i| Command::Get { key: i }.encode()))
            .collect();
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        let ra: Vec<_> = script.iter().map(|c| a.execute(c)).collect();
        let rb: Vec<_> = script.iter().map(|c| b.execute(c)).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn cost_model_charges_base_plus_bytes() {
        let s = KvStore::with_costs(Duration::from_micros(10), Duration::from_nanos(2));
        let small = Command::Get { key: 1 }.encode();
        let big = Command::Update {
            key: 1,
            value: vec![0; 1000],
        }
        .encode();
        assert_eq!(s.execution_cost(&small), Duration::from_micros(10));
        assert_eq!(
            s.execution_cost(&big),
            Duration::from_micros(12) // 10 µs + 1000 B * 2 ns
        );
    }

    #[test]
    fn get_hit_shares_the_stored_buffer_past_the_inline_cap() {
        let mut s = KvStore::new();
        let mut scratch = Vec::new();
        let get = Command::Get { key: 1 }.encode();
        s.execute(&update(1, &[9; INLINE_RESULT_CAP]));
        let a = s.execute_reply(&get, &mut scratch);
        let b = s.execute_reply(&get, &mut scratch);
        let (ResultBytes::Shared(a), ResultBytes::Shared(b)) = (&a, &b) else {
            panic!("a {}-byte reply was copied inline", a.len());
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(&a[1..], s.get(1).unwrap());
        // One byte shorter, the reply fits inline and nothing is shared.
        s.execute(&update(1, &[9; INLINE_RESULT_CAP - 1]));
        let c = s.execute_reply(&get, &mut scratch);
        assert!(matches!(c, ResultBytes::Inline { len: 22, .. }));
        assert_eq!(s.reads(), 3);
    }

    #[test]
    fn read_write_counters() {
        let mut s = KvStore::new();
        s.execute(&update(1, b"a"));
        s.execute(&Command::Get { key: 1 }.encode());
        s.execute(&Command::Get { key: 2 }.encode());
        assert_eq!(s.writes(), 1);
        assert_eq!(s.reads(), 2);
    }
}
