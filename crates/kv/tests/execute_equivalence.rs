//! Property test: the borrowed-parse `execute_into` hot path must be
//! byte-equivalent to the original decode-based `execute` semantics for
//! every input — well-formed commands, truncated frames, bytes past a
//! fixed-length command, unknown tags, and raw garbage — and must leave
//! the store in the same state. A second property holds the replica
//! entry point `execute_reply`, whose GET hits share the store's buffer,
//! to the same bytes, and checks that a reply handed out never changes
//! however the store (or a clone sharing its buffers) is written later —
//! with new bytes, or with the very bytes it already holds.

use std::collections::BTreeMap;

use idem_common::app::StateMachine;
use idem_common::ResultBytes;
use idem_kv::{Command, KvStore};
use proptest::prelude::*;

/// Reference implementation: the pre-optimization semantics, expressed
/// through the public `Command` codec. Mirrors what `execute` did before
/// the borrowed-parse rewrite: decode fully (any error → BAD_COMMAND),
/// then apply.
fn reference_execute(store: &mut KvStore, raw: &[u8]) -> Vec<u8> {
    const STATUS_BAD_COMMAND: u8 = 0x02;
    match Command::decode(raw) {
        Ok(cmd) => store.execute(&cmd.encode()),
        Err(_) => vec![STATUS_BAD_COMMAND],
    }
}

/// Builds a raw command frame from generated parts; `mutation` truncates
/// or appends bytes to cover malformed frames.
fn frame(tag: u8, key: u64, payload: &[u8], cut: usize) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(payload);
    out.truncate(out.len().saturating_sub(cut));
    out
}

proptest! {
    #[test]
    fn execute_into_matches_reference(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..16, proptest::collection::vec(any::<u8>(), 0..24), 0usize..4),
            1..40,
        ),
    ) {
        let mut fast = KvStore::default();
        let mut reference = KvStore::default();
        let mut scratch = Vec::new();
        for (tag_sel, key, payload, cut) in ops {
            // Map the selector onto the real tags plus one unknown tag.
            let tag = match tag_sel {
                0 => 0x01, // GET
                1 => 0x02, // UPDATE
                2 => 0x03, // DELETE
                3 => 0x04, // SCAN
                4 => 0x7F, // unknown
                _ => 0x02,
            };
            let raw = frame(tag, key, &payload, cut);

            fast.execute_into(&raw, &mut scratch);
            let want = reference_execute(&mut reference, &raw);
            prop_assert_eq!(&scratch, &want, "reply diverged for frame {:?}", raw);
        }
        // Same observable state afterwards: digests and snapshots agree.
        prop_assert_eq!(fast.digest(), reference.digest());
        prop_assert_eq!(fast.snapshot(), reference.snapshot());
    }
}

/// Value lengths for the copy-on-write property: both sides of
/// `INLINE_RESULT_CAP` (a reply is one status byte longer than its
/// value), and few enough that an update often keeps a key's length.
const VALUE_LENS: [usize; 5] = [0, 3, 21, 22, 40];

/// A GET, UPDATE or DELETE over eight keys; UPDATE values are filled
/// with `fill`. Drawn from two fills, an UPDATE often rewrites the bytes
/// its key already holds.
fn cow_op(kind: u8, key: u64, len_sel: usize, fill: u8) -> Vec<u8> {
    match kind {
        0 | 1 => Command::Get { key }.encode(),
        2 | 3 => Command::Update {
            key,
            value: vec![fill; VALUE_LENS[len_sel]],
        }
        .encode(),
        _ => Command::Delete { key }.encode(),
    }
}

/// The store's contents, kept in the test from the command codec alone.
fn apply_model(model: &mut BTreeMap<u64, Vec<u8>>, raw: &[u8]) {
    match Command::decode(raw).expect("generated commands are well formed") {
        Command::Update { key, value } => {
            model.insert(key, value);
        }
        Command::Delete { key } => {
            model.remove(&key);
        }
        Command::Get { .. } | Command::Scan { .. } => {}
    }
}

/// `[n: u64][key: u64, len: u32, bytes]*` in key order.
fn model_snapshot(model: &BTreeMap<u64, Vec<u8>>) -> Vec<u8> {
    let mut out = (model.len() as u64).to_le_bytes().to_vec();
    for (k, v) in model {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

/// FNV-1a over each entry's key bytes, value bytes and a 0xFF separator.
fn model_digest(model: &BTreeMap<u64, Vec<u8>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in model {
        for &b in k.to_le_bytes().iter().chain(v).chain([0xFF].iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn matches_model(store: &KvStore, model: &BTreeMap<u64, Vec<u8>>) -> Result<(), String> {
    prop_assert_eq!(store.snapshot(), model_snapshot(model));
    prop_assert_eq!(store.snapshot_len(), model_snapshot(model).len());
    prop_assert_eq!(store.digest(), model_digest(model));
    Ok(())
}

/// Runs `ops` through `execute_reply` on `store` and `execute_into` on
/// `twin`, requiring equal bytes at every step; every reply is kept in
/// `held` with the bytes it had when it was returned.
fn run_twins(
    store: &mut KvStore,
    twin: &mut KvStore,
    model: &mut BTreeMap<u64, Vec<u8>>,
    ops: &[Vec<u8>],
    held: &mut Vec<(ResultBytes, Vec<u8>)>,
) -> Result<(), String> {
    let (mut scratch, mut twin_out) = (Vec::new(), Vec::new());
    for raw in ops {
        let reply = store.execute_reply(raw, &mut scratch);
        twin.execute_into(raw, &mut twin_out);
        prop_assert_eq!(&reply[..], &twin_out[..], "reply diverged for {:?}", raw);
        apply_model(model, raw);
        held.push((reply, twin_out.clone()));
    }
    Ok(())
}

proptest! {
    #[test]
    fn execute_reply_matches_execute_into_and_never_changes_a_reply(
        ops in proptest::collection::vec((0u8..5, 0u64..8, 0usize..5, any::<bool>()), 1..60),
        split in 0usize..60,
    ) {
        let ops: Vec<Vec<u8>> = ops
            .iter()
            .map(|&(kind, key, len_sel, b)| cow_op(kind, key, len_sel, if b { b'b' } else { b'a' }))
            .collect();
        let (prefix, suffix) = ops.split_at(split.min(ops.len()));
        let mut store = KvStore::default();
        let mut twin = KvStore::default();
        let mut model = BTreeMap::new();
        let mut held = Vec::new();
        run_twins(&mut store, &mut twin, &mut model, prefix, &mut held)?;
        matches_model(&store, &model)?;

        // The clone shares every buffer with `store`: writes to either
        // side must leave the other, and every reply held, as it was.
        let mut clone = store.clone();
        let mut clone_model = model.clone();
        run_twins(&mut store, &mut twin, &mut model, suffix, &mut held)?;
        matches_model(&store, &model)?;
        matches_model(&twin, &model)?;
        matches_model(&clone, &clone_model)?;

        let mut clone_twin = KvStore::default();
        clone_twin.restore(&model_snapshot(&clone_model));
        run_twins(&mut clone, &mut clone_twin, &mut clone_model, suffix, &mut held)?;
        matches_model(&clone, &clone_model)?;
        matches_model(&store, &model)?;

        for (reply, bytes) in &held {
            prop_assert_eq!(&reply[..], &bytes[..], "a reply changed after it was handed out");
        }
    }
}
