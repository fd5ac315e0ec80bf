//! Property test: the borrowed-parse `execute_into` hot path must be
//! byte-equivalent to the original decode-based `execute` semantics for
//! every input — well-formed commands, truncated frames, bytes past a
//! fixed-length command, unknown tags, and raw garbage — and must leave
//! the store in the same state.

use idem_common::app::StateMachine;
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
