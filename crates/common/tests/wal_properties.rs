//! Property tests for the WAL codec and the streamed write path.
//!
//! * **Total decoders.** Arbitrary, truncated and bit-flipped byte strings
//!   go through both decoders (borrowed `WalRecordRef` and owned
//!   `WalRecord`): the answer is `None`, or a record that re-encodes to
//!   exactly the input — never a panic, never an allocation sized by a
//!   length the input merely claims.
//! * **One codec.** What `Wal::log_*` streams onto a simulated disk from
//!   borrowed command bodies, a live `StateMachine` and a live
//!   `SessionTable` is byte for byte what `WalRecord::encode` produces
//!   from the owned equivalent, in a buffer of exactly that length.

use std::time::Duration;

use idem_common::dense::{SessionTable, DENSE_CLIENT_LIMIT};
use idem_common::{
    ClientId, Membership, OpNumber, PersistMode, ReconfigCommand, ReplicaId, RequestId,
    ResultBytes, StateMachine, Wal, WalRecord, WalRecordRef,
};
use idem_simnet::{Context, Node, NodeId, Simulation, Wire};
use proptest::prelude::*;

fn rid(client: u32, op: u64) -> RequestId {
    RequestId::new(ClientId(client), OpNumber(op))
}

/// Maps a generated selector onto the id ranges a session table
/// distinguishes: dense ids, and the reserved pseudo-clients above
/// `DENSE_CLIENT_LIMIT` that live in its fallback tree.
fn client_id(sel: u32) -> u32 {
    match sel % 8 {
        0 => u32::MAX - (sel >> 3) % 3,
        1 => DENSE_CLIENT_LIMIT + (sel >> 3) % 5,
        _ => (sel >> 3) % 97,
    }
}

fn membership(joins: &[u8]) -> Membership {
    let mut m = Membership::bootstrap(3);
    for &j in joins {
        match j % 3 {
            0 => m.apply(&ReconfigCommand::Join(ReplicaId(3 + u32::from(j)))),
            1 => m.apply(&ReconfigCommand::Leave(ReplicaId(u32::from(j) % 4))),
            _ => m.apply(&ReconfigCommand::Replace {
                old: ReplicaId(u32::from(j) % 4),
                new: ReplicaId(100 + u32::from(j)),
            }),
        }
    }
    m
}

/// `decode` answers `None` or a record that is exactly `bytes`.
fn check_total(bytes: &[u8]) -> Result<(), String> {
    let owned = WalRecord::decode(bytes);
    match WalRecordRef::decode(bytes) {
        None => prop_assert!(owned.is_none(), "owned decoded what borrowed refused"),
        Some(rec) => {
            prop_assert_eq!(rec.encoded_len(), bytes.len());
            prop_assert_eq!(&rec.encode()[..], bytes);
            let owned = owned.expect("borrowed decoded, owned must too");
            prop_assert_eq!(owned.encoded_len(), bytes.len());
            prop_assert_eq!(&owned.encode()[..], bytes);
            prop_assert_eq!(rec.to_owned(), owned);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn decoders_are_total_on_arbitrary_bytes(
        tag in 0u8..6,
        body in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        // Bias the first byte towards real tags so the bodies get parsed.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&body);
        check_total(&bytes)?;
        check_total(&body)?;
    }

    #[test]
    fn decoders_are_total_on_damaged_records(
        kind in 0u8..4,
        nums in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
        fresh in any::<bool>(),
        blob in prop::collection::vec(any::<u8>(), 0..48),
        rows in prop::collection::vec(
            (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..30)),
            0..6,
        ),
        joins in prop::collection::vec(any::<u8>(), 0..3),
        cut in any::<u16>(),
        flip in (any::<u16>(), any::<u8>()),
    ) {
        let (a, b, c, d) = nums;
        let rec = match kind {
            0 => WalRecord::View(a),
            1 => WalRecord::Accept { slot: a, view: b, id: rid(c, d), command: blob },
            2 => WalRecord::Exec {
                slot: a,
                id: rid(c, d),
                fresh,
                command: blob,
                epoch: b % 3,
            },
            _ => WalRecord::Checkpoint {
                next_exec: a,
                snapshot: blob,
                clients: rows,
                membership: (!joins.is_empty()).then(|| membership(&joins)),
            },
        };
        let bytes = rec.encode();
        prop_assert_eq!(bytes.len(), rec.encoded_len());
        prop_assert_eq!(WalRecord::decode(&bytes), Some(rec));
        check_total(&bytes)?;
        // Every truncation is a torn write; a flipped byte is corruption.
        check_total(&bytes[..usize::from(cut) % (bytes.len() + 1)])?;
        let mut flipped = bytes.clone();
        let at = usize::from(flip.0) % flipped.len();
        flipped[at] ^= flip.1 | 1;
        check_total(&flipped)?;
    }
}

/// A corrupt checkpoint claiming 2³² − 1 client rows used to reach
/// `Vec::with_capacity(n)` — a 160 GiB reservation that aborts the
/// process — before the first row underran.
#[test]
fn huge_client_count_is_refused_not_reserved() {
    let mut bytes = vec![4u8];
    bytes.extend_from_slice(&7u64.to_le_bytes()); // next_exec
    bytes.extend_from_slice(&0u32.to_le_bytes()); // empty snapshot
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // claimed row count
    assert_eq!(WalRecord::decode(&bytes), None);
    assert_eq!(WalRecordRef::decode(&bytes), None);
    // Same with a few real rows behind the lie.
    bytes.extend_from_slice(&[0u8; 16 * 3]);
    assert_eq!(WalRecord::decode(&bytes), None);
}

// ------------------------------------------------------------ streaming

#[derive(Clone, Debug)]
struct Msg;

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        0
    }
}

/// A state machine whose state is its snapshot. `streams` picks between
/// the provided `snapshot_into` (through `snapshot()`) and an override
/// that writes in pieces, the way `KvStore` does.
struct Blob {
    bytes: Vec<u8>,
    streams: bool,
}

impl StateMachine for Blob {
    fn execute(&mut self, command: &[u8]) -> Vec<u8> {
        command.to_vec()
    }
    fn execution_cost(&self, _command: &[u8]) -> Duration {
        Duration::ZERO
    }
    fn snapshot(&self) -> Vec<u8> {
        self.bytes.clone()
    }
    fn snapshot_len(&self) -> usize {
        self.bytes.len()
    }
    fn snapshot_into(&self, out: &mut Vec<u8>) {
        if self.streams {
            for piece in self.bytes.chunks(7) {
                out.extend_from_slice(piece);
            }
        } else {
            out.extend_from_slice(&self.snapshot());
        }
    }
    fn restore(&mut self, snapshot: &[u8]) {
        self.bytes = snapshot.to_vec();
    }
}

/// Everything one case logs.
struct Plan {
    view: u64,
    slot: u64,
    id: RequestId,
    fresh: bool,
    epoch: u64,
    command: Vec<u8>,
    app: Blob,
    sessions: SessionTable,
    membership: Membership,
}

struct Logger {
    wal: Wal,
    plan: Plan,
}

impl Node<Msg> for Logger {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let p = &self.plan;
        self.wal.log_view(ctx, p.view);
        self.wal.log_accept(ctx, p.slot, p.view, p.id, &p.command);
        self.wal
            .log_exec(ctx, p.slot, p.id, p.fresh, &p.command, p.epoch);
        self.wal
            .log_checkpoint(ctx, p.slot, &p.app, &p.sessions, &p.membership);
        let rows = p.sessions.iter().map(|(c, op, r)| (c, op.0, r.as_slice()));
        self.wal
            .log_checkpoint_data(ctx, p.slot, &p.app.bytes, rows, &p.membership);
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
}

proptest! {
    #[test]
    fn streamed_records_equal_the_owned_encoding(
        nums in (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
        flags in (any::<bool>(), any::<bool>(), 0u64..3),
        command in prop::collection::vec(any::<u8>(), 0..80),
        snapshot in prop::collection::vec(any::<u8>(), 0..300),
        rows in prop::collection::vec(
            (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..40)),
            0..40,
        ),
        joins in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let (view, slot, client, op) = nums;
        let (fresh, streams, epoch) = flags;
        let mut sessions = SessionTable::new();
        sessions.reserve(32); // empty slots in between must be skipped
        for (sel, last_op, reply) in &rows {
            // u64::MAX is the table's "no execution" marker.
            let last_op = OpNumber(*last_op % (u64::MAX - 1));
            sessions.record(ClientId(client_id(*sel)), last_op, ResultBytes::from_slice(reply));
        }
        let membership = membership(&joins);
        let clients: Vec<(u32, u64, Vec<u8>)> = sessions
            .iter()
            .map(|(c, op, r)| (c, op.0, r.to_vec()))
            .collect();
        let id = rid(client, op);
        let checkpoint = WalRecord::Checkpoint {
            next_exec: slot,
            snapshot: snapshot.clone(),
            clients,
            membership: (membership.epoch().0 > 0).then(|| membership.clone()),
        };
        let expected = [
            WalRecord::View(view),
            WalRecord::Accept { slot, view, id, command: command.clone() },
            WalRecord::Exec { slot, id, fresh, command: command.clone(), epoch },
            checkpoint.clone(),
            checkpoint,
        ];

        let mut sim: Simulation<Msg> = Simulation::new(1);
        let node = sim.add_node(Box::new(Logger {
            wal: Wal::new(PersistMode::Wal),
            plan: Plan {
                view,
                slot,
                id,
                fresh,
                epoch,
                command,
                app: Blob { bytes: snapshot, streams },
                sessions,
                membership,
            },
        }));
        sim.run_for(Duration::from_millis(1));

        let disk = sim.disk(node);
        prop_assert_eq!(disk.len(), expected.len());
        prop_assert_eq!(disk.synced_len(), expected.len());
        for (written, rec) in disk.records().iter().zip(&expected) {
            prop_assert_eq!(written, &rec.encode());
            // The disk keeps the buffer: no slack beyond the record.
            prop_assert_eq!(written.capacity(), rec.encoded_len());
        }
    }
}
