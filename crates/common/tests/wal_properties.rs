//! Property tests for the WAL codec and the write path.
//!
//! * **A layout oracle.** `layout` below writes each record kind from the
//!   byte layout in the `wal` module docs and calls nothing in `wal.rs`.
//!   What `Wal::log_*` streams onto a simulated disk from borrowed command
//!   bodies, a live `StateMachine` and a live `SessionTable`, and a
//!   `CheckpointData` built from transferred parts, are byte for byte what
//!   it writes, in a buffer of exactly that length.
//! * **A total decoder.** Arbitrary, truncated and bit-flipped byte strings
//!   go through `WalRecord::decode`: the answer is `None`, or a record
//!   that re-encodes to exactly the input and whose fields the oracle lays
//!   out as the input — never a panic, never an allocation sized by a
//!   length the input merely claims.
//! * **Invisible reclaiming.** A disk on which the WAL has emptied its
//!   superseded checkpoints and the accepted bodies a retained checkpoint
//!   covers replays like one that kept every record, less those accept
//!   records, and the `WalNoFsync` mode empties nothing.
//! * **Invisible elision.** A disk whose exec records leave out the bodies
//!   earlier accept records hold replays exactly like one that writes
//!   every body in.

use std::time::Duration;

use idem_common::dense::{ReqHandle, SessionTable, DENSE_CLIENT_LIMIT, SESSION_PAGE};
use idem_common::{
    CheckpointData, ClientId, Membership, OpNumber, PersistMode, ReconfigCommand, ReplicaId,
    RequestId, ResultBytes, SeqNumber, StateMachine, Wal, WalRecord,
};
use idem_simnet::{Context, Disk, Node, NodeId, Simulation, Wire};
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

/// A session table holding generated `(selector, last_op, reply)` rows.
fn sessions_of(rows: &[(u32, u64, Vec<u8>)]) -> SessionTable {
    let mut sessions = SessionTable::new();
    // Rows that exist but never executed — the rest of the first page and
    // all of a later one — must be skipped.
    sessions.set_head(ClientId(3 * SESSION_PAGE as u32), ReqHandle::NULL);
    for (sel, last_op, reply) in rows {
        // u64::MAX is the table's "no execution" marker.
        let last_op = OpNumber(*last_op % (u64::MAX - 1));
        sessions.record(
            ClientId(client_id(*sel)),
            last_op,
            ResultBytes::from_slice(reply),
        );
    }
    sessions
}

/// The rows of a session table, as a checkpoint stores them.
fn rows_of(sessions: &SessionTable) -> Vec<(u32, u64, Vec<u8>)> {
    sessions
        .iter()
        .map(|(c, op, r)| (c, op.0, r.to_vec()))
        .collect()
}

// --------------------------------------------------------------- oracle

/// One record as the test models it: plain owned fields, nothing from the
/// codec under test.
#[derive(Clone, Debug, PartialEq)]
enum Rec {
    View(u64),
    Accept {
        slot: u64,
        view: u64,
        id: RequestId,
        command: Vec<u8>,
    },
    Exec {
        slot: u64,
        id: RequestId,
        fresh: bool,
        command: Vec<u8>,
        epoch: u64,
    },
    /// A fresh exec whose command an earlier accept record holds.
    ExecElided {
        slot: u64,
        id: RequestId,
        epoch: u64,
    },
    Checkpoint {
        next_exec: u64,
        snapshot: Vec<u8>,
        clients: Vec<(u32, u64, Vec<u8>)>,
        /// `(epoch, members)`; `None` writes no tail.
        membership: Option<(u64, Vec<u32>)>,
    },
}

/// The membership tail a checkpoint at `m` carries: none at the bootstrap
/// epoch.
fn tail_of(m: &Membership) -> Option<(u64, Vec<u32>)> {
    (m.epoch().0 > 0).then(|| (m.epoch().0, m.members().iter().map(|r| r.0).collect()))
}

/// `rec` laid out as the `wal` module docs say, written without the codec.
fn layout(rec: &Rec) -> Vec<u8> {
    fn blob(out: &mut Vec<u8>, bytes: &[u8]) {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    fn id(out: &mut Vec<u8>, id: RequestId) {
        out.extend_from_slice(&id.client.0.to_le_bytes());
        out.extend_from_slice(&id.op.0.to_le_bytes());
    }
    let mut out = Vec::new();
    match rec {
        Rec::View(view) => {
            out.push(1);
            out.extend_from_slice(&view.to_le_bytes());
        }
        Rec::Accept {
            slot,
            view,
            id: rid,
            command,
        } => {
            out.push(2);
            out.extend_from_slice(&slot.to_le_bytes());
            out.extend_from_slice(&view.to_le_bytes());
            id(&mut out, *rid);
            blob(&mut out, command);
        }
        Rec::Exec {
            slot,
            id: rid,
            fresh,
            command,
            epoch,
        } => {
            out.push(3);
            out.extend_from_slice(&slot.to_le_bytes());
            id(&mut out, *rid);
            out.push(u8::from(*fresh));
            blob(&mut out, command);
            if *epoch != 0 {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        Rec::ExecElided {
            slot,
            id: rid,
            epoch,
        } => {
            out.push(3);
            out.extend_from_slice(&slot.to_le_bytes());
            id(&mut out, *rid);
            out.push(2);
            if *epoch != 0 {
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        Rec::Checkpoint {
            next_exec,
            snapshot,
            clients,
            membership,
        } => {
            out.push(4);
            out.extend_from_slice(&next_exec.to_le_bytes());
            blob(&mut out, snapshot);
            out.extend_from_slice(&(clients.len() as u32).to_le_bytes());
            for (client, last_op, reply) in clients {
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&last_op.to_le_bytes());
                blob(&mut out, reply);
            }
            if let Some((epoch, members)) = membership {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&(members.len() as u32).to_le_bytes());
                for member in members {
                    out.extend_from_slice(&member.to_le_bytes());
                }
            }
        }
    }
    out
}

/// The fields of a decoded record, copied out field by field.
fn model(rec: &WalRecord<'_>) -> Rec {
    match *rec {
        WalRecord::View(view) => Rec::View(view),
        WalRecord::Accept {
            slot,
            view,
            id,
            command,
        } => Rec::Accept {
            slot,
            view,
            id,
            command: command.to_vec(),
        },
        WalRecord::Exec {
            slot,
            id,
            fresh,
            command,
            epoch,
        } => Rec::Exec {
            slot,
            id,
            fresh,
            command: command.to_vec(),
            epoch,
        },
        WalRecord::ExecElided { slot, id, epoch } => Rec::ExecElided { slot, id, epoch },
        WalRecord::Checkpoint(ref cp) => Rec::Checkpoint {
            next_exec: cp.next_exec,
            snapshot: cp.snapshot.to_vec(),
            clients: cp
                .clients
                .iter()
                .map(|(c, op, r)| (c, op, r.to_vec()))
                .collect(),
            membership: cp
                .membership
                .as_ref()
                .map(|m| (m.epoch().0, m.members().iter().map(|r| r.0).collect())),
        },
    }
}

/// `decode` answers `None` or a record that is exactly `bytes`, both by
/// the codec's own encoder and by the oracle.
fn check_total(bytes: &[u8]) -> Result<(), String> {
    if let Some(rec) = WalRecord::decode(bytes) {
        prop_assert_eq!(rec.encoded_len(), bytes.len());
        prop_assert_eq!(&rec.encode()[..], bytes);
        prop_assert_eq!(&layout(&model(&rec))[..], bytes);
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
        kind in 0u8..5,
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
            0 => Rec::View(a),
            1 => Rec::Accept { slot: a, view: b, id: rid(c, d), command: blob },
            2 => Rec::Exec {
                slot: a,
                id: rid(c, d),
                fresh,
                command: blob,
                epoch: b % 3,
            },
            3 => Rec::ExecElided { slot: a, id: rid(c, d), epoch: b % 3 },
            _ => Rec::Checkpoint {
                next_exec: a,
                snapshot: blob,
                clients: rows,
                membership: tail_of(&membership(&joins)),
            },
        };
        let bytes = layout(&rec);
        let decoded = WalRecord::decode(&bytes);
        prop_assert_eq!(decoded.as_ref().map(model), Some(rec));
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
        self.wal.log_exec_elided(ctx, p.slot, p.id, p.epoch);
        let next_exec = SeqNumber(p.slot);
        let own = CheckpointData::capture(next_exec, &p.app, &p.sessions, &p.membership);
        self.wal.log_checkpoint(ctx, own);
        let rows = p.sessions.iter().map(|(c, op, r)| (c, op.0, r.as_slice()));
        let transferred = CheckpointData::new(next_exec, &p.app.bytes, rows, &p.membership);
        self.wal.log_checkpoint(ctx, transferred);
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
}

proptest! {
    #[test]
    fn logged_records_equal_the_documented_layout(
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
        let sessions = sessions_of(&rows);
        let membership = membership(&joins);
        let id = rid(client, op);
        let checkpoint = Rec::Checkpoint {
            next_exec: slot,
            snapshot: snapshot.clone(),
            clients: rows_of(&sessions),
            membership: tail_of(&membership),
        };
        let expected = [
            Rec::View(view),
            Rec::Accept { slot, view, id, command: command.clone() },
            Rec::Exec { slot, id, fresh, command: command.clone(), epoch },
            Rec::ExecElided { slot, id, epoch },
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
            let want = layout(rec);
            prop_assert_eq!(written, &want);
            // The disk keeps the buffer: no slack beyond the record.
            prop_assert_eq!(written.capacity(), want.len());
        }
    }
}

// ----------------------------------------------------------- reclaiming

/// One logged record; a checkpoint is either the replica's own, captured
/// from live state, or one received by state transfer, built from its
/// parts.
#[derive(Clone, Debug)]
struct Step {
    record: Rec,
    transferred: bool,
}

/// Logs a script through one `Wal`, checkpoints from live state. A fresh
/// exec is reported to the WAL as run at its slot, as a replica with
/// single-slot decisions does.
struct Scripted {
    wal: Wal,
    steps: Vec<Step>,
    sessions: SessionTable,
    membership: Membership,
}

impl Node<Msg> for Scripted {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let wal = &mut self.wal;
        for step in &self.steps {
            match &step.record {
                Rec::View(view) => wal.log_view(ctx, *view),
                Rec::Accept {
                    slot,
                    view,
                    id,
                    command,
                } => wal.log_accept(ctx, *slot, *view, *id, command),
                Rec::Exec {
                    slot,
                    id,
                    fresh,
                    command,
                    epoch,
                } => {
                    wal.log_exec(ctx, *slot, *id, *fresh, command, *epoch);
                    if *fresh {
                        wal.executed(*slot, *slot, *id);
                    }
                }
                Rec::ExecElided { slot, id, epoch } => wal.log_exec_elided(ctx, *slot, *id, *epoch),
                Rec::Checkpoint {
                    next_exec,
                    snapshot,
                    clients,
                    ..
                } if step.transferred => {
                    let rows = clients.iter().map(|(c, op, r)| (*c, *op, &r[..]));
                    let next_exec = SeqNumber(*next_exec);
                    let data = CheckpointData::new(next_exec, snapshot, rows, &self.membership);
                    wal.log_checkpoint(ctx, data);
                }
                Rec::Checkpoint {
                    next_exec,
                    snapshot,
                    ..
                } => {
                    let app = Blob {
                        bytes: snapshot.clone(),
                        streams: true,
                    };
                    let next_exec = SeqNumber(*next_exec);
                    let data =
                        CheckpointData::capture(next_exec, &app, &self.sessions, &self.membership);
                    wal.log_checkpoint(ctx, data);
                }
            }
        }
    }
    fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
}

/// Runs `steps` through a `Wal` in `mode` on a real simulated disk, and
/// returns that disk together with a plain `Disk` that got every record,
/// in full, in the same order and under the same fsync discipline.
fn logged(
    mode: PersistMode,
    steps: Vec<Step>,
    sessions: SessionTable,
    membership: Membership,
) -> (Disk, Disk) {
    let mut shadow = Disk::new();
    for step in &steps {
        shadow.append(layout(&step.record));
        if mode == PersistMode::Wal {
            shadow.fsync();
        }
    }
    let mut sim: Simulation<Msg> = Simulation::new(1);
    let node = sim.add_node(Box::new(Scripted {
        wal: Wal::new(mode),
        steps,
        sessions,
        membership,
    }));
    sim.run_for(Duration::from_millis(1));
    (std::mem::take(sim.disk_mut(node)), shadow)
}

/// A script of view, accept, exec and checkpoint records, checkpoints
/// heavy, with small slot numbers so that `next_exec` repeats and runs
/// backwards. Every checkpoint's snapshot names its step, so replay
/// installing a different checkpoint than it should shows.
fn script(
    kinds: Vec<(u8, u64, Vec<u8>)>,
    sessions: &SessionTable,
    membership: &Membership,
) -> Vec<Step> {
    let clients = rows_of(sessions);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, (kind, n, mut blob))| {
            let record = match kind {
                0 => Rec::View(n),
                1 => Rec::Accept {
                    slot: n,
                    view: 1,
                    id: rid(1, n),
                    command: blob,
                },
                2 => Rec::Exec {
                    slot: n,
                    id: rid(1, n),
                    fresh: true,
                    command: blob,
                    epoch: 0,
                },
                _ => {
                    blob.extend_from_slice(&(i as u64).to_le_bytes());
                    Rec::Checkpoint {
                        next_exec: n,
                        snapshot: blob,
                        clients: clients.clone(),
                        membership: tail_of(membership),
                    }
                }
            };
            Step {
                record,
                transferred: kind == 4,
            }
        })
        .collect()
}

/// `next_exec` of a checkpoint record, from its header.
fn checkpoint_at(bytes: &[u8]) -> Option<u64> {
    (bytes.first() == Some(&4)).then(|| u64::from_le_bytes(bytes[1..9].try_into().unwrap()))
}

/// Whether the WAL may empty record `index` of a disk that kept every
/// record: an accept record holding the body of an id with a fresh exec
/// record at the same slot below the floor — the second-highest checkpoint
/// `next_exec` on the disk, the older of the two it retains.
fn covered_body(full: &Disk, index: usize) -> bool {
    let mut frontiers: Vec<u64> = full
        .records()
        .iter()
        .filter_map(|r| checkpoint_at(r))
        .collect();
    frontiers.sort_unstable();
    let Some(&floor) = frontiers.len().checked_sub(2).map(|i| &frontiers[i]) else {
        return false;
    };
    let Some(WalRecord::Accept {
        slot, id, command, ..
    }) = WalRecord::decode(&full.records()[index])
    else {
        return false;
    };
    !command.is_empty()
        && full.records().iter().any(|r| {
            matches!(WalRecord::decode(r), Some(WalRecord::Exec { slot: ran, id: ran_id, fresh: true, .. })
                if ran == slot && ran_id == id && ran < floor)
        })
}

proptest! {
    /// Reclaiming is invisible to replay: whatever the order of
    /// `next_exec`, and with the newest checkpoint torn, the reclaimed disk
    /// replays to the same checkpoint and the same view and exec records as
    /// a disk that kept everything. The records it emptied are superseded
    /// checkpoints and accepted bodies a retained checkpoint covers, and
    /// its accept records are the full disk's less those.
    #[test]
    fn reclaimed_disk_replays_like_one_that_kept_everything(
        kinds in prop::collection::vec(
            (0u8..6, 0u64..12, prop::collection::vec(any::<u8>(), 0..12)),
            0..40,
        ),
        rows in prop::collection::vec(
            (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..8)),
            0..6,
        ),
        joins in prop::collection::vec(any::<u8>(), 0..2),
        tear in (any::<bool>(), any::<u16>()),
    ) {
        let sessions = sessions_of(&rows);
        let membership = membership(&joins);
        let steps = script(kinds, &sessions, &membership);
        let (mut disk, mut shadow) = logged(PersistMode::Wal, steps, sessions, membership);

        prop_assert_eq!(disk.len(), shadow.len());
        prop_assert_eq!(disk.synced_len(), shadow.synced_len());
        for (i, (kept, full)) in disk.records().iter().zip(shadow.records()).enumerate() {
            let reclaimed =
                kept.is_empty() && (checkpoint_at(full).is_some() || covered_body(&shadow, i));
            prop_assert!(kept == full || reclaimed, "record {} moved", i);
        }
        let checkpoints = |disk: &Disk| disk.records().iter().filter_map(|r| checkpoint_at(r)).count();
        prop_assert_eq!(checkpoints(&disk), checkpoints(&shadow).min(2));

        if let (true, cut) = tear {
            let newest = (0..shadow.len())
                .filter_map(|i| Some((checkpoint_at(&shadow.records()[i])?, i)))
                .max();
            if let Some((_, i)) = newest {
                let keep = usize::from(cut) % shadow.records()[i].len();
                disk.tear(i, keep);
                shadow.tear(i, keep);
            }
        }
        let (got, want) = (Wal::replay(disk.records(), 0), Wal::replay(shadow.records(), 0));
        prop_assert_eq!(got.checkpoint, want.checkpoint);
        let is_accept = |r: &WalRecord| matches!(r, WalRecord::Accept { .. });
        let (got_accepts, got_rest): (Vec<_>, Vec<_>) =
            got.records.into_iter().partition(is_accept);
        let want_rest: Vec<_> = want.records.into_iter().filter(|r| !is_accept(r)).collect();
        prop_assert_eq!(got_rest, want_rest);
        let kept_accepts: Vec<_> = shadow
            .records()
            .iter()
            .zip(disk.records())
            .filter(|(_, kept)| !kept.is_empty())
            .filter_map(|(full, _)| WalRecord::decode(full).filter(is_accept))
            .collect();
        prop_assert_eq!(got_accepts, kept_accepts);
    }
}

/// The broken `WalNoFsync` mode syncs nothing, so no checkpoint counts as
/// superseded: every record keeps its bytes.
#[test]
fn no_fsync_mode_reclaims_nothing() {
    let sessions = sessions_of(&[(5, 9, vec![1, 2])]);
    let membership = Membership::bootstrap(3);
    let kinds = (0..6u64).map(|n| (3 + (n % 2) as u8, n, vec![7])).collect();
    let steps = script(kinds, &sessions, &membership);
    let (disk, shadow) = logged(PersistMode::WalNoFsync, steps, sessions, membership);
    assert_eq!(disk.synced_len(), 0);
    assert_eq!(disk.records(), shadow.records());
    assert_eq!(
        disk.records().iter().filter(|r| !r.is_empty()).count(),
        6,
        "six checkpoints, all kept"
    );
}

// -------------------------------------------------------------- elision

proptest! {
    /// An elided exec record replays as the exec it stands for. Two disks
    /// get the same script of view, accept and exec records; on one, a
    /// fresh exec whose non-empty body an earlier accept record of its id
    /// holds is written as the elided form, on the other with its body.
    /// Both replay to the same records. The rule is applied here, by the
    /// test, from the layout docs; bodiless accepts (IDEM's slot bindings)
    /// and an id whose body is empty are in the mix.
    #[test]
    fn elided_exec_bodies_replay_like_written_ones(
        steps in prop::collection::vec((0u8..5, 0u64..5, 0u64..3), 0..40),
    ) {
        // Each id has one body; op 0's is empty.
        let body = |op: u64| vec![op as u8; op as usize];
        let (mut elided, mut written) = (Disk::new(), Disk::new());
        let mut held = std::collections::BTreeSet::new();
        let mut elisions = 0;
        for (i, &(kind, op, epoch)) in steps.iter().enumerate() {
            let (id, slot) = (rid(1, op), i as u64);
            let full = match kind {
                0 => Rec::View(op),
                1 => Rec::Accept { slot: u64::MAX, view: 0, id, command: body(op) },
                2 => Rec::Accept { slot, view: 0, id, command: Vec::new() },
                3 => Rec::Exec { slot, id, fresh: true, command: body(op), epoch },
                _ => Rec::Exec { slot, id, fresh: false, command: Vec::new(), epoch },
            };
            let short = match full {
                Rec::Accept { ref command, .. } => {
                    if !command.is_empty() {
                        held.insert(op);
                    }
                    full.clone()
                }
                Rec::Exec { fresh: true, .. } if held.contains(&op) => {
                    elisions += 1;
                    Rec::ExecElided { slot, id, epoch }
                }
                _ => full.clone(),
            };
            elided.append(layout(&short));
            written.append(layout(&full));
        }
        let (got, want) = (Wal::replay(elided.records(), 0), Wal::replay(written.records(), 0));
        prop_assert_eq!(&got.records, &want.records);
        prop_assert_eq!(got.records.len(), steps.len());
        let shorter = written.records().iter().map(Vec::len).sum::<usize>()
            - elided.records().iter().map(Vec::len).sum::<usize>();
        prop_assert!(shorter >= 4 * elisions, "each elision drops a blob");
    }
}
