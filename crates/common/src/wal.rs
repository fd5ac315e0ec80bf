//! Shared write-ahead log + snapshot layer over the simulated disk.
//!
//! All three protocols (IDEM, Paxos, BFT-SMaRt) persist the same four
//! record kinds through this module, each encoded to a self-contained byte
//! record on the node's [`Disk`](idem_simnet::Disk):
//!
//! - [`WalRecord::View`] — the highest view/ballot entered, so a rebooted
//!   replica never regresses below a promise it made.
//! - [`WalRecord::Accept`] — an accepted (voted-for) window entry with its
//!   command body, so accepted-but-unexecuted state survives amnesia.
//!   IDEM writes one before it binds a slot (`slot = u64::MAX`, the
//!   REQUIRE stage) and one per slot binding. A binding carries an empty
//!   command when the replica knows a REQUIRE-stage record on the same
//!   disk holds the body, so an accepted body is on a disk once. The
//!   layout is the same either way.
//! - [`WalRecord::Exec`] — one state-machine execution, written *before*
//!   the command is applied. This is the record the chaos campaign's
//!   durability invariant audits: every op executed before a wipe must be
//!   replayable from here. A fresh execution leaves its command out
//!   ([`WalRecord::ExecElided`]) when the replica knows an earlier accept
//!   record on the same disk holds that id's body — IDEM when its REQUIRE
//!   stage or a slot binding wrote it, Paxos and SMaRt always, since every
//!   entry they execute was logged with its body when it was created.
//!   [`Wal::replay`] puts the body back, so its readers see whole
//!   commands.
//! - [`WalRecord::Checkpoint`] — an application snapshot plus client
//!   table, bounding replay length. Only the two newest keep their bytes:
//!   appending one empties, in place, the checkpoint that falls to third.
//!   State transfer ships the same record ([`CheckpointData`]), and the
//!   receiver appends the bytes it got.
//!
//! The write discipline is write-ahead: a record is appended **and
//! fsynced** before the replica acts on it (applies the command, sends the
//! accept, enters the view). Under power-loss truncation
//! ([`Simulation::wipe_now`](idem_simnet::Simulation::wipe_now) with
//! `truncate_to_synced`) the disk therefore always covers everything the
//! replica externalized. [`PersistMode::WalNoFsync`] deliberately breaks
//! that discipline — it exists so tests can prove the durability invariant
//! has teeth.
//!
//! # Byte layout
//!
//! Integers are little-endian. A *blob* is a `u32` length followed by that
//! many bytes; a request *id* is its client (`u32`) followed by its op
//! (`u64`). Every record starts with a one-byte tag:
//!
//! | Kind | Bytes, in order |
//! |---|---|
//! | view | `1`, view `u64` |
//! | accept | `2`, slot `u64`, view `u64`, id, command blob |
//! | exec | `3`, slot `u64`, id, fresh `u8` (`0` or `1`), command blob, then epoch `u64` only when the epoch is not 0 |
//! | exec, body elided | `3`, slot `u64`, id, `2`, then epoch `u64` only when the epoch is not 0 |
//! | checkpoint | `4`, `next_exec` `u64`, snapshot blob, row count `u32`, that many rows of client `u32`, last op `u64`, reply blob; then, only once the group has left its bootstrap epoch, the membership: epoch `u64`, member count `u32`, one `u32` per member |
//!
//! Nothing follows the last field. A decoder refuses anything else: an
//! unknown tag, an underrun, trailing bytes, a fresh byte other than 0, 1
//! or 2, a written epoch of 0, or a membership tail that does not decode.
//! A body is elided only when it is not empty, so an empty command blob
//! never stands for an elided one.

use std::collections::HashMap;

use idem_simnet::Context;

use crate::app::StateMachine;
use crate::dense::SessionTable;
use crate::ids::{ClientId, OpNumber, RequestId, SeqNumber};
use crate::membership::Membership;

/// Whether (and how honestly) a replica persists to its simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistMode {
    /// No persistence: wipes lose everything (the pre-durability model).
    #[default]
    Disabled,
    /// Write-ahead logging with an fsync barrier after every record.
    Wal,
    /// Broken stub: appends records but never fsyncs, so power-loss
    /// truncation destroys the entire log. Test-only — proves the
    /// durability invariant catches a dishonest persistence layer.
    WalNoFsync,
}

/// One durable log record viewed in place: command bodies, the snapshot
/// and the client rows borrow from the record's bytes. See the
/// [module docs](self) for when each kind is written and how it is laid
/// out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// The replica entered (or promised) this view/ballot.
    View(u64),
    /// The replica accepted `id` with `command` at `slot` in `view`.
    Accept {
        /// Protocol slot (sequence number; `u64::MAX` = not yet bound).
        slot: u64,
        /// View the acceptance happened in.
        view: u64,
        /// The accepted request id.
        id: RequestId,
        /// The accepted command body.
        command: &'a [u8],
    },
    /// The replica executed `command` for `id` at `slot`.
    Exec {
        /// Execution slot, in the protocol's slot numbering.
        slot: u64,
        /// The executed request id.
        id: RequestId,
        /// Whether this was a fresh application (vs. a deduplicated
        /// re-delivery recorded for the audit log only).
        fresh: bool,
        /// The command body, replayed against the app on recovery.
        command: &'a [u8],
        /// Membership epoch at execution time (0 = no record tail, so
        /// pre-reconfiguration logs decode unchanged).
        epoch: u64,
    },
    /// A fresh [`Exec`](Self::Exec) whose command is left out: an earlier
    /// accept record of `id` on the same disk holds it. Only
    /// [`decode`](Self::decode) yields one; [`Wal::replay`] turns it back
    /// into an `Exec` with the command borrowed from that record.
    ExecElided {
        /// Execution slot, in the protocol's slot numbering.
        slot: u64,
        /// The executed request id.
        id: RequestId,
        /// Membership epoch at execution time, as for `Exec`.
        epoch: u64,
    },
    /// Application snapshot at `next_exec` plus the client reply table.
    Checkpoint(CheckpointRef<'a>),
}

/// A checkpoint record viewed in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef<'a> {
    /// First slot *not* covered by the snapshot.
    pub next_exec: u64,
    /// Opaque application snapshot bytes.
    pub snapshot: &'a [u8],
    /// Per-client `(client, last_op, reply)` dedup records.
    pub clients: ClientRows<'a>,
    /// The membership held at `next_exec`, written only once the group
    /// has reconfigured (`None` = still the bootstrap configuration).
    pub membership: Option<Membership>,
}

/// The client table of a checkpoint record, still in its on-disk form.
/// [`WalRecord::decode`] has walked every row, so iteration cannot
/// underrun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRows<'a> {
    count: u32,
    bytes: &'a [u8],
}

impl<'a> ClientRows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `(client, last_op, reply)` rows, in stored order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, &'a [u8])> + Clone + 'a {
        let mut cur = Cursor(self.bytes);
        (0..self.count).map_while(move |_| cur.client_row())
    }
}

const TAG_VIEW: u8 = 1;
const TAG_ACCEPT: u8 = 2;
const TAG_EXEC: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;

/// The `fresh` byte of an exec record whose command is elided.
const FRESH_ELIDED: u8 = 2;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_id(out: &mut Vec<u8>, id: RequestId) {
    put_u32(out, id.client.0);
    put_u64(out, id.op.0);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Byte cursor for decoding; every getter returns `None` on underrun.
#[derive(Clone, Copy)]
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let (&v, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.0.split_at_checked(4)?;
        self.0 = rest;
        Some(u32::from_le_bytes(head.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.0.split_at_checked(8)?;
        self.0 = rest;
        Some(u64::from_le_bytes(head.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let (head, rest) = self.0.split_at_checked(len)?;
        self.0 = rest;
        Some(head)
    }

    /// One `(client, last_op, reply)` row of a checkpoint's client table.
    fn client_row(&mut self) -> Option<(u32, u64, &'a [u8])> {
        Some((self.u32()?, self.u64()?, self.bytes()?))
    }

    fn id(&mut self) -> Option<RequestId> {
        Some(RequestId {
            client: ClientId(self.u32()?),
            op: OpNumber(self.u64()?),
        })
    }
}

/// Writes one record into a buffer of exactly `len` bytes. The disk keeps
/// the buffer (capacity included) for the rest of the run, so it is sized
/// once and never over-reserved.
fn build(len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    write(&mut out);
    debug_assert_eq!(out.len(), len);
    out
}

/// `(row count, record length)` of a checkpoint record with these parts.
fn checkpoint_len<'c>(
    snapshot_len: usize,
    clients: impl Iterator<Item = (u32, u64, &'c [u8])>,
    membership: Option<&Membership>,
) -> (u32, usize) {
    let (count, row_bytes) = clients.fold((0u32, 0usize), |(n, b), (_, _, reply)| {
        (n + 1, b + 4 + 8 + 4 + reply.len())
    });
    let tail = membership.map_or(0, |m| 12 + 4 * m.members().len());
    (count, 1 + 8 + 4 + snapshot_len + 4 + row_bytes + tail)
}

/// The one place the checkpoint layout is written. The snapshot and the
/// client rows arrive as sources rather than owned collections, so a live
/// state machine and session table stream straight into the record.
fn encode_checkpoint<'c>(
    next_exec: u64,
    snapshot_len: usize,
    write_snapshot: impl FnOnce(&mut Vec<u8>),
    clients: impl Iterator<Item = (u32, u64, &'c [u8])> + Clone,
    membership: Option<&Membership>,
) -> Vec<u8> {
    let (count, len) = checkpoint_len(snapshot_len, clients.clone(), membership);
    build(len, |out| {
        out.push(TAG_CHECKPOINT);
        put_u64(out, next_exec);
        put_u32(out, snapshot_len as u32);
        let start = out.len();
        write_snapshot(out);
        assert_eq!(
            out.len() - start,
            snapshot_len,
            "snapshot_into wrote a different length than snapshot_len promised"
        );
        put_u32(out, count);
        for (client, last_op, reply) in clients {
            put_u32(out, client);
            put_u64(out, last_op);
            put_bytes(out, reply);
        }
        if let Some(m) = membership {
            out.extend_from_slice(&m.encode());
        }
    })
}

impl<'a> WalRecord<'a> {
    /// The exact byte length [`encode`](Self::encode) produces.
    pub fn encoded_len(&self) -> usize {
        match self {
            WalRecord::View(_) => 1 + 8,
            WalRecord::Accept { command, .. } => 1 + 8 + 8 + 4 + 8 + 4 + command.len(),
            WalRecord::Exec { command, epoch, .. } => {
                1 + 8 + 4 + 8 + 1 + 4 + command.len() + if *epoch > 0 { 8 } else { 0 }
            }
            WalRecord::ExecElided { epoch, .. } => {
                1 + 8 + 4 + 8 + 1 + if *epoch > 0 { 8 } else { 0 }
            }
            WalRecord::Checkpoint(cp) => {
                checkpoint_len(cp.snapshot.len(), cp.clients.iter(), cp.membership.as_ref()).1
            }
        }
    }

    /// Serializes the record to its on-disk byte form, in one buffer of
    /// exactly [`encoded_len`](Self::encoded_len) bytes.
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            WalRecord::View(view) => build(self.encoded_len(), |out| {
                out.push(TAG_VIEW);
                put_u64(out, view);
            }),
            WalRecord::Accept {
                slot,
                view,
                id,
                command,
            } => build(self.encoded_len(), |out| {
                out.push(TAG_ACCEPT);
                put_u64(out, slot);
                put_u64(out, view);
                put_id(out, id);
                put_bytes(out, command);
            }),
            WalRecord::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            } => build(self.encoded_len(), |out| {
                out.push(TAG_EXEC);
                put_u64(out, slot);
                put_id(out, id);
                out.push(u8::from(fresh));
                put_bytes(out, command);
                if epoch > 0 {
                    put_u64(out, epoch);
                }
            }),
            WalRecord::ExecElided { slot, id, epoch } => build(self.encoded_len(), |out| {
                out.push(TAG_EXEC);
                put_u64(out, slot);
                put_id(out, id);
                out.push(FRESH_ELIDED);
                if epoch > 0 {
                    put_u64(out, epoch);
                }
            }),
            WalRecord::Checkpoint(ref cp) => encode_checkpoint(
                cp.next_exec,
                cp.snapshot.len(),
                |out| out.extend_from_slice(cp.snapshot),
                cp.clients.iter(),
                cp.membership.as_ref(),
            ),
        }
    }

    /// Views a record in its on-disk byte form. Returns `None` on anything
    /// [`encode`](Self::encode) cannot have produced: unknown tag,
    /// underrun, trailing garbage, or a non-canonical flag or tail.
    /// Allocates only for a checkpoint's membership tail.
    pub fn decode(bytes: &'a [u8]) -> Option<WalRecord<'a>> {
        let mut cur = Cursor(bytes);
        let rec = match cur.u8()? {
            TAG_VIEW => WalRecord::View(cur.u64()?),
            TAG_ACCEPT => WalRecord::Accept {
                slot: cur.u64()?,
                view: cur.u64()?,
                id: cur.id()?,
                command: cur.bytes()?,
            },
            TAG_EXEC => {
                let slot = cur.u64()?;
                let id = cur.id()?;
                let fresh = cur.u8()?;
                let command = match fresh {
                    0 | 1 => Some(cur.bytes()?),
                    FRESH_ELIDED => None,
                    _ => return None,
                };
                // Optional epoch tail; absent means epoch 0, and a written
                // tail is never 0.
                let epoch = if cur.0.is_empty() {
                    0
                } else {
                    Some(cur.u64()?).filter(|&e| e > 0)?
                };
                match command {
                    Some(command) => WalRecord::Exec {
                        slot,
                        id,
                        fresh: fresh == 1,
                        command,
                        epoch,
                    },
                    None => WalRecord::ExecElided { slot, id, epoch },
                }
            }
            TAG_CHECKPOINT => {
                let next_exec = cur.u64()?;
                let snapshot = cur.bytes()?;
                let count = cur.u32()?;
                // Walk the rows instead of trusting `count`: a corrupt
                // count underruns here, before anyone sizes a buffer by it.
                let rows = cur.0;
                for _ in 0..count {
                    cur.client_row()?;
                }
                let clients = ClientRows {
                    count,
                    bytes: &rows[..rows.len() - cur.0.len()],
                };
                // Optional membership tail: records written before the
                // group ever reconfigured (and all pre-membership logs)
                // simply end here.
                let membership = if cur.0.is_empty() {
                    None
                } else {
                    let m = Membership::decode(cur.0)?;
                    cur.0 = &[];
                    Some(m)
                };
                WalRecord::Checkpoint(CheckpointRef {
                    next_exec,
                    snapshot,
                    clients,
                    membership,
                })
            }
            _ => return None,
        };
        cur.0.is_empty().then_some(rec)
    }
}

/// A checkpoint, encoded: the [`WalRecord::Checkpoint`] record a replica
/// appends to its own disk and, unchanged, what state transfer ships and
/// the receiver appends to its disk. Only the checkpoint encoder builds
/// one, so it always decodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointData {
    record: Vec<u8>,
}

impl CheckpointData {
    /// A checkpoint of live state at `next_exec`: the application
    /// serializes itself into the record and the session table's rows
    /// follow, with nothing materialized in between. `membership` is
    /// written only past the bootstrap epoch.
    pub fn capture(
        next_exec: SeqNumber,
        app: &dyn StateMachine,
        sessions: &SessionTable,
        membership: &Membership,
    ) -> CheckpointData {
        let record = encode_checkpoint(
            next_exec.0,
            app.snapshot_len(),
            |out| app.snapshot_into(out),
            sessions.iter().map(|(c, op, r)| (c, op.0, r.as_slice())),
            written_membership(membership),
        );
        CheckpointData { record }
    }

    /// A checkpoint of these parts: the snapshot bytes and the
    /// `(client, last_op, reply)` rows, with `membership` written as by
    /// [`capture`](Self::capture).
    pub fn new<'c>(
        next_exec: SeqNumber,
        snapshot: &[u8],
        clients: impl Iterator<Item = (u32, u64, &'c [u8])> + Clone,
        membership: &Membership,
    ) -> CheckpointData {
        let record = encode_checkpoint(
            next_exec.0,
            snapshot.len(),
            |out| out.extend_from_slice(snapshot),
            clients,
            written_membership(membership),
        );
        CheckpointData { record }
    }

    /// First slot not covered by this checkpoint, in the protocol's own
    /// frontier numbering (a batch instance for SMaRt).
    pub fn next_exec(&self) -> SeqNumber {
        SeqNumber(peek_checkpoint(&self.record).expect("a checkpoint record"))
    }

    /// The record viewed in place.
    pub fn decode(&self) -> CheckpointRef<'_> {
        match WalRecord::decode(&self.record) {
            Some(WalRecord::Checkpoint(cp)) => cp,
            _ => unreachable!("built by the checkpoint encoder"),
        }
    }

    /// Estimated wire size: `8 + snapshot + Σ(12 + reply) + membership`,
    /// which is the record less its tag, the snapshot length, the row
    /// count and each row's reply length — read from the header alone.
    pub fn wire_size(&self) -> usize {
        let mut cur = Cursor(&self.record[9..]);
        let rows = cur
            .bytes()
            .and_then(|_| cur.u32())
            .expect("a checkpoint header");
        self.record.len() - 9 - 4 * rows as usize
    }
}

/// A replica's handle on its write-ahead log: encodes records to the
/// node's disk under the configured [`PersistMode`].
///
/// Every `log_*` entry point appends one exactly-sized record — encoded
/// straight from the caller's borrowed state, or for a checkpoint already
/// encoded as a [`CheckpointData`] — and (unless the mode is the
/// deliberately broken [`PersistMode::WalNoFsync`]) fsyncs, making the
/// record durable before the caller acts on it. All are no-ops when
/// persistence is disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct Wal {
    mode: PersistMode,
}

impl Wal {
    /// Creates a log handle with the given mode.
    pub fn new(mode: PersistMode) -> Wal {
        Wal { mode }
    }

    /// Whether records are written at all.
    pub fn enabled(&self) -> bool {
        self.mode != PersistMode::Disabled
    }

    /// Appends an encoded record and, in the honest mode, fsyncs.
    fn append<M>(&self, ctx: &mut Context<'_, M>, record: Vec<u8>) {
        ctx.disk_append(record);
        if self.mode == PersistMode::Wal {
            ctx.disk_fsync();
        }
    }

    /// Logs a [`WalRecord::View`].
    pub fn log_view<M>(&self, ctx: &mut Context<'_, M>, view: u64) {
        if self.enabled() {
            self.append(ctx, WalRecord::View(view).encode());
        }
    }

    /// Logs a [`WalRecord::Accept`] of `command`. Inlined, like
    /// [`log_exec`](Self::log_exec), so a replica without persistence pays
    /// one branch per request for it.
    #[inline]
    pub fn log_accept<M>(
        &self,
        ctx: &mut Context<'_, M>,
        slot: u64,
        view: u64,
        id: RequestId,
        command: &[u8],
    ) {
        if self.enabled() {
            let rec = WalRecord::Accept {
                slot,
                view,
                id,
                command,
            };
            self.append(ctx, rec.encode());
        }
    }

    /// Logs a [`WalRecord::Exec`] of `command`.
    #[inline]
    pub fn log_exec<M>(
        &self,
        ctx: &mut Context<'_, M>,
        slot: u64,
        id: RequestId,
        fresh: bool,
        command: &[u8],
        epoch: u64,
    ) {
        if self.enabled() {
            let rec = WalRecord::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            };
            self.append(ctx, rec.encode());
        }
    }

    /// Logs a [`WalRecord::ExecElided`]: the caller knows an earlier accept
    /// record of `id` on this disk holds the command.
    #[inline]
    pub fn log_exec_elided<M>(
        &self,
        ctx: &mut Context<'_, M>,
        slot: u64,
        id: RequestId,
        epoch: u64,
    ) {
        if self.enabled() {
            self.append(ctx, WalRecord::ExecElided { slot, id, epoch }.encode());
        }
    }

    /// Logs a checkpoint record — the replica's own, or one it received
    /// by state transfer, as it arrived — then empties the one it pushed
    /// below the two newest synced checkpoints on the disk: replay decodes
    /// only the newest intact checkpoint and falls back to the previous one
    /// when the newest is torn, so a third is never read again. Ranked as
    /// [`replay`](Self::replay) ranks them, by `next_exec` and the later
    /// record on ties. Under [`PersistMode::Wal`] every record is synced
    /// by now; [`PersistMode::WalNoFsync`] syncs none, so it keeps all.
    pub fn log_checkpoint<M>(&self, ctx: &mut Context<'_, M>, checkpoint: CheckpointData) {
        if !self.enabled() {
            return;
        }
        self.append(ctx, checkpoint.record);
        if self.mode == PersistMode::Wal {
            if let Some(index) = superseded_checkpoint(ctx.disk_records()) {
                ctx.disk_discard(index);
            }
        }
    }

    /// Reads a node's disk after a wipe; see [`ReplayLog`]. `disk` comes
    /// from [`Context::with_disk_records`].
    pub fn replay(disk: &[Vec<u8>]) -> ReplayLog<'_> {
        // Checkpoints are large and all but one are superseded: rank them
        // by the fixed-offset header alone and decode from the top until
        // one is intact. A reclaimed checkpoint is an empty record and no
        // candidate.
        let mut candidates: Vec<(u64, usize)> = disk
            .iter()
            .enumerate()
            .filter_map(|(i, bytes)| Some((peek_checkpoint(bytes)?, i)))
            .collect();
        candidates.sort_unstable();
        let checkpoint =
            candidates
                .iter()
                .rev()
                .find_map(|&(_, i)| match WalRecord::decode(&disk[i]) {
                    Some(WalRecord::Checkpoint(cp)) => Some(cp),
                    _ => None,
                });
        // Each id's body, from the first intact accept record that holds
        // one, for the elided exec records after it.
        let mut bodies: HashMap<RequestId, &[u8]> = HashMap::new();
        let mut unresolved = false;
        let mut records = Vec::new();
        for bytes in disk.iter().filter(|b| b.first() != Some(&TAG_CHECKPOINT)) {
            let rec = match WalRecord::decode(bytes) {
                Some(rec @ WalRecord::Accept { id, command, .. }) => {
                    if !command.is_empty() {
                        bodies.entry(id).or_insert(command);
                    }
                    rec
                }
                Some(WalRecord::ExecElided { slot, id, epoch }) => match bodies.get(&id) {
                    Some(&command) if !unresolved => WalRecord::Exec {
                        slot,
                        id,
                        fresh: true,
                        command,
                        epoch,
                    },
                    _ => {
                        unresolved = true;
                        continue;
                    }
                },
                Some(WalRecord::Exec { .. }) if unresolved => continue,
                Some(rec) => rec,
                // A torn exec record ends the executions like an
                // unresolved one: running the ones after it would move the
                // frontier past a slot replay never applied.
                None if bytes.first() == Some(&TAG_EXEC) => {
                    unresolved = true;
                    continue;
                }
                None => continue,
            };
            records.push(rec);
        }
        ReplayLog {
            checkpoint,
            records,
        }
    }
}

/// The membership tail a checkpoint at `membership` carries: none while
/// the group is still the bootstrap configuration every party knows.
fn written_membership(membership: &Membership) -> Option<&Membership> {
    (membership.epoch().0 > 0).then_some(membership)
}

/// The lowest-ranked of the three checkpoint records nearest the tail,
/// if there are three. Every earlier checkpoint was reclaimed when it fell
/// to third, so these are all the candidates on the disk, and the scan
/// back to the third covers about two checkpoint intervals.
fn superseded_checkpoint(disk: &[Vec<u8>]) -> Option<usize> {
    let mut newest = disk
        .iter()
        .enumerate()
        .rev()
        .filter_map(|(i, bytes)| Some((peek_checkpoint(bytes)?, i)));
    let (a, b, c) = (newest.next()?, newest.next()?, newest.next()?);
    Some(a.min(b).min(c).1)
}

/// `next_exec` of a checkpoint record, read from its header without
/// looking at the body. `None` for other kinds and for a record torn
/// inside the header.
fn peek_checkpoint(bytes: &[u8]) -> Option<u64> {
    let mut cur = Cursor(bytes);
    (cur.u8()? == TAG_CHECKPOINT).then_some(())?;
    cur.u64()
}

/// What a wiped replica rebuilds from: its disk, viewed in place.
#[derive(Debug)]
pub struct ReplayLog<'a> {
    /// The newest intact checkpoint: highest `next_exec`, the later record
    /// on ties. A torn or corrupt checkpoint record is passed over for the
    /// next newest — a torn tail is indistinguishable from garbage.
    pub checkpoint: Option<CheckpointRef<'a>>,
    /// Every intact view, accept and exec record, oldest first. Other
    /// malformed records are skipped. An elided exec record comes back as
    /// a [`WalRecord::Exec`] whose command borrows from the first earlier
    /// intact accept record of its id with a non-empty command; one with
    /// no such record ends the executions, as a torn tail would: it and
    /// every later exec record are left out, so replay stops before it.
    /// A torn exec record (its tag, then bytes that do not decode) ends
    /// them the same way.
    pub records: Vec<WalRecord<'a>>,
}

#[cfg(test)]
mod tests {
    use idem_simnet::Disk;

    use super::*;

    fn rid(client: u32, op: u64) -> RequestId {
        RequestId {
            client: ClientId(client),
            op: OpNumber(op),
        }
    }

    fn checkpoint(
        next_exec: u64,
        snapshot: &[u8],
        clients: &[(u32, u64, &[u8])],
        membership: &Membership,
    ) -> Vec<u8> {
        let rows = clients.iter().copied();
        CheckpointData::new(SeqNumber(next_exec), snapshot, rows, membership).record
    }

    #[test]
    fn records_roundtrip_through_bytes() {
        let bootstrap = Membership::bootstrap(3);
        let records = [
            WalRecord::View(42).encode(),
            WalRecord::Accept {
                slot: 7,
                view: 2,
                id: rid(3, 11),
                command: &[1, 2, 3],
            }
            .encode(),
            WalRecord::Exec {
                slot: 9,
                id: rid(0, 1),
                fresh: true,
                command: &[],
                epoch: 0,
            }
            .encode(),
            WalRecord::Exec {
                slot: 10,
                id: rid(1, 5),
                fresh: false,
                command: &[0xFF; 100],
                epoch: 3,
            }
            .encode(),
            WalRecord::ExecElided {
                slot: 11,
                id: rid(1, 6),
                epoch: 0,
            }
            .encode(),
            WalRecord::ExecElided {
                slot: 12,
                id: rid(1, 7),
                epoch: 4,
            }
            .encode(),
            checkpoint(50, &[9, 9, 9], &[(0, 12, &[1]), (1, 3, &[])], &bootstrap),
        ];
        for bytes in records {
            let rec = WalRecord::decode(&bytes).expect("decodes");
            assert_eq!(rec.encoded_len(), bytes.len(), "{rec:?}");
            assert_eq!(rec.encode(), bytes, "{rec:?}");
        }
    }

    #[test]
    fn checkpoint_membership_tail_roundtrips() {
        use crate::ids::ReplicaId;
        use crate::membership::ReconfigCommand;
        let mut m = Membership::bootstrap(3);
        m.apply(&ReconfigCommand::Join(ReplicaId(3)));
        let bytes = checkpoint(50, &[9, 9], &[(0, 12, &[1])], &m);
        let Some(WalRecord::Checkpoint(cp)) = WalRecord::decode(&bytes) else {
            panic!("a checkpoint record");
        };
        assert_eq!(cp.membership, Some(m));
        assert_eq!(WalRecord::Checkpoint(cp).encode(), bytes);
        // A truncated tail is a malformed record, not a silent None.
        assert_eq!(WalRecord::decode(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn non_canonical_flags_and_tails_decode_to_none() {
        let exec = WalRecord::Exec {
            slot: 9,
            id: rid(0, 1),
            fresh: true,
            command: &[5],
            epoch: 0,
        };
        let mut bytes = exec.encode();
        bytes[1 + 8 + 12] = 3; // `fresh` is written as 0, 1 or 2 only
        assert_eq!(WalRecord::decode(&bytes), None);
        let mut bytes = exec.encode();
        bytes[1 + 8 + 12] = FRESH_ELIDED; // an elided body has no blob
        assert_eq!(WalRecord::decode(&bytes), None);
        let mut bytes = exec.encode();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch 0 has no tail
        assert_eq!(WalRecord::decode(&bytes), None);
    }

    #[test]
    fn replay_installs_the_newest_intact_checkpoint_only() {
        let bootstrap = Membership::bootstrap(3);
        let cp = |next_exec: u64, marker: u8| {
            checkpoint(
                next_exec,
                &[marker],
                &[(1, next_exec, &[marker; 30])],
                &bootstrap,
            )
        };
        let exec = |slot: u64| {
            WalRecord::Exec {
                slot,
                id: rid(1, slot),
                fresh: true,
                command: &[slot as u8],
                epoch: 0,
            }
            .encode()
        };
        let mut disk = vec![
            cp(10, 1),
            exec(10),
            cp(20, 2),
            exec(20),
            cp(20, 3),
            exec(21),
            cp(15, 4), // out of order: ranked by frontier, not position
        ];
        let picked = |disk: &[Vec<u8>]| {
            let log = Wal::replay(disk);
            assert_eq!(log.records.len(), 3, "execs survive whatever is torn");
            log.checkpoint.map(|cp| (cp.next_exec, cp.snapshot[0]))
        };
        // Highest frontier wins; the later record on a tie.
        assert_eq!(picked(&disk), Some((20, 3)));
        // Torn mid-record: fall back to the other checkpoint at 20.
        disk[4].truncate(20);
        assert_eq!(picked(&disk), Some((20, 2)));
        // Torn inside the header: not even a candidate.
        disk[2].truncate(5);
        assert_eq!(picked(&disk), Some((15, 4)));
        disk[6].truncate(9);
        assert_eq!(picked(&disk), Some((10, 1)));
        // Garbage between records is skipped.
        disk.push(vec![0xAB, 1, 2]);
        assert_eq!(picked(&disk), Some((10, 1)));
        disk[0].clear();
        assert_eq!(picked(&disk), None);
    }

    /// An elided exec record whose id's body no intact accept record
    /// holds is not run with some other command: replay ends the
    /// executions before it, as at a torn tail.
    #[test]
    fn an_exec_whose_body_is_torn_away_ends_the_replayed_executions() {
        let (a, b, c) = (rid(1, 1), rid(2, 1), rid(3, 1));
        let accept = |slot: u64, id: RequestId, command: &[u8]| {
            WalRecord::Accept {
                slot,
                view: 0,
                id,
                command,
            }
            .encode()
        };
        let elided =
            |slot: u64, id: RequestId| WalRecord::ExecElided { slot, id, epoch: 0 }.encode();
        let body = |id: RequestId| [id.client.0 as u8; 3];
        let mut disk = Disk::new();
        for record in [
            accept(u64::MAX, b, &body(b)),
            accept(0, b, &[]), // a slot binding that leaves the body out
            elided(0, b),
            accept(1, a, &[]),
            accept(u64::MAX, a, &body(a)), // record 4: torn below
            accept(u64::MAX, c, &body(c)),
            elided(1, a),
            elided(2, c),
        ] {
            disk.append(record);
        }
        disk.fsync();
        // The executions replay hands out, and the frontier they reach.
        let replayed = |disk: &Disk| {
            let execs: Vec<(u64, RequestId)> = Wal::replay(disk.records())
                .records
                .iter()
                .filter_map(|rec| match *rec {
                    WalRecord::Exec {
                        slot,
                        id,
                        fresh,
                        command,
                        ..
                    } => {
                        assert!(fresh && command == body(id), "{id:?} ran {command:?}");
                        Some((slot, id))
                    }
                    _ => None,
                })
                .collect();
            let frontier = execs.iter().map(|&(slot, _)| slot + 1).max().unwrap_or(0);
            (execs, frontier)
        };
        assert_eq!(replayed(&disk), (vec![(0, b), (1, a), (2, c)], 3));
        disk.tear(4, 10);
        assert_eq!(replayed(&disk), (vec![(0, b)], 1), "stops before a's");
    }

    /// A torn exec record is not skipped over: the executions replay
    /// hands out end before it, so the frontier stays below its slot.
    #[test]
    fn a_torn_exec_record_ends_the_replayed_executions() {
        let exec = |slot: u64| {
            WalRecord::Exec {
                slot,
                id: rid(1, slot + 1),
                fresh: true,
                command: &[7; 4],
                epoch: 0,
            }
            .encode()
        };
        let execs = |disk: &Disk| {
            Wal::replay(disk.records())
                .records
                .iter()
                .filter(|rec| matches!(rec, WalRecord::Exec { .. }))
                .count()
        };
        let mut disk = Disk::new();
        disk.append(exec(0));
        disk.append(exec(1));
        disk.append(WalRecord::View(2).encode());
        disk.fsync();
        assert_eq!(execs(&disk), 2);
        disk.tear(0, 12);
        assert_eq!(execs(&disk), 0, "exec 1 is not replayed past torn exec 0");
        assert_eq!(
            Wal::replay(disk.records()).records.len(),
            1,
            "the view stays"
        );
        // A discarded record is no torn one: the executions after it stay.
        disk.discard(0);
        assert_eq!(execs(&disk), 1);
    }

    #[test]
    fn malformed_records_decode_to_none() {
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[0xAB]), None); // unknown tag
        assert_eq!(WalRecord::decode(&[TAG_VIEW, 1, 2]), None); // underrun
        let mut ok = WalRecord::View(7).encode();
        ok.push(0); // trailing garbage
        assert_eq!(WalRecord::decode(&ok), None);
    }
}
