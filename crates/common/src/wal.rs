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
//! Appending a checkpoint also reclaims accepted bodies. Replay installs
//! the newest intact checkpoint and falls back to the other retained one
//! when the newest is torn, so the *older* of the two is the floor below
//! which no execution is ever replayed again. Every accept record that
//! holds the body of an id whose fresh execution lies below that floor is
//! emptied in place — its REQUIRE-stage record and the binding of the
//! slot it ran at; a binding of any other slot is a vote a rebooted
//! leader must still see, and stays. A checkpoint installed by state
//! transfer covers ids that ran elsewhere, with no exec record here: each
//! id holding a body on the disk that its sessions show run counts as run
//! just below it, at slot `u64::MAX`, so only its REQUIRE-stage records
//! go ([`Wal::installed`]). Exec, view and checkpoint records
//! are never touched, so the exec history stays whole. [`Wal::replay`]
//! runs no execution below its checkpoint, so an elided exec record there
//! no longer needs its body.
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

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

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
    /// into an `Exec` with the command borrowed from that record, unless
    /// its checkpoint covers it.
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
#[derive(Debug, Clone, Default)]
pub struct Wal {
    mode: PersistMode,
    /// Under [`PersistMode::Wal`], the accepted bodies a checkpoint may
    /// reclaim (see [`log_checkpoint`](Self::log_checkpoint)).
    bodies: BodyIndex,
}

/// Where each accepted body lies on the disk and which ids have run, so a
/// checkpoint finds the bodies it covers without rescanning the disk.
#[derive(Debug, Clone, Default)]
struct BodyIndex {
    /// Disk index of the first accept record holding each id's body.
    first: HashMap<RequestId, usize>,
    /// Later records holding the body of an id already in `first` — a
    /// body accepted again, a slot re-accepted in a later view. Rare.
    more: HashMap<RequestId, Vec<usize>>,
    /// Fresh executions whose bodies have not been reclaimed yet, as
    /// `(decision, slot, id)`, in the order they were logged. That is
    /// decision order, since the frontier only moves forward; an entry
    /// out of order would only hold back the ones behind it.
    executed: VecDeque<(u64, u64, RequestId)>,
}

impl BodyIndex {
    /// Notes that record `index` holds `id`'s body.
    fn held(&mut self, id: RequestId, index: usize) {
        match self.first.entry(id) {
            Entry::Vacant(first) => {
                first.insert(index);
            }
            Entry::Occupied(_) => self.more.entry(id).or_default().push(index),
        }
    }

    /// Empties the body records of every id that ran below `floor`: those
    /// at slot `u64::MAX` or at the slot it ran at. An execution at or
    /// past the floor, and everything logged after it, waits for a later
    /// checkpoint.
    fn reclaim_below<M>(&mut self, ctx: &mut Context<'_, M>, floor: u64) {
        while let Some(&(decision, slot, id)) = self.executed.front() {
            if decision >= floor {
                break;
            }
            self.executed.pop_front();
            let more = self.more.remove(&id).into_iter().flatten();
            for index in self.first.remove(&id).into_iter().chain(more) {
                let bound = peek_accept_slot(&ctx.disk_records()[index]);
                if bound.is_some_and(|bound| bound == u64::MAX || bound == slot) {
                    ctx.disk_discard(index);
                }
            }
        }
    }
}

impl Wal {
    /// Creates a log handle with the given mode.
    pub fn new(mode: PersistMode) -> Wal {
        Wal {
            mode,
            ..Wal::default()
        }
    }

    /// Whether records are written at all.
    pub fn enabled(&self) -> bool {
        self.mode != PersistMode::Disabled
    }

    /// Whether accepted bodies are reclaimed: only when every record is
    /// synced, as for superseded checkpoints.
    fn reclaims(&self) -> bool {
        self.mode == PersistMode::Wal
    }

    /// Appends an encoded record and, in the honest mode, fsyncs. Returns
    /// the record's index on the disk.
    fn append<M>(&self, ctx: &mut Context<'_, M>, record: Vec<u8>) -> usize {
        let index = ctx.disk_append(record);
        if self.mode == PersistMode::Wal {
            ctx.disk_fsync();
        }
        index
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
        &mut self,
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
            let index = self.append(ctx, rec.encode());
            if self.reclaims() && !command.is_empty() {
                self.bodies.held(id, index);
            }
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

    /// Notes that `id` ran fresh at `slot`, part of `decision` (the slot
    /// itself, or for SMaRt its batch): the checkpoint whose append lifts
    /// the floor past `decision` reclaims the body records of `id` (see
    /// the [module docs](self)). The caller logs the exec record first.
    #[inline]
    pub fn executed(&mut self, decision: u64, slot: u64, id: RequestId) {
        if self.reclaims() {
            self.bodies.executed.push_back((decision, slot, id));
        }
    }

    /// Notes that a checkpoint installed by state transfer, at
    /// `next_exec`, covers every id holding a body on this disk that `ran`
    /// names, though no exec record of it is here: the checkpoint whose
    /// append lifts the floor past `next_exec − 1` empties its
    /// REQUIRE-stage records (slot `u64::MAX`). Its slot bindings stay:
    /// they are votes.
    pub fn installed(&mut self, next_exec: u64, ran: impl Fn(RequestId) -> bool) {
        let Some(decision) = next_exec.checked_sub(1).filter(|_| self.reclaims()) else {
            return;
        };
        let BodyIndex {
            first, executed, ..
        } = &mut self.bodies;
        let covered = first.keys().filter(|&&id| ran(id));
        executed.extend(covered.map(|&id| (decision, u64::MAX, id)));
    }

    /// Logs a checkpoint record — the replica's own, or one it received
    /// by state transfer, as it arrived — then empties the one it pushed
    /// below the two newest synced checkpoints on the disk: replay decodes
    /// only the newest intact checkpoint and falls back to the previous one
    /// when the newest is torn, so a third is never read again. Ranked as
    /// [`replay`](Self::replay) ranks them, by `next_exec` and the later
    /// record on ties. The older of the two left is the floor: every body
    /// record of an id that ran below it is emptied too (see the
    /// [module docs](self)). Under [`PersistMode::Wal`] every record is
    /// synced by now; [`PersistMode::WalNoFsync`] syncs none, so it keeps
    /// all.
    pub fn log_checkpoint<M>(&mut self, ctx: &mut Context<'_, M>, checkpoint: CheckpointData) {
        if !self.enabled() {
            return;
        }
        self.append(ctx, checkpoint.record);
        if self.reclaims() {
            let (superseded, floor) = retained_checkpoints(ctx.disk_records());
            if let Some(index) = superseded {
                ctx.disk_discard(index);
            }
            if let Some(floor) = floor {
                self.bodies.reclaim_below(ctx, floor);
            }
        }
    }

    /// Rebuilds what reclaiming needs from a replayed disk, after a wipe
    /// left this handle knowing nothing of it: where each body lies and
    /// which ids ran, a decision being `slot >> shift` as in
    /// [`replay`](Self::replay). The next checkpoint reclaims from there.
    pub fn resume(&mut self, disk: &[Vec<u8>], shift: u32) {
        if !self.reclaims() {
            return;
        }
        for (index, bytes) in disk.iter().enumerate() {
            if bytes.first() == Some(&TAG_CHECKPOINT) {
                continue;
            }
            match WalRecord::decode(bytes) {
                Some(WalRecord::Accept { id, command, .. }) if !command.is_empty() => {
                    self.bodies.held(id, index);
                }
                Some(
                    WalRecord::Exec {
                        slot,
                        id,
                        fresh: true,
                        ..
                    }
                    | WalRecord::ExecElided { slot, id, .. },
                ) => self.executed(slot >> shift, slot, id),
                _ => {}
            }
        }
    }

    /// Reads a node's disk after a wipe; see [`ReplayLog`]. `disk` comes
    /// from [`Context::with_disk_records`]. An exec record's decision is
    /// `slot >> shift`: SMaRt packs the in-batch offset into the low
    /// `shift` bits, IDEM and Paxos decide single slots (`shift = 0`).
    pub fn replay(disk: &[Vec<u8>], shift: u32) -> ReplayLog<'_> {
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
        let covered = checkpoint.as_ref().map_or(0, |cp| cp.next_exec);
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
                Some(WalRecord::Exec { .. } | WalRecord::ExecElided { .. }) if unresolved => {
                    continue
                }
                // The checkpoint covers it: kept for the audit only, so
                // its body may have been reclaimed.
                Some(rec @ WalRecord::ExecElided { slot, .. }) if slot >> shift < covered => rec,
                Some(WalRecord::ExecElided { slot, id, epoch }) => match bodies.get(&id) {
                    Some(&command) => WalRecord::Exec {
                        slot,
                        id,
                        fresh: true,
                        command,
                        epoch,
                    },
                    None => {
                        unresolved = true;
                        continue;
                    }
                },
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

/// What the checkpoint records nearest the tail say, up to three of them:
/// the lowest-ranked of three, which is superseded, and the `next_exec` of
/// the older of the two newest — the replay floor — if there are two.
/// Every earlier checkpoint was reclaimed when it fell to third, so these
/// are all the candidates on the disk, and the scan back to the third
/// covers about two checkpoint intervals.
fn retained_checkpoints(disk: &[Vec<u8>]) -> (Option<usize>, Option<u64>) {
    let mut newest = disk
        .iter()
        .enumerate()
        .rev()
        .filter_map(|(i, bytes)| Some((peek_checkpoint(bytes)?, i)));
    match [newest.next(), newest.next(), newest.next()] {
        [Some(a), Some(b), Some(c)] => {
            let mut ranked = [a, b, c];
            ranked.sort_unstable();
            (Some(ranked[0].1), Some(ranked[1].0))
        }
        [Some(a), Some(b), None] => (None, Some(a.0.min(b.0))),
        _ => (None, None),
    }
}

/// The slot of an accept record, read from its header. `None` for other
/// kinds and for an emptied record.
fn peek_accept_slot(bytes: &[u8]) -> Option<u64> {
    let mut cur = Cursor(bytes);
    (cur.u8()? == TAG_ACCEPT).then_some(())?;
    cur.u64()
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
    /// malformed records are skipped. An elided exec record below the
    /// checkpoint's `next_exec` (its decision, `slot >> shift`, compared)
    /// comes back as it is, a [`WalRecord::ExecElided`]: nothing runs it,
    /// it only re-enters the exec log, and its body may have been
    /// reclaimed. One at or past it comes back as a [`WalRecord::Exec`]
    /// whose command borrows from the first earlier intact accept record
    /// of its id with a non-empty command; one with no such record ends
    /// the executions, as a torn tail would: it and every later exec
    /// record are left out, so replay stops before it. A torn exec record
    /// (its tag, then bytes that do not decode) ends them the same way.
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
            let log = Wal::replay(disk, 0);
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
            let execs: Vec<(u64, RequestId)> = Wal::replay(disk.records(), 0)
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
            Wal::replay(disk.records(), 0)
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
            Wal::replay(disk.records(), 0).records.len(),
            1,
            "the view stays"
        );
        // A discarded record is no torn one: the executions after it stay.
        disk.discard(0);
        assert_eq!(execs(&disk), 1);
    }

    // ---------------------------------------------- reclaiming accepted bodies

    /// One step of a replica's log, as the reclaiming tests script it.
    #[derive(Clone, Copy)]
    enum Step {
        /// `id` accepted: its REQUIRE-stage record holds the body, the
        /// binding of `slot` does not.
        Accept(u64, RequestId),
        /// A binding of `slot` that holds `id`'s body itself.
        Bind(u64, RequestId),
        /// `id` ran fresh at `slot`, part of decision `.0`, logged elided.
        Run(u64, u64, RequestId),
        /// A checkpoint at `next_exec`; its snapshot is the app so far.
        Checkpoint(u64),
        /// A checkpoint at `.0` installed by state transfer, whose
        /// sessions show every op below `.1` run.
        Install(u64, u64),
    }

    fn body(id: RequestId) -> [u8; 8] {
        id.op.0.to_le_bytes()
    }

    /// The toy application: a fold over the bodies it ran, in order.
    fn run(app: u64, command: &[u8]) -> u64 {
        app.rotate_left(7) ^ u64::from_le_bytes(command.try_into().expect("an 8-byte body"))
    }

    #[derive(Debug)]
    struct Nothing;

    impl idem_simnet::Wire for Nothing {
        fn wire_size(&self) -> usize {
            0
        }
    }

    struct Logger {
        wal: Wal,
        steps: Vec<Step>,
    }

    impl idem_simnet::Node<Nothing> for Logger {
        fn on_start(&mut self, ctx: &mut Context<'_, Nothing>) {
            let mut app = 0;
            for &step in &self.steps {
                match step {
                    Step::Accept(slot, id) => {
                        self.wal.log_accept(ctx, u64::MAX, 0, id, &body(id));
                        self.wal.log_accept(ctx, slot, 0, id, &[]);
                    }
                    Step::Bind(slot, id) => self.wal.log_accept(ctx, slot, 0, id, &body(id)),
                    Step::Run(decision, slot, id) => {
                        self.wal.log_exec_elided(ctx, slot, id, 0);
                        self.wal.executed(decision, slot, id);
                        app = run(app, &body(id));
                    }
                    Step::Checkpoint(next_exec) | Step::Install(next_exec, _) => {
                        if let Step::Install(_, below) = step {
                            self.wal.installed(next_exec, |id| id.op.0 < below);
                        }
                        let rows = std::iter::empty();
                        let bootstrap = Membership::bootstrap(3);
                        let snapshot = app.to_le_bytes();
                        let cp =
                            CheckpointData::new(SeqNumber(next_exec), &snapshot, rows, &bootstrap);
                        self.wal.log_checkpoint(ctx, cp);
                    }
                }
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Nothing>, _: idem_simnet::NodeId, _: Nothing) {
        }
    }

    /// The disk a `Wal` in `mode` leaves after logging `steps`.
    fn logged(mode: PersistMode, steps: &[Step]) -> Disk {
        let mut sim: idem_simnet::Simulation<Nothing> = idem_simnet::Simulation::new(1);
        let node = sim.add_node(Box::new(Logger {
            wal: Wal::new(mode),
            steps: steps.to_vec(),
        }));
        sim.run_for(std::time::Duration::from_millis(1));
        std::mem::take(sim.disk_mut(node))
    }

    /// What a replica rebuilds from `disk`, as `ReplicaBase::replay_wal`
    /// does it: the frontier, the app, and the exec log.
    fn outcome(disk: &Disk, shift: u32) -> (u64, u64, Vec<(u64, RequestId)>) {
        let log = Wal::replay(disk.records(), shift);
        let covered = log.checkpoint.as_ref().map_or(0, |cp| cp.next_exec);
        let mut app = log.checkpoint.map_or(0, |cp| {
            u64::from_le_bytes(cp.snapshot.try_into().expect("an 8-byte snapshot"))
        });
        let (mut frontier, mut audit) = (covered, Vec::new());
        for rec in log.records {
            match rec {
                WalRecord::Exec {
                    slot, id, command, ..
                } => {
                    audit.push((slot, id));
                    if slot >> shift >= covered {
                        app = run(app, command);
                        frontier = frontier.max((slot >> shift) + 1);
                    }
                }
                WalRecord::ExecElided { slot, id, .. } => {
                    assert!(slot >> shift < covered, "elided past the checkpoint");
                    audit.push((slot, id));
                }
                _ => {}
            }
        }
        (frontier, app, audit)
    }

    /// The ids whose REQUIRE-stage record a disk has emptied.
    fn reclaimed(intact: &Disk, disk: &Disk) -> Vec<RequestId> {
        intact
            .records()
            .iter()
            .zip(disk.records())
            .filter(|(_, kept)| kept.is_empty())
            .filter_map(|(full, _)| match WalRecord::decode(full) {
                Some(WalRecord::Accept { id, .. }) => Some(id),
                _ => None,
            })
            .collect()
    }

    /// Forty ops, one decision each, every one accepted two ahead of its
    /// run, and a checkpoint every eighth. Op 5's body is in its binding
    /// only; op 7 is accepted a second time just before it runs (IDEM
    /// takes a fetched body as a new request); op 3 is bound again, with
    /// its body, at a slot it never ran at.
    fn single_slot_script() -> Vec<Step> {
        let id = |op: u64| rid(1, op);
        let accept = |op: u64| match op {
            5 => Step::Bind(5, id(5)),
            _ => Step::Accept(op, id(op)),
        };
        let mut steps = vec![accept(0), accept(1)];
        for op in 0..40 {
            if op + 2 < 40 {
                steps.push(accept(op + 2));
            }
            if op == 7 {
                steps.push(accept(7));
            }
            steps.push(Step::Run(op, op, id(op)));
            if op == 3 {
                steps.push(Step::Bind(100, id(3)));
            }
            if (op + 1) % 8 == 0 {
                steps.push(Step::Checkpoint(op + 1));
            }
        }
        steps
    }

    /// A disk whose bodies below the older retained checkpoint are gone
    /// replays to what the same log left intact replays to, and exactly
    /// those bodies are gone: both of op 7's REQUIRE-stage records and
    /// everyone else's, and the binding op 5 ran at, not op 3's binding
    /// of a slot it never ran at. The broken `WalNoFsync` mode keeps every
    /// record.
    #[test]
    fn reclaimed_bodies_replay_like_the_intact_disk() {
        let steps = single_slot_script();
        let (disk, intact) = (
            logged(PersistMode::Wal, &steps),
            logged(PersistMode::WalNoFsync, &steps),
        );
        assert!(intact.records().iter().all(|r| !r.is_empty()));
        assert_eq!(disk.len(), intact.len());
        let mut gone = reclaimed(&intact, &disk);
        gone.sort_unstable();
        // Checkpoints at 8..=40: 32 and 40 are retained, so 32 is the floor.
        let mut below: Vec<RequestId> = (0..32).chain([7]).map(|op| rid(1, op)).collect();
        below.sort_unstable();
        assert_eq!(gone, below);
        let expected = outcome(&intact, 0);
        assert_eq!(expected.0, 40);
        assert_eq!(expected.2.len(), 40);
        assert_eq!(outcome(&disk, 0), expected);
    }

    /// A transferred checkpoint covers ids with no exec record on the
    /// disk: their REQUIRE-stage bodies go once a later checkpoint lifts
    /// the floor to it. A binding that holds a body is a vote and stays,
    /// as does the body of an id the checkpoint does not show run.
    #[test]
    fn bodies_a_transferred_checkpoint_covers_go_with_the_next_floor() {
        let id = |op: u64| rid(1, op);
        let mut steps: Vec<Step> = (0..7)
            .map(|op| match op {
                5 => Step::Bind(5, id(5)),
                _ => Step::Accept(op, id(op)),
            })
            .collect();
        steps.push(Step::Install(10, 6));
        let gone = |steps: &[Step]| {
            let intact = logged(PersistMode::WalNoFsync, steps);
            reclaimed(&intact, &logged(PersistMode::Wal, steps))
        };
        assert_eq!(gone(&steps), [], "the floor is still below it");
        steps.push(Step::Checkpoint(12));
        assert_eq!(gone(&steps), (0..5).map(id).collect::<Vec<_>>());
    }

    /// Past the checkpoint an elided exec record still needs its body: one
    /// without it ends the executions. Below it, one never does.
    #[test]
    fn an_elided_exec_past_the_checkpoint_still_needs_its_body() {
        let (a, b, c) = (rid(1, 1), rid(2, 1), rid(3, 1));
        let accept = |id: RequestId| {
            WalRecord::Accept {
                slot: u64::MAX,
                view: 0,
                id,
                command: &body(id),
            }
            .encode()
        };
        let elided =
            |slot: u64, id: RequestId| WalRecord::ExecElided { slot, id, epoch: 0 }.encode();
        let bootstrap = Membership::bootstrap(3);
        let snapshot = run(0, &body(a)).to_le_bytes();
        let mut disk = Disk::new();
        for record in [
            accept(a),
            elided(0, a),
            accept(b), // record 2
            checkpoint(1, &snapshot, &[], &bootstrap),
            elided(1, b),
            accept(c),
            elided(2, c),
        ] {
            disk.append(record);
        }
        disk.fsync();
        let app = run(run(u64::from_le_bytes(snapshot), &body(b)), &body(c));
        let all = vec![(0, a), (1, b), (2, c)];
        assert_eq!(outcome(&disk, 0), (3, app, all.clone()));
        disk.discard(0);
        assert_eq!(outcome(&disk, 0), (3, app, all), "a's body is not needed");
        disk.discard(2);
        let at_checkpoint = (1, u64::from_le_bytes(snapshot), vec![(0, a)]);
        assert_eq!(outcome(&disk, 0), at_checkpoint, "b's is, and c waits");
    }

    /// Replay falls back to the older retained checkpoint when the newest
    /// is torn, so every body at or past that one is still there: the torn
    /// disk rebuilds what the intact log rebuilds. A floor taken from the
    /// newest checkpoint would have reclaimed the bodies between the two.
    #[test]
    fn a_torn_newest_checkpoint_falls_back_to_bodies_the_floor_kept() {
        let steps = single_slot_script();
        let (mut disk, mut intact) = (
            logged(PersistMode::Wal, &steps),
            logged(PersistMode::WalNoFsync, &steps),
        );
        let newest = (0..disk.len())
            .rev()
            .find(|&i| peek_checkpoint(&disk.records()[i]) == Some(40))
            .expect("the checkpoint at 40");
        let keep = disk.records()[newest].len() / 2;
        disk.tear(newest, keep);
        intact.tear(newest, keep);
        let log = Wal::replay(disk.records(), 0);
        assert_eq!(log.checkpoint.map(|cp| cp.next_exec), Some(32));
        let expected = outcome(&intact, 0);
        assert_eq!(expected.0, 40, "every op replays from 32 on");
        assert_eq!(outcome(&disk, 0), expected);
    }

    /// SMaRt's slots pack `(batch << shift) | offset`, and a batch is one
    /// decision: the WAL's floor and replay's checkpoint are compared in
    /// decisions, so a whole batch below the floor goes and comes back
    /// audited only.
    #[test]
    fn batched_slots_compare_decisions_not_slots() {
        const SHIFT: u32 = 20;
        let id = |batch: u64, offset: u64| rid(offset as u32 + 1, batch);
        let slot = |batch: u64, offset: u64| (batch << SHIFT) | offset;
        let mut steps = Vec::new();
        for batch in 0..12 {
            for offset in 0..3 {
                steps.push(Step::Accept(slot(batch, offset), id(batch, offset)));
            }
            for offset in 0..3 {
                steps.push(Step::Run(batch, slot(batch, offset), id(batch, offset)));
            }
            if (batch + 1) % 4 == 0 {
                steps.push(Step::Checkpoint(batch + 1));
            }
        }
        let (mut disk, mut intact) = (
            logged(PersistMode::Wal, &steps),
            logged(PersistMode::WalNoFsync, &steps),
        );
        // Checkpoints at batches 4, 8 and 12: batches 0..8 are below 8.
        let gone = reclaimed(&intact, &disk);
        let below: Vec<RequestId> = (0..8)
            .flat_map(|batch| (0..3).map(move |offset| id(batch, offset)))
            .collect();
        assert_eq!(gone, below);
        let expected = outcome(&intact, SHIFT);
        assert_eq!((expected.0, expected.2.len()), (12, 36));
        assert_eq!(outcome(&disk, SHIFT), expected);
        // Torn newest: replay from batch 8, whose bodies are all there.
        let newest = disk.len() - 1;
        disk.tear(newest, 12);
        intact.tear(newest, 12);
        let expected = outcome(&intact, SHIFT);
        assert_eq!(expected.0, 12);
        assert_eq!(outcome(&disk, SHIFT), expected);
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
