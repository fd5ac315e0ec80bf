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
//! - [`WalRecord::Exec`] — one state-machine execution, written *before*
//!   the command is applied. This is the record the chaos campaign's
//!   durability invariant audits: every op executed before a wipe must be
//!   replayable from here.
//! - [`WalRecord::Checkpoint`] — an application snapshot plus client
//!   table, bounding replay length. Only the two newest keep their bytes:
//!   appending one empties, in place, the checkpoint that falls to third.
//!
//! The write discipline is write-ahead: a record is appended **and
//! fsynced** before the replica acts on it (applies the command, sends the
//! accept, enters the view). Under power-loss truncation
//! ([`Simulation::wipe_now`](idem_simnet::Simulation::wipe_now) with
//! `truncate_to_synced`) the disk therefore always covers everything the
//! replica externalized. [`PersistMode::WalNoFsync`] deliberately breaks
//! that discipline — it exists so tests can prove the durability invariant
//! has teeth.

use idem_simnet::Context;

use crate::app::StateMachine;
use crate::dense::SessionTable;
use crate::ids::{ClientId, OpNumber, RequestId};
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

/// One durable log record, owning its bytes. See the [module docs](self)
/// for when each kind is written. The replicas write and replay through
/// the borrowed [`WalRecordRef`]; this is the form
/// [`WalRecordRef::to_owned`] copies out, and it shares that codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
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
        command: Vec<u8>,
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
        command: Vec<u8>,
        /// Membership epoch the replica was in at execution time. Encoded
        /// as an optional record tail only when nonzero, so
        /// pre-reconfiguration logs are byte-identical and decode
        /// unchanged.
        epoch: u64,
    },
    /// Application snapshot at `next_exec` plus the client reply table.
    Checkpoint {
        /// First slot *not* covered by the snapshot.
        next_exec: u64,
        /// Opaque application snapshot bytes.
        snapshot: Vec<u8>,
        /// Per-client `(client, last_op, reply)` dedup records.
        clients: Vec<(u32, u64, Vec<u8>)>,
        /// The membership the replica held at `next_exec`, written only
        /// once the group has reconfigured (`None` = still the bootstrap
        /// configuration). Encoded as an optional record tail so
        /// pre-reconfiguration logs decode unchanged.
        membership: Option<Membership>,
    },
}

/// One durable log record viewed in place: command bodies, the snapshot
/// and the client rows borrow from the record's bytes on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecordRef<'a> {
    /// See [`WalRecord::View`].
    View(u64),
    /// See [`WalRecord::Accept`].
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
    /// See [`WalRecord::Exec`].
    Exec {
        /// Execution slot, in the protocol's slot numbering.
        slot: u64,
        /// The executed request id.
        id: RequestId,
        /// Whether this was a fresh application.
        fresh: bool,
        /// The command body.
        command: &'a [u8],
        /// Membership epoch at execution time (0 = no record tail).
        epoch: u64,
    },
    /// See [`WalRecord::Checkpoint`].
    Checkpoint(CheckpointRef<'a>),
}

/// A checkpoint record viewed in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRef<'a> {
    /// First slot *not* covered by the snapshot.
    pub next_exec: u64,
    /// Opaque application snapshot bytes.
    pub snapshot: &'a [u8],
    /// Per-client dedup records.
    pub clients: ClientRows<'a>,
    /// The membership held at `next_exec` (`None` = bootstrap).
    pub membership: Option<Membership>,
}

/// The client table of a checkpoint record, still in its on-disk form.
/// [`WalRecordRef::decode`] has walked every row, so iteration cannot
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

impl<'a> WalRecordRef<'a> {
    /// The exact byte length [`encode`](Self::encode) produces.
    pub fn encoded_len(&self) -> usize {
        match self {
            WalRecordRef::View(_) => 1 + 8,
            WalRecordRef::Accept { command, .. } => 1 + 8 + 8 + 4 + 8 + 4 + command.len(),
            WalRecordRef::Exec { command, epoch, .. } => {
                1 + 8 + 4 + 8 + 1 + 4 + command.len() + if *epoch > 0 { 8 } else { 0 }
            }
            WalRecordRef::Checkpoint(cp) => {
                checkpoint_len(cp.snapshot.len(), cp.clients.iter(), cp.membership.as_ref()).1
            }
        }
    }

    /// Serializes the record to its on-disk byte form, in one buffer of
    /// exactly [`encoded_len`](Self::encoded_len) bytes.
    pub fn encode(&self) -> Vec<u8> {
        match *self {
            WalRecordRef::View(view) => build(self.encoded_len(), |out| {
                out.push(TAG_VIEW);
                put_u64(out, view);
            }),
            WalRecordRef::Accept {
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
            WalRecordRef::Exec {
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
            WalRecordRef::Checkpoint(ref cp) => encode_checkpoint(
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
    pub fn decode(bytes: &'a [u8]) -> Option<WalRecordRef<'a>> {
        let mut cur = Cursor(bytes);
        let rec = match cur.u8()? {
            TAG_VIEW => WalRecordRef::View(cur.u64()?),
            TAG_ACCEPT => WalRecordRef::Accept {
                slot: cur.u64()?,
                view: cur.u64()?,
                id: cur.id()?,
                command: cur.bytes()?,
            },
            TAG_EXEC => {
                let slot = cur.u64()?;
                let id = cur.id()?;
                let fresh = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let command = cur.bytes()?;
                // Optional epoch tail; absent means epoch 0, and a written
                // tail is never 0.
                let epoch = if cur.0.is_empty() {
                    0
                } else {
                    Some(cur.u64()?).filter(|&e| e > 0)?
                };
                WalRecordRef::Exec {
                    slot,
                    id,
                    fresh,
                    command,
                    epoch,
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
                WalRecordRef::Checkpoint(CheckpointRef {
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

    /// Copies the borrowed bytes out into an owned record.
    pub fn to_owned(&self) -> WalRecord {
        match self {
            WalRecordRef::View(view) => WalRecord::View(*view),
            WalRecordRef::Accept {
                slot,
                view,
                id,
                command,
            } => WalRecord::Accept {
                slot: *slot,
                view: *view,
                id: *id,
                command: command.to_vec(),
            },
            WalRecordRef::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            } => WalRecord::Exec {
                slot: *slot,
                id: *id,
                fresh: *fresh,
                command: command.to_vec(),
                epoch: *epoch,
            },
            WalRecordRef::Checkpoint(cp) => {
                let mut clients = Vec::with_capacity(cp.clients.len());
                clients.extend(cp.clients.iter().map(|(c, op, r)| (c, op, r.to_vec())));
                WalRecord::Checkpoint {
                    next_exec: cp.next_exec,
                    snapshot: cp.snapshot.to_vec(),
                    clients,
                    membership: cp.membership.clone(),
                }
            }
        }
    }
}

/// The rows of an owned checkpoint record, as the encoder takes them.
fn owned_rows(clients: &[(u32, u64, Vec<u8>)]) -> impl Iterator<Item = (u32, u64, &[u8])> + Clone {
    clients.iter().map(|(c, op, r)| (*c, *op, &r[..]))
}

impl WalRecord {
    /// Views a view, accept or exec record's bytes in place. A checkpoint
    /// is encoded from its owned rows instead: they have no contiguous
    /// on-disk form to borrow.
    fn borrowed(&self) -> WalRecordRef<'_> {
        match self {
            WalRecord::View(view) => WalRecordRef::View(*view),
            WalRecord::Accept {
                slot,
                view,
                id,
                command,
            } => WalRecordRef::Accept {
                slot: *slot,
                view: *view,
                id: *id,
                command,
            },
            WalRecord::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            } => WalRecordRef::Exec {
                slot: *slot,
                id: *id,
                fresh: *fresh,
                command,
                epoch: *epoch,
            },
            WalRecord::Checkpoint { .. } => {
                unreachable!("checkpoints are encoded from their owned rows")
            }
        }
    }

    /// The exact byte length [`encode`](Self::encode) produces.
    pub fn encoded_len(&self) -> usize {
        match self {
            WalRecord::Checkpoint {
                snapshot,
                clients,
                membership,
                ..
            } => checkpoint_len(snapshot.len(), owned_rows(clients), membership.as_ref()).1,
            simple => simple.borrowed().encoded_len(),
        }
    }

    /// Serializes the record to its on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Checkpoint {
                next_exec,
                snapshot,
                clients,
                membership,
            } => encode_checkpoint(
                *next_exec,
                snapshot.len(),
                |out| out.extend_from_slice(snapshot),
                owned_rows(clients),
                membership.as_ref(),
            ),
            simple => simple.borrowed().encode(),
        }
    }

    /// Decodes a record from its on-disk byte form. Returns `None` on a
    /// malformed record; see [`WalRecordRef::decode`].
    pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
        WalRecordRef::decode(bytes).map(|rec| rec.to_owned())
    }
}

/// A replica's handle on its write-ahead log: encodes records to the
/// node's disk under the configured [`PersistMode`].
///
/// Every `log_*` entry point encodes straight from the caller's borrowed
/// state into one exactly-sized record, appends it, and (unless the mode
/// is the deliberately broken [`PersistMode::WalNoFsync`]) fsyncs, making
/// the record durable before the caller acts on it. All are no-ops when
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
            self.append(ctx, WalRecordRef::View(view).encode());
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
            let rec = WalRecordRef::Accept {
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
            let rec = WalRecordRef::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            };
            self.append(ctx, rec.encode());
        }
    }

    /// Logs a [`WalRecord::Checkpoint`] of the replica's own live state at
    /// `next_exec`: the application serializes itself into the record and
    /// the session table's rows follow, with nothing materialized in
    /// between. `membership` is written only past the bootstrap epoch.
    pub fn log_checkpoint<M>(
        &self,
        ctx: &mut Context<'_, M>,
        next_exec: u64,
        app: &dyn StateMachine,
        sessions: &SessionTable,
        membership: &Membership,
    ) {
        if self.enabled() {
            let record = encode_checkpoint(
                next_exec,
                app.snapshot_len(),
                |out| app.snapshot_into(out),
                sessions.iter().map(|(c, op, r)| (c, op.0, r.as_slice())),
                written_membership(membership),
            );
            self.append_checkpoint(ctx, record);
        }
    }

    /// Logs a [`WalRecord::Checkpoint`] received by state transfer, from
    /// the transferred parts as they are.
    pub fn log_checkpoint_data<'c, M>(
        &self,
        ctx: &mut Context<'_, M>,
        next_exec: u64,
        snapshot: &[u8],
        clients: impl Iterator<Item = (u32, u64, &'c [u8])> + Clone,
        membership: &Membership,
    ) {
        if self.enabled() {
            let record = encode_checkpoint(
                next_exec,
                snapshot.len(),
                |out| out.extend_from_slice(snapshot),
                clients,
                written_membership(membership),
            );
            self.append_checkpoint(ctx, record);
        }
    }

    /// Appends a checkpoint record, then empties the one it pushed below
    /// the two newest synced checkpoints on the disk: replay decodes only
    /// the newest intact checkpoint and falls back to the previous one
    /// when the newest is torn, so a third is never read again. Ranked as
    /// [`replay`](Self::replay) ranks them, by `next_exec` and the later
    /// record on ties. Under [`PersistMode::Wal`] every record is synced
    /// by now; [`PersistMode::WalNoFsync`] syncs none, so it keeps all.
    fn append_checkpoint<M>(&self, ctx: &mut Context<'_, M>, record: Vec<u8>) {
        self.append(ctx, record);
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
                .find_map(|&(_, i)| match WalRecordRef::decode(&disk[i]) {
                    Some(WalRecordRef::Checkpoint(cp)) => Some(cp),
                    _ => None,
                });
        let records = disk
            .iter()
            .filter(|bytes| bytes.first() != Some(&TAG_CHECKPOINT))
            .filter_map(|bytes| WalRecordRef::decode(bytes))
            .collect();
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
    /// Every intact view, accept and exec record, oldest first. Malformed
    /// records are skipped.
    pub records: Vec<WalRecordRef<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(client: u32, op: u64) -> RequestId {
        RequestId {
            client: ClientId(client),
            op: OpNumber(op),
        }
    }

    #[test]
    fn records_roundtrip_through_bytes() {
        let records = vec![
            WalRecord::View(42),
            WalRecord::Accept {
                slot: 7,
                view: 2,
                id: rid(3, 11),
                command: vec![1, 2, 3],
            },
            WalRecord::Exec {
                slot: 9,
                id: rid(0, 1),
                fresh: true,
                command: Vec::new(),
                epoch: 0,
            },
            WalRecord::Exec {
                slot: 10,
                id: rid(1, 5),
                fresh: false,
                command: vec![0xFF; 100],
                epoch: 3,
            },
            WalRecord::Checkpoint {
                next_exec: 50,
                snapshot: vec![9, 9, 9],
                clients: vec![(0, 12, vec![1]), (1, 3, Vec::new())],
                membership: None,
            },
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes), Some(rec.clone()), "{rec:?}");
        }
    }

    #[test]
    fn checkpoint_membership_tail_roundtrips() {
        use crate::ids::ReplicaId;
        use crate::membership::{Membership, ReconfigCommand};
        let mut m = Membership::bootstrap(3);
        m.apply(&ReconfigCommand::Join(ReplicaId(3)));
        let rec = WalRecord::Checkpoint {
            next_exec: 50,
            snapshot: vec![9, 9],
            clients: vec![(0, 12, vec![1])],
            membership: Some(m),
        };
        let bytes = rec.encode();
        assert_eq!(bytes.len(), rec.encoded_len());
        assert_eq!(WalRecord::decode(&bytes), Some(rec.clone()));
        // A truncated tail is a malformed record, not a silent None.
        assert_eq!(WalRecord::decode(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn non_canonical_flags_and_tails_decode_to_none() {
        let exec = WalRecord::Exec {
            slot: 9,
            id: rid(0, 1),
            fresh: true,
            command: vec![5],
            epoch: 0,
        };
        let mut bytes = exec.encode();
        bytes[1 + 8 + 12] = 2; // `fresh` is written as 0 or 1 only
        assert_eq!(WalRecord::decode(&bytes), None);
        let mut bytes = exec.encode();
        bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch 0 has no tail
        assert_eq!(WalRecord::decode(&bytes), None);
    }

    #[test]
    fn replay_installs_the_newest_intact_checkpoint_only() {
        let cp = |next_exec: u64, marker: u8| {
            WalRecord::Checkpoint {
                next_exec,
                snapshot: vec![marker],
                clients: vec![(1, next_exec, vec![marker; 30])],
                membership: None,
            }
            .encode()
        };
        let exec = |slot: u64| {
            WalRecord::Exec {
                slot,
                id: rid(1, slot),
                fresh: true,
                command: vec![slot as u8],
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
