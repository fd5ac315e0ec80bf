//! The SMaRt baseline replica: sequential consensus over request batches.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use idem_common::app::CostModel;
use idem_common::{
    Chained, Directory, ExecRecord, Membership, PersistMode, QuorumTracker, ReconfigCommand,
    ReplayLog, Reply, ReqHandle, ReqSlab, Request, RequestId, ResultBytes, SeqNumber, SessionTable,
    StateMachine, View, Wal, WalRecordRef, RECONFIG_CLIENT,
};
use idem_simnet::{Context, Node, NodeId, SimTime, TimerId, Wire};

use crate::config::SmartConfig;
use crate::messages::SmartMessage;

/// Observable counters of one SMaRt replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SmartReplicaStats {
    pub requests_received: u64,
    pub duplicates: u64,
    pub batches_proposed: u64,
    pub batches_decided: u64,
    pub executed: u64,
    pub replies_sent: u64,
    pub accepts_sent: u64,
    pub checkpoints_taken: u64,
    pub checkpoints_installed: u64,
    pub view_changes_started: u64,
    pub view_changes_completed: u64,
    /// Peak pending-pool length — the unbounded queue of this baseline.
    pub max_pending_len: u64,
    /// Largest batch decided, to observe load-adaptive batching.
    pub max_batch_decided: u64,
}

#[derive(Debug, Clone)]
struct OpenInstance {
    sqn: SeqNumber,
    view: View,
    batch: Vec<Request>,
    votes: QuorumTracker,
}

/// Record for a request queued in (or carved from) the pending pool,
/// chained per client off the session table for single-probe duplicate
/// suppression. Freed when the request's batch decides; the matching
/// deque entry (if any) then reads as dead via its stale handle and is
/// dropped lazily — no O(pool) `retain` per decided request.
struct PendingEntry {
    id: RequestId,
    next: ReqHandle,
    /// Still in the `pending` deque. False once the leader carved the
    /// request into a proposed batch: the record then only suppresses
    /// client retransmissions until the batch decides.
    queued: bool,
}

impl Chained for PendingEntry {
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

/// One replica's VC_STATE vote: its open (un-decided) instance, if any,
/// plus the sequence number of its last stable checkpoint.
type VcVote = (Option<(SeqNumber, View, Vec<Request>)>, SeqNumber);

/// A SMaRt replica implementing [`Node`] over [`SmartMessage`].
pub struct SmartReplica {
    cfg: SmartConfig,
    me: idem_common::ReplicaId,
    dir: Directory<NodeId>,
    app: Box<dyn StateMachine + Send>,

    /// The current member list; all quorum arithmetic, leader rotation,
    /// and multicast targets derive from it. Advances when a reconfig
    /// command executes inside its (singleton) batch.
    membership: Membership,

    view: View,
    vc_target: Option<View>,
    vc_store: BTreeMap<u64, BTreeMap<u32, VcVote>>,

    /// Unbounded pool of client requests awaiting ordering. An entry
    /// whose handle no longer resolves was decided out of another
    /// replica's batch; it is skipped (and dropped) lazily.
    pending: VecDeque<(Request, ReqHandle)>,
    /// Records for queued or carved-but-undecided requests.
    pending_ids: ReqSlab<PendingEntry>,
    /// Live (queued, undecided) entries in `pending`.
    pending_live: usize,

    /// Next consensus instance to decide.
    next_sqn: SeqNumber,
    open: Option<OpenInstance>,
    /// Set when a view change revealed that a quorum member decided past
    /// `next_sqn`: the value is that higher sequence number. While set,
    /// this replica must not open instances — its `next_sqn` points at a
    /// slot that was already decided elsewhere, and proposing a fresh
    /// batch there would rewrite it. Cleared once a checkpoint (or decided
    /// proposals) advance `next_sqn` to the target.
    sync_target: Option<SeqNumber>,
    /// The undecided proposal a view-change quorum member reported for the
    /// slot this leader is syncing toward. Once caught up, the leader must
    /// re-propose exactly this batch there: another replica may have
    /// already decided it (its accept to the old leader lost), and opening
    /// a fresh batch at the same slot would decide it twice with different
    /// contents.
    vc_resume: Option<(SeqNumber, Vec<Request>)>,

    /// Per-client sessions: the `last_executed` reply cache plus the
    /// heads of the pending-request chains.
    sessions: SessionTable,
    /// Reused buffer for state-machine execution results.
    exec_scratch: Vec<u8>,

    progress_timer: Option<TimerId>,
    /// Durable logging layer (disabled unless the harness opts in).
    wal: Wal,
    /// Set by the rebuild factory after an amnesia wipe: the next
    /// `on_recover` replays the disk before rejoining.
    wipe_recovering: bool,
    /// Armed while catching up after a reboot; each firing re-asks the
    /// cluster for a checkpoint with exponential backoff.
    recovery_timer: Option<TimerId>,
    recovery_attempts: u32,
    /// Evidence that a view below our pending view-change target is still
    /// live (f+1 distinct senders): used by rejoining partitioned replicas.
    rejoin_votes: Option<(View, QuorumTracker)>,
    stats: SmartReplicaStats,

    /// When enabled, every batched command this replica consumes is
    /// appended here for post-run safety checking (see `idem_common::exec`).
    exec_log: Vec<ExecRecord>,
    exec_log_enabled: bool,
}

/// Bits reserved for the in-batch offset when packing a SMaRt execution
/// slot as `(batch_sqn << SLOT_BATCH_SHIFT) | offset`. Batches are at most
/// `max_batch` (a few hundred) long, so 20 bits is ample.
const SLOT_BATCH_SHIFT: u32 = 20;

impl SmartReplica {
    /// Creates a replica with identity `me`.
    pub fn new(
        cfg: SmartConfig,
        me: idem_common::ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> SmartReplica {
        SmartReplica {
            membership: Membership::bootstrap(cfg.quorum.n()),
            cfg,
            me,
            dir,
            app,
            view: View(0),
            vc_target: None,
            vc_store: BTreeMap::new(),
            pending: VecDeque::new(),
            pending_ids: ReqSlab::new(),
            pending_live: 0,
            next_sqn: SeqNumber(0),
            open: None,
            sync_target: None,
            vc_resume: None,
            sessions: SessionTable::new(),
            exec_scratch: Vec::new(),
            progress_timer: None,
            wal: Wal::default(),
            wipe_recovering: false,
            recovery_timer: None,
            recovery_attempts: 0,
            rejoin_votes: None,
            stats: SmartReplicaStats::default(),
            exec_log: Vec::new(),
            exec_log_enabled: false,
        }
    }

    /// Turns on execution-order recording (off by default).
    pub fn enable_exec_log(&mut self) {
        self.exec_log_enabled = true;
    }

    /// Configures durable logging to the node's simulated disk. Call before
    /// the simulation starts (and again on the object a rebuild factory
    /// produces after a wipe).
    pub fn set_persistence(&mut self, mode: PersistMode) {
        self.wal = Wal::new(mode);
    }

    /// Marks this freshly rebuilt replica as recovering from an amnesia
    /// wipe: its next `on_recover` replays the disk before rejoining.
    pub fn mark_wipe_recovery(&mut self) {
        self.wipe_recovering = true;
    }

    /// The recorded execution order (empty unless
    /// [`enable_exec_log`](Self::enable_exec_log) was called). Slots pack
    /// the batch sequence number and in-batch offset so commands inside one
    /// batch keep distinct, ordered slots.
    pub fn exec_log(&self) -> &[ExecRecord] {
        &self.exec_log
    }

    /// Protocol counters.
    pub fn stats(&self) -> &SmartReplicaStats {
        &self.stats
    }

    /// Current view ("regency").
    pub fn view(&self) -> View {
        self.view
    }

    /// Length of the pending request pool (live entries only).
    pub fn pending_len(&self) -> usize {
        self.pending_live
    }

    /// Next consensus instance to decide (the batch-level frontier).
    pub fn next_sqn(&self) -> SeqNumber {
        self.next_sqn
    }

    /// Read access to the replicated application.
    pub fn app(&self) -> &dyn StateMachine {
        &*self.app
    }

    /// The member list this replica currently operates under.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Whether this replica is part of the current membership (false for
    /// a spare that has not joined yet and for a departed member).
    pub fn is_member(&self) -> bool {
        self.membership.contains(self.me)
    }

    fn majority(&self) -> u32 {
        self.membership.majority()
    }

    fn effective_view(&self) -> View {
        self.vc_target.unwrap_or(self.view)
    }

    fn leader_of(&self, v: View) -> idem_common::ReplicaId {
        self.membership.leader_of(v)
    }

    fn is_leader(&self) -> bool {
        self.vc_target.is_none() && self.leader_of(self.view) == self.me
    }

    /// Every *member* but this one, in sorted member order — identical to
    /// the directory slice at epoch 0, and no per-multicast allocation.
    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me;
        self.membership
            .members()
            .iter()
            .copied()
            .filter(move |&r| r != me)
            .map(|r| self.dir.replica(r))
    }

    fn executed_already(&self, id: RequestId) -> bool {
        self.sessions.executed_already(id)
    }

    /// Tracks a fresh request: a slab record chained off the client's
    /// session slot plus a live deque entry.
    fn track_pending(&mut self, req: Request) {
        let id = req.id;
        let mut head = self.sessions.head(id.client);
        let h = self.pending_ids.insert(PendingEntry {
            id,
            next: ReqHandle::NULL,
            queued: true,
        });
        self.pending_ids.chain_push(&mut head, h);
        self.sessions.set_head(id.client, head);
        self.pending.push_back((req, h));
        self.pending_live += 1;
    }

    /// Frees the record for a decided request, if we track one. Its
    /// deque entry (when still queued) goes stale with the handle.
    fn untrack_pending(&mut self, id: RequestId) {
        let mut head = self.sessions.head(id.client);
        let h = self.pending_ids.chain_find(head, id);
        if h.is_null() {
            return;
        }
        if self.pending_ids.get(h).is_some_and(|e| e.queued) {
            self.pending_live -= 1;
        }
        self.pending_ids.chain_unlink(&mut head, h);
        self.sessions.set_head(id.client, head);
        self.pending_ids.remove(h);
    }

    // ------------------------------------------------------------ requests

    fn handle_request(&mut self, ctx: &mut Context<'_, SmartMessage>, req: Request) {
        self.stats.requests_received += 1;
        let id = req.id;
        if self.executed_already(id) {
            self.stats.duplicates += 1;
            if id.client == RECONFIG_CLIENT {
                // Reconfig commands have no client node to answer.
                return;
            }
            if let Some((op, reply)) = self.sessions.get(id.client) {
                if op == id.op {
                    let reply = reply.clone();
                    self.stats.replies_sent += 1;
                    let client = self.dir.client(id.client);
                    ctx.send(client, SmartMessage::Reply(Reply::new(id, reply)));
                }
            }
            return;
        }
        if !self
            .pending_ids
            .chain_find(self.sessions.head(id.client), id)
            .is_null()
        {
            self.stats.duplicates += 1;
            return;
        }
        self.track_pending(req);
        self.stats.max_pending_len = self.stats.max_pending_len.max(self.pending_live as u64);
        self.ensure_progress_timer(ctx);
        self.maybe_propose(ctx);
    }

    /// Leader: opens the next instance if none is open and work is pending
    /// (sequential consensus, Mod-SMaRt style).
    fn maybe_propose(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        if !self.is_leader() || self.open.is_some() || self.sync_target.is_some() {
            return;
        }
        let batch: Vec<Request> = match self.vc_resume.take() {
            // A quorum member reported this undecided batch for exactly
            // this slot during the last view change — it may already be
            // decided somewhere, so it goes first, unchanged.
            Some((sqn, batch)) if sqn == self.next_sqn => batch,
            // Anything else is stale: a checkpoint moved us past the slot,
            // which proves its decided contents are reflected in our state.
            _ => {
                if self.pending_live == 0 {
                    return;
                }
                // Reconfiguration commands travel in singleton batches:
                // the epoch then switches exactly at a batch boundary, so
                // the instance deciding the reconfig is the last one under
                // the old membership and the next instance's quorum is
                // drawn from the new one.
                let limit = self.pending_live.min(self.cfg.max_batch);
                let mut batch: Vec<Request> = Vec::new();
                while batch.len() < limit {
                    let Some(&(ref req, h)) = self.pending.front() else {
                        break;
                    };
                    if !self.pending_ids.contains(h) {
                        // Decided out of another replica's batch.
                        self.pending.pop_front();
                        continue;
                    }
                    if req.id.client == RECONFIG_CLIENT && !batch.is_empty() {
                        break;
                    }
                    let singleton = req.id.client == RECONFIG_CLIENT;
                    let (req, h) = self.pending.pop_front().expect("non-empty");
                    self.pending_ids.get_mut(h).expect("live").queued = false;
                    self.pending_live -= 1;
                    batch.push(req);
                    if singleton {
                        break;
                    }
                }
                batch
            }
        };
        let sqn = self.next_sqn;
        // The leader's own vote must be durable before peers can count it.
        self.persist_batch_accept(ctx, sqn, self.view, &batch);
        let mut votes = QuorumTracker::new(self.majority());
        votes.record(self.me);
        self.open = Some(OpenInstance {
            sqn,
            view: self.view,
            batch: batch.clone(),
            votes,
        });
        self.stats.batches_proposed += 1;
        let view = self.view;
        ctx.multicast(self.peers(), SmartMessage::Propose { sqn, view, batch });
        self.maybe_decide(ctx);
    }

    // ----------------------------------------------------------- agreement

    fn view_acceptable(&self, v: View) -> bool {
        match self.vc_target {
            Some(t) => v >= t,
            None => v >= self.view,
        }
    }

    /// Rejoin a still-live lower view after a failed solo view change.
    fn observe_live_view(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        v: View,
        sender: idem_common::ReplicaId,
    ) {
        let Some(target) = self.vc_target else {
            return;
        };
        if v < self.view || v >= target {
            return;
        }
        match &mut self.rejoin_votes {
            Some((lv, votes)) if *lv == v => {
                votes.record(sender);
                if votes.reached() {
                    self.rejoin_votes = None;
                    self.vc_target = None;
                    self.view = v;
                    self.vc_store.retain(|&t, _| t > v.0);
                    self.vc_resume = None;
                    self.reset_progress_timer(ctx);
                    // We likely missed instances while away: catch up.
                    ctx.multicast(self.peers(), SmartMessage::CheckpointRequest);
                }
            }
            _ => {
                let mut votes = QuorumTracker::new(self.majority());
                votes.record(sender);
                self.rejoin_votes = Some((v, votes));
            }
        }
    }

    fn enter_view_as_follower(&mut self, ctx: &mut Context<'_, SmartMessage>, v: View) {
        if v > self.view || self.vc_target == Some(v) {
            self.wal.log_view(ctx, v.0);
            self.view = v;
            self.vc_target = None;
            self.vc_store.retain(|&t, _| t > v.0);
            // A re-proposal stashed for a view change we lost must not
            // leak into some later leadership of ours.
            self.vc_resume = None;
        }
    }

    fn handle_propose(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        from: NodeId,
        sqn: SeqNumber,
        view: View,
        batch: Vec<Request>,
    ) {
        let Some(sender) = self.dir.replica_of(from) else {
            return;
        };
        if !self.membership.contains(sender) {
            // Departed (or not-yet-joined) replicas have no say in the
            // current epoch.
            return;
        }
        if !self.view_acceptable(view) {
            if self.leader_of(view) == sender {
                self.observe_live_view(ctx, view, sender);
            }
            return;
        }
        if self.leader_of(view) != sender {
            return;
        }
        if view > self.view || self.vc_target == Some(view) {
            self.enter_view_as_follower(ctx, view);
        }
        if sqn < self.next_sqn {
            return; // already decided
        }
        if sqn > self.next_sqn {
            // We are lagging: ask for a checkpoint.
            ctx.send(from, SmartMessage::CheckpointRequest);
            return;
        }
        let replace = match &self.open {
            Some(open) => view > open.view || open.sqn != sqn,
            None => true,
        };
        if replace {
            // Durable before the Accept leaves: our vote may complete the
            // quorum, so it must survive amnesia.
            self.persist_batch_accept(ctx, sqn, view, &batch);
            let mut votes = QuorumTracker::new(self.majority());
            votes.record(sender);
            votes.record(self.me);
            self.open = Some(OpenInstance {
                sqn,
                view,
                batch,
                votes,
            });
        } else if let Some(open) = &mut self.open {
            if open.view == view {
                open.votes.record(sender);
                open.votes.record(self.me);
            }
        }
        self.stats.accepts_sent += 1;
        ctx.multicast(self.peers(), SmartMessage::Accept { sqn, view });
        self.ensure_progress_timer(ctx);
        self.maybe_decide(ctx);
    }

    fn handle_accept(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        from: NodeId,
        sqn: SeqNumber,
        view: View,
    ) {
        let Some(sender) = self.dir.replica_of(from) else {
            return;
        };
        if !self.membership.contains(sender) {
            return;
        }
        if !self.view_acceptable(view) {
            self.observe_live_view(ctx, view, sender);
            return;
        }
        let leader = self.leader_of(view);
        if let Some(open) = &mut self.open {
            if open.sqn == sqn && open.view == view {
                open.votes.record(sender);
                open.votes.record(leader);
            }
        }
        self.maybe_decide(ctx);
    }

    fn maybe_decide(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        let decided = self
            .open
            .as_ref()
            .is_some_and(|open| open.votes.reached() && open.sqn == self.next_sqn);
        if !decided {
            return;
        }
        let open = self.open.take().expect("checked above");
        self.stats.batches_decided += 1;
        self.stats.max_batch_decided = self.stats.max_batch_decided.max(open.batch.len() as u64);
        let mut reconfig: Option<ReconfigCommand> = None;
        for (offset, req) in open.batch.iter().enumerate() {
            // Remove from our own pool regardless of who batched it.
            self.untrack_pending(req.id);
            let already = self.executed_already(req.id);
            let slot = (open.sqn.0 << SLOT_BATCH_SHIFT) | offset as u64;
            self.persist_exec(
                ctx,
                slot,
                req.id,
                !already,
                if already { &[] } else { &req.command[..] },
            );
            if already {
                continue;
            }
            if req.id.client == RECONFIG_CLIENT {
                // Membership change: applied to the membership instead of
                // the app, after the batch frontier advances (so the epoch
                // boundary checkpoint covers this instance); no client
                // reply.
                self.stats.executed += 1;
                self.sessions
                    .record(req.id.client, req.id.op, ResultBytes::from_slice(&[]));
                reconfig = ReconfigCommand::decode(&req.command);
                continue;
            }
            let cost = self.app.execution_cost(&req.command);
            ctx.charge(cost);
            self.app.execute_into(&req.command, &mut self.exec_scratch);
            let result = ResultBytes::from_slice(&self.exec_scratch);
            self.stats.executed += 1;
            self.sessions
                .record(req.id.client, req.id.op, result.clone());
            // Every replica replies (CFT mode of BFT-SMaRt).
            self.stats.replies_sent += 1;
            let client = self.dir.client(req.id.client);
            ctx.send(client, SmartMessage::Reply(Reply::new(req.id, result)));
        }
        self.next_sqn = self.next_sqn.next();
        if self.sync_target.is_some_and(|t| self.next_sqn >= t) {
            self.sync_target = None;
        }
        if let Some(cmd) = reconfig {
            self.apply_reconfig(ctx, &cmd);
            if !self.is_member() {
                return;
            }
        } else if self.next_sqn.0.is_multiple_of(self.cfg.checkpoint_interval) {
            self.take_checkpoint(ctx);
        }
        self.reset_progress_timer(ctx);
        self.maybe_propose(ctx);
    }

    /// Switches to the next epoch after executing a reconfiguration
    /// command: applies the change, announces the membership to clients,
    /// and takes a checkpoint at the epoch boundary so joiners bootstrap
    /// from state that already carries the new member list.
    fn apply_reconfig(&mut self, ctx: &mut Context<'_, SmartMessage>, cmd: &ReconfigCommand) {
        self.membership.apply(cmd);
        if !self.membership.contains(self.me) {
            // Voted out: stop participating. The on_message gate redirects
            // clients and ignores protocol traffic from here on.
            if let Some(t) = self.progress_timer.take() {
                ctx.cancel_timer(t);
            }
            if let Some(t) = self.recovery_timer.take() {
                ctx.cancel_timer(t);
            }
            self.pending.clear();
            self.pending_ids.clear();
            self.pending_live = 0;
            self.open = None;
            return;
        }
        // Epoch boundary = checkpoint boundary: the state-transfer path
        // hands a joiner a checkpoint whose membership already includes it.
        self.take_checkpoint(ctx);
        // Push the boundary checkpoint straight at a joiner. It is not yet
        // participating, so waiting for its own CheckpointRequest would put
        // a retry interval on the convergence path; one unsolicited
        // transfer makes it transfer-latency instead.
        if let Some(joiner) = cmd.added().filter(|&r| r != self.me) {
            ctx.send(self.dir.replica(joiner), self.checkpoint_message());
        }
        // Tell the clients where the group now lives; a stale client would
        // otherwise keep multicasting to the old epoch's replica set.
        ctx.multicast(
            self.dir.client_addrs().iter().copied(),
            SmartMessage::MembershipUpdate(self.membership.clone()),
        );
        // Leadership may have moved with the member list; the pending pool
        // is replicated at every member (clients multicast), so a promoted
        // leader proposes straight from its own copy — kick it now rather
        // than waiting for the next client arrival to trigger it.
        self.maybe_propose(ctx);
    }

    /// Takes a checkpoint: charges the serialization and streams the state
    /// into the WAL. Nothing is materialized — the only reader of a
    /// checkpoint's bytes besides the WAL is state transfer, which builds
    /// its own [`checkpoint_message`](Self::checkpoint_message) at the
    /// current frontier.
    fn take_checkpoint(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        ctx.charge(self.cfg.message_cost.message_cost(self.app.snapshot_len()));
        self.wal.log_checkpoint(
            ctx,
            self.next_sqn.0,
            &*self.app,
            &self.sessions,
            &self.membership,
        );
        self.stats.checkpoints_taken += 1;
    }

    /// The current state as a checkpoint transfer. Taken at the current
    /// frontier, so the current membership is exactly the one in force
    /// there.
    fn checkpoint_message(&self) -> SmartMessage {
        SmartMessage::Checkpoint {
            next_sqn: self.next_sqn,
            snapshot: self.app.snapshot(),
            clients: self
                .sessions
                .iter()
                .map(|(cid, op, reply)| (cid, op, reply.to_vec()))
                .collect(),
            membership: self.membership.clone(),
        }
    }

    fn handle_checkpoint_request(&mut self, ctx: &mut Context<'_, SmartMessage>, from: NodeId) {
        // Answer with a fresh checkpoint: the periodic one can predate the
        // requester's own state, which would leave a lagging replica
        // permanently unable to catch up.
        self.take_checkpoint(ctx);
        ctx.send(from, self.checkpoint_message());
    }

    fn handle_checkpoint(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        next_sqn: SeqNumber,
        snapshot: Vec<u8>,
        clients: Vec<(u32, idem_common::OpNumber, Vec<u8>)>,
        membership: Membership,
    ) {
        // Any checkpoint answer ends the post-reboot retry loop, even a
        // stale one: the cluster is reachable again.
        if let Some(timer) = self.recovery_timer.take() {
            ctx.cancel_timer(timer);
            self.recovery_attempts = 0;
        }
        if next_sqn <= self.next_sqn {
            return;
        }
        ctx.charge(self.cfg.message_cost.message_cost(snapshot.len()));
        if membership.epoch() > self.membership.epoch() {
            // Epoch-aware state transfer: the snapshot's frontier is past
            // the reconfig instances it covers, so its membership is
            // installed with it. This is how a joining spare becomes a
            // member.
            self.membership = membership;
            if self.is_member() {
                self.ensure_progress_timer(ctx);
            }
        }
        self.app.restore(&snapshot);
        let rows = clients.iter().map(|(c, op, r)| (*c, op.0, &r[..]));
        self.sessions.restore_executed(rows.clone());
        self.next_sqn = next_sqn;
        self.open = None;
        if self.sync_target.is_some_and(|t| self.next_sqn >= t) {
            self.sync_target = None;
        }
        self.stats.checkpoints_installed += 1;
        self.wal
            .log_checkpoint_data(ctx, next_sqn.0, &snapshot, rows, &self.membership);
        // Drop pending requests the checkpoint proves executed, and
        // rebuild the tracking slab from what survives. Carved-but-
        // undecided records are dropped with it — exactly the old
        // semantics of rebuilding `pending_ids` from the queue.
        let old = std::mem::take(&mut self.pending);
        let keep: Vec<Request> = old
            .into_iter()
            .filter(|&(ref r, h)| {
                self.pending_ids.contains(h)
                    && self
                        .sessions
                        .last_op(r.id.client)
                        .is_none_or(|op| op < r.id.op)
            })
            .map(|(r, _)| r)
            .collect();
        self.pending_ids.clear();
        self.pending_live = 0;
        for req in keep {
            self.track_pending(req);
        }
        self.maybe_propose(ctx);
    }

    // --------------------------------------------------------- view change

    fn ensure_progress_timer(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        if self.progress_timer.is_none() {
            self.progress_timer =
                Some(ctx.set_timer(self.cfg.progress_timeout, SmartMessage::ProgressTimer));
        }
    }

    fn has_pending_work(&self) -> bool {
        self.pending_live > 0 || self.open.is_some() || self.sync_target.is_some()
    }

    fn reset_progress_timer(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        if let Some(timer) = self.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        if self.has_pending_work() {
            self.ensure_progress_timer(ctx);
        }
    }

    fn handle_progress_timer(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        self.progress_timer = None;
        if !self.is_member() {
            return;
        }
        if self.sync_target.is_some() {
            // Still catching up after a view change: the checkpoint
            // request or its reply may have been lost — ask again.
            ctx.multicast(self.peers(), SmartMessage::CheckpointRequest);
        }
        if !self.has_pending_work() && self.sync_target.is_none() {
            return;
        }
        let target = self.effective_view().next();
        self.start_view_change(ctx, target);
        // start_view_change no-ops when a change to `target` is already in
        // flight — keep the timer armed regardless, or a stalled view
        // change would never be escalated past `target`.
        self.ensure_progress_timer(ctx);
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, SmartMessage>, target: View) {
        if target <= self.view || self.vc_target.is_some_and(|t| t >= target) {
            return;
        }
        self.vc_target = Some(target);
        self.stats.view_changes_started += 1;
        let pending = self.open.as_ref().map(|o| (o.sqn, o.view, o.batch.clone()));
        self.vc_store
            .entry(target.0)
            .or_default()
            .insert(self.me.0, (pending.clone(), self.next_sqn));
        ctx.multicast(
            self.peers(),
            SmartMessage::ViewChange {
                target,
                pending,
                next_sqn: self.next_sqn,
            },
        );
        self.ensure_progress_timer(ctx);
        self.check_new_view(ctx, target);
    }

    fn handle_view_change(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        from: NodeId,
        target: View,
        pending: Option<(SeqNumber, View, Vec<Request>)>,
        next_sqn: SeqNumber,
    ) {
        let Some(sender) = self.dir.replica_of(from) else {
            return;
        };
        if !self.membership.contains(sender) {
            return;
        }
        if target <= self.view {
            return;
        }
        self.vc_store
            .entry(target.0)
            .or_default()
            .insert(sender.0, (pending, next_sqn));
        let senders = self.vc_store[&target.0].len() as u32;
        if senders >= self.majority() && self.vc_target.is_none_or(|t| t < target) {
            self.start_view_change(ctx, target);
        }
        self.check_new_view(ctx, target);
    }

    fn check_new_view(&mut self, ctx: &mut Context<'_, SmartMessage>, target: View) {
        if self.leader_of(target) != self.me || self.vc_target != Some(target) {
            return;
        }
        let Some(msgs) = self.vc_store.get(&target.0) else {
            return;
        };
        if (msgs.len() as u32) < self.majority() {
            return;
        }
        self.enter_new_view(ctx, target);
    }

    fn enter_new_view(&mut self, ctx: &mut Context<'_, SmartMessage>, target: View) {
        self.wal.log_view(ctx, target.0);
        self.view = target;
        self.vc_target = None;
        self.stats.view_changes_completed += 1;
        let msgs = self.vc_store.remove(&target.0).unwrap_or_default();
        self.vc_store.retain(|&t, _| t > target.0);

        // The first instance the new leader may decide is the highest
        // `next_sqn` any participant reported — everything below it was
        // decided by someone. If a participant also reported an undecided
        // proposal for exactly that slot, it must be re-proposed there
        // unchanged (highest view wins): some replica may have decided it
        // already, with its accept to the old leader lost.
        let mut best: Option<(View, Vec<Request>)> = None;
        let mut max_next = self.next_sqn;
        for (_, next) in msgs.values() {
            max_next = max_next.max(*next);
        }
        for (pending, _) in msgs.into_values() {
            if let Some((sqn, view, batch)) = pending {
                if sqn >= max_next && best.as_ref().is_none_or(|(v, _)| view > *v) {
                    best = Some((view, batch));
                }
            }
        }
        self.open = None;
        self.vc_resume = best.map(|(_, batch)| (max_next, batch));
        if max_next > self.next_sqn {
            // We lag the quorum's decisions: freeze proposing until a
            // checkpoint catches us up (the progress timer retries the
            // request if it or its reply is lost). `maybe_propose` emits
            // the re-proposal once `next_sqn` reaches the slot.
            self.sync_target = Some(max_next);
            ctx.multicast(self.peers(), SmartMessage::CheckpointRequest);
        }
        self.reset_progress_timer(ctx);
        self.maybe_propose(ctx);
    }

    // ------------------------------------------------------------- recovery

    const RECOVERY_RETRY_BASE: Duration = Duration::from_millis(100);

    /// Logs one durable Accept record per command of a voted-for batch,
    /// each under its packed `(sqn << SLOT_BATCH_SHIFT) | offset` slot.
    /// No-op when persistence is off.
    fn persist_batch_accept(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        sqn: SeqNumber,
        view: View,
        batch: &[Request],
    ) {
        if !self.wal.enabled() {
            return;
        }
        for (offset, req) in batch.iter().enumerate() {
            let slot = (sqn.0 << SLOT_BATCH_SHIFT) | offset as u64;
            self.wal.log_accept(ctx, slot, view.0, req.id, &req.command);
        }
    }

    /// Logs (and, when persistence is on, fsyncs) one execution record
    /// *before* the execution side effects happen, then feeds the in-memory
    /// exec log used by the safety checker.
    fn persist_exec(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        slot: u64,
        id: RequestId,
        fresh: bool,
        command: &[u8],
    ) {
        let epoch = self.membership.epoch().0;
        self.wal.log_exec(ctx, slot, id, fresh, command, epoch);
        if self.exec_log_enabled {
            self.exec_log
                .push(ExecRecord::at_epoch(slot, id, fresh, epoch));
        }
    }

    /// Asks the cluster for a checkpoint and arms a retry with exponential
    /// backoff, so a lost request (or answer) cannot strand a rebooting
    /// replica.
    fn send_recovery_request(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        ctx.multicast(self.peers(), SmartMessage::CheckpointRequest);
        let delay = Self::RECOVERY_RETRY_BASE * (1 << self.recovery_attempts.min(3));
        if let Some(old) = self.recovery_timer.take() {
            ctx.cancel_timer(old);
        }
        self.recovery_timer = Some(ctx.set_timer(delay, SmartMessage::RecoveryTimer));
    }

    fn handle_recovery_timer(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        self.recovery_timer = None;
        self.recovery_attempts += 1;
        self.send_recovery_request(ctx);
    }

    /// Rebuilds volatile state from the node's disk after an amnesia wipe:
    /// newest checkpoint first, then the execution suffix, then our open
    /// (voted-for but undecided) batch, then the highest view we acted in.
    fn replay_wal(&mut self, ctx: &mut Context<'_, SmartMessage>, disk: &[Vec<u8>]) {
        let ReplayLog {
            checkpoint,
            records,
        } = Wal::replay(disk);
        let mut max_view = 0u64;
        for rec in &records {
            match rec {
                WalRecordRef::View(v) => max_view = max_view.max(*v),
                WalRecordRef::Accept { view, .. } => max_view = max_view.max(*view),
                _ => {}
            }
        }
        if let Some(cp) = checkpoint {
            if let Some(m) = cp.membership {
                self.membership = m;
            }
            self.app.restore(cp.snapshot);
            self.sessions.restore_executed(cp.clients.iter());
            self.next_sqn = SeqNumber(cp.next_exec);
        }
        // Every durable execution re-enters the exec log (that is what the
        // durability invariant audits); state application resumes only past
        // the restored checkpoint's batch. The coverage bound must be the
        // checkpoint's frontier, frozen here: comparing against the evolving
        // `next_sqn` would skip every record of a batch after its first one
        // (which already advanced `next_sqn` past the whole batch), leaving
        // `last_executed` holes that a later served checkpoint would spread
        // to healthy peers as a client-progress rewind.
        let covered = self.next_sqn.0;
        for rec in &records {
            let WalRecordRef::Exec {
                slot,
                id,
                fresh,
                command,
                epoch,
            } = rec
            else {
                continue;
            };
            if self.exec_log_enabled {
                // Historical epochs, not the current one: a pre-reconfig
                // slot replayed under today's membership must still audit
                // as executed in the epoch it actually ran in.
                self.exec_log
                    .push(ExecRecord::at_epoch(*slot, *id, *fresh, *epoch));
            }
            let batch_sqn = slot >> SLOT_BATCH_SHIFT;
            if batch_sqn < covered {
                continue;
            }
            if *fresh && id.client == RECONFIG_CLIENT && !self.executed_already(*id) {
                // Reconfigs past the checkpoint frontier re-apply to the
                // membership, not the app.
                if let Some(cmd) = ReconfigCommand::decode(command) {
                    self.membership.apply(&cmd);
                }
                self.sessions
                    .record(id.client, id.op, ResultBytes::from_slice(&[]));
            } else if *fresh && !self.executed_already(*id) {
                let cost = self.app.execution_cost(command);
                ctx.charge(cost);
                self.app.execute_into(command, &mut self.exec_scratch);
                let result = ResultBytes::from_slice(&self.exec_scratch);
                self.stats.executed += 1;
                self.sessions.record(id.client, id.op, result);
            }
            self.next_sqn = SeqNumber(batch_sqn + 1);
        }
        // Re-open the newest undecided batch we voted for (own vote only):
        // that vote may be part of a quorum the cluster counted. Only its
        // bodies, under its highest view, are copied off the disk.
        let accepts = records.iter().filter_map(|rec| match *rec {
            WalRecordRef::Accept {
                slot,
                view,
                id,
                command,
            } => Some((
                slot >> SLOT_BATCH_SHIFT,
                View(view),
                slot & ((1 << SLOT_BATCH_SHIFT) - 1),
                id,
                command,
            )),
            _ => None,
        });
        let newest = accepts.clone().map(|(sqn, view, ..)| (sqn, view)).max();
        if let Some((sqn, view)) = newest.filter(|&(sqn, _)| sqn >= self.next_sqn.0) {
            let mut entries: Vec<(u64, Request)> = accepts
                .filter(|&(s, v, ..)| (s, v) == (sqn, view))
                .map(|(_, _, offset, id, command)| (offset, Request::new(id, command)))
                .collect();
            entries.sort_by_key(|(offset, _)| *offset);
            let mut votes = QuorumTracker::new(self.majority());
            votes.record(self.me);
            self.open = Some(OpenInstance {
                sqn: SeqNumber(sqn),
                view,
                batch: entries.into_iter().map(|(_, r)| r).collect(),
                votes,
            });
        }
        if max_view > self.view.0 {
            self.view = View(max_view);
        }
    }
}

impl Node<SmartMessage> for SmartReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, SmartMessage>, from: NodeId, msg: SmartMessage) {
        ctx.charge(self.cfg.message_cost.message_cost(msg.wire_size()));
        if !self.is_member() {
            // A spare that has not joined yet, or a departed member: no
            // protocol participation. Checkpoints are still installed
            // (that is how a joiner becomes a member), checkpoint requests
            // are still served, and client requests are answered with a
            // redirect once there is a newer membership to redirect to.
            match msg {
                SmartMessage::Checkpoint {
                    next_sqn,
                    snapshot,
                    clients,
                    membership,
                } => self.handle_checkpoint(ctx, next_sqn, snapshot, clients, membership),
                SmartMessage::CheckpointRequest => self.handle_checkpoint_request(ctx, from),
                SmartMessage::Request(req)
                    if req.id.client != RECONFIG_CLIENT && self.membership.epoch().0 > 0 =>
                {
                    ctx.send(
                        self.dir.client(req.id.client),
                        SmartMessage::MembershipUpdate(self.membership.clone()),
                    );
                }
                _ => {}
            }
            return;
        }
        match msg {
            SmartMessage::Request(req) => self.handle_request(ctx, req),
            SmartMessage::Propose { sqn, view, batch } => {
                self.handle_propose(ctx, from, sqn, view, batch)
            }
            SmartMessage::Accept { sqn, view } => self.handle_accept(ctx, from, sqn, view),
            SmartMessage::ViewChange {
                target,
                pending,
                next_sqn,
            } => self.handle_view_change(ctx, from, target, pending, next_sqn),
            SmartMessage::CheckpointRequest => self.handle_checkpoint_request(ctx, from),
            SmartMessage::Checkpoint {
                next_sqn,
                snapshot,
                clients,
                membership,
            } => self.handle_checkpoint(ctx, next_sqn, snapshot, clients, membership),
            SmartMessage::Reply(_)
            | SmartMessage::MembershipUpdate(_)
            | SmartMessage::ProgressTimer
            | SmartMessage::ClientTimeout(_)
            | SmartMessage::BackoffTimer
            | SmartMessage::RecoveryTimer => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SmartMessage>, _id: TimerId, msg: SmartMessage) {
        match msg {
            SmartMessage::ProgressTimer => self.handle_progress_timer(ctx),
            SmartMessage::RecoveryTimer => self.handle_recovery_timer(ctx),
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {}

    fn on_recover(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        // A wiped replica first rebuilds whatever its disk can prove.
        if std::mem::take(&mut self.wipe_recovering) {
            ctx.with_disk_records(|ctx, disk| self.replay_wal(ctx, disk));
        }
        // The held progress-timer handle may refer to a timer lost during
        // the crash window: cancel it (a no-op if already fired) and arm a
        // fresh one.
        if let Some(timer) = self.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        self.ensure_progress_timer(ctx);
        // Instances decided while we were down are gone for good; fetch a
        // checkpoint from whoever has one, retrying until someone answers.
        self.recovery_attempts = 0;
        self.send_recovery_request(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::app::NullApp;

    #[test]
    fn fresh_replica_has_no_work() {
        let dir = Directory::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![NodeId(3)]);
        let r = SmartReplica::new(
            SmartConfig::default(),
            idem_common::ReplicaId(0),
            dir,
            Box::new(NullApp::default()),
        );
        assert!(!r.has_pending_work());
        assert_eq!(r.pending_len(), 0);
        assert_eq!(r.view(), View(0));
    }
}
