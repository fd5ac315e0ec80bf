//! The SMaRt baseline replica: sequential consensus over request batches.

use std::collections::VecDeque;

use idem_common::{
    Chained, CheckpointData, Consumed, Directory, QuorumTracker, ReconfigCommand, ReplicaBase,
    Reply, ReqHandle, ReqSlab, Request, RequestId, SeqNumber, StateMachine, View, VoteStore,
    WalRecordRef, PROGRESS_TIMEOUT, RECONFIG_CLIENT,
};
use idem_simnet::{Context, Node, NodeId, TimerId};

use crate::config::{SmartConfig, SLOT_BATCH_SHIFT};
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

/// A SMaRt replica implementing [`Node`] over [`SmartMessage`]: the
/// ordering core around an embedded [`ReplicaBase`], which it
/// dereferences to.
pub struct SmartReplica {
    cfg: SmartConfig,
    base: ReplicaBase,

    vc_store: VoteStore<VcVote>,

    /// Unbounded pool of client requests awaiting ordering. An entry
    /// whose handle no longer resolves was decided out of another
    /// replica's batch; it is skipped, and dropped once it reaches the front.
    pending: VecDeque<(Request, ReqHandle)>,
    /// Records for queued or carved-but-undecided requests, chained per
    /// client off the base's session table.
    pending_ids: ReqSlab<PendingEntry>,
    /// Live (queued, undecided) entries in `pending`.
    pending_live: usize,

    open: Option<OpenInstance>,
    /// Set when a view change revealed that a quorum member decided past
    /// the frontier: the value is that higher sequence number. While set,
    /// this replica must not open instances — its frontier points at a
    /// slot that was already decided elsewhere, and proposing a fresh
    /// batch there would rewrite it. Cleared once a checkpoint (or decided
    /// proposals) advance the frontier to the target.
    sync_target: Option<SeqNumber>,
    /// The undecided proposal a view-change quorum member reported for the
    /// slot this leader is syncing toward. Once caught up, the leader must
    /// re-propose exactly this batch there: another replica may have
    /// already decided it (its accept to the old leader lost), and opening
    /// a fresh batch at the same slot would decide it twice with different
    /// contents.
    vc_resume: Option<(SeqNumber, Vec<Request>)>,

    stats: SmartReplicaStats,
}

impl std::ops::Deref for SmartReplica {
    type Target = ReplicaBase;
    fn deref(&self) -> &ReplicaBase {
        &self.base
    }
}

impl std::ops::DerefMut for SmartReplica {
    fn deref_mut(&mut self) -> &mut ReplicaBase {
        &mut self.base
    }
}

impl SmartReplica {
    /// Creates a replica with identity `me`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SmartConfig::validate`]).
    pub fn new(
        cfg: SmartConfig,
        me: idem_common::ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> SmartReplica {
        cfg.validate();
        SmartReplica {
            base: ReplicaBase::new(
                me,
                dir,
                app,
                cfg.quorum.n(),
                cfg.message_cost,
                PROGRESS_TIMEOUT,
            ),
            cfg,
            vc_store: VoteStore::default(),
            pending: VecDeque::new(),
            pending_ids: ReqSlab::new(),
            pending_live: 0,
            open: None,
            sync_target: None,
            vc_resume: None,
            stats: SmartReplicaStats::default(),
        }
    }

    /// Protocol counters.
    pub fn stats(&self) -> &SmartReplicaStats {
        &self.stats
    }

    /// Length of the pending request pool (live entries only).
    pub fn pending_len(&self) -> usize {
        self.pending_live
    }

    /// Next consensus instance to decide: the base's batch-level
    /// frontier, under the name SMaRt's callers know.
    pub fn next_sqn(&self) -> SeqNumber {
        self.base.next_exec()
    }

    /// Tracks a fresh request: a slab record chained off the client's
    /// session slot plus a live deque entry.
    fn track_pending(&mut self, req: Request) {
        let id = req.id;
        let mut head = self.base.sessions.head(id.client);
        let h = self.pending_ids.insert(PendingEntry {
            id,
            next: ReqHandle::NULL,
            queued: true,
        });
        self.pending_ids.chain_push(&mut head, h);
        self.base.sessions.set_head(id.client, head);
        self.pending.push_back((req, h));
        self.pending_live += 1;
    }

    /// Frees the record for a decided request, if we track one. Its
    /// deque entry (when still queued) goes stale with the handle.
    fn untrack_pending(&mut self, id: RequestId) {
        let mut head = self.base.sessions.head(id.client);
        let h = self.pending_ids.chain_find(head, id);
        if h.is_null() {
            return;
        }
        if self.pending_ids.get(h).is_some_and(|e| e.queued) {
            self.pending_live -= 1;
        }
        self.pending_ids.chain_unlink(&mut head, h);
        self.base.sessions.set_head(id.client, head);
        self.pending_ids.remove(h);
    }

    // ------------------------------------------------------------ requests

    fn handle_request(&mut self, ctx: &mut Context<'_, SmartMessage>, req: Request) {
        self.stats.requests_received += 1;
        let id = req.id;
        if self.base.executed_already(id) {
            self.stats.duplicates += 1;
            self.stats.replies_sent += u64::from(self.base.resend_cached_reply(ctx, id));
            return;
        }
        if !self
            .pending_ids
            .chain_find(self.base.sessions.head(id.client), id)
            .is_null()
        {
            self.stats.duplicates += 1;
            return;
        }
        self.track_pending(req);
        self.stats.max_pending_len = self.stats.max_pending_len.max(self.pending_live as u64);
        self.base.ensure_progress_timer(ctx);
        self.maybe_propose(ctx);
    }

    /// Leader: opens the next instance if none is open and work is pending
    /// (sequential consensus, Mod-SMaRt style).
    fn maybe_propose(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        if !self.base.is_leader() || self.open.is_some() || self.sync_target.is_some() {
            return;
        }
        let batch: Vec<Request> = match self.vc_resume.take() {
            // A quorum member reported this undecided batch for exactly
            // this slot during the last view change — it may already be
            // decided somewhere, so it goes first, unchanged.
            Some((sqn, batch)) if sqn == self.base.next_exec() => batch,
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
        let sqn = self.base.next_exec();
        // The leader's own vote must be durable before peers can count it.
        self.persist_batch_accept(ctx, sqn, self.base.view(), &batch);
        let mut votes = QuorumTracker::new(self.base.majority());
        votes.record(self.base.me);
        self.open = Some(OpenInstance {
            sqn,
            view: self.base.view(),
            batch: batch.clone(),
            votes,
        });
        self.stats.batches_proposed += 1;
        let view = self.base.view();
        ctx.multicast(
            self.base.peers(),
            SmartMessage::Propose { sqn, view, batch },
        );
        self.maybe_decide(ctx);
    }

    // ----------------------------------------------------------- agreement

    /// Counts `sender` as a witness that view `v` is still live (see
    /// [`ReplicaBase::observe_live_view`]).
    fn witness_live_view(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        v: View,
        sender: idem_common::ReplicaId,
    ) {
        let pending = self.has_pending_work();
        if self
            .base
            .observe_live_view(ctx, &mut self.vc_store, v, sender, pending)
        {
            self.vc_resume = None;
            // We likely missed instances while away: catch up.
            ctx.multicast(self.base.peers(), SmartMessage::CheckpointRequest);
        }
    }

    fn enter_view_as_follower(&mut self, ctx: &mut Context<'_, SmartMessage>, v: View) {
        if self.base.follow_view(ctx, v) {
            self.vc_store.prune(v);
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
        let Some(sender) = self.base.member_sender(from) else {
            return;
        };
        if !self.base.view_acceptable(view) {
            if self.base.leader_of(view) == sender {
                self.witness_live_view(ctx, view, sender);
            }
            return;
        }
        if self.base.leader_of(view) != sender {
            return;
        }
        self.enter_view_as_follower(ctx, view);
        if sqn < self.base.next_exec() {
            return; // already decided
        }
        if sqn > self.base.next_exec() {
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
            let mut votes = QuorumTracker::new(self.base.majority());
            votes.record(sender);
            votes.record(self.base.me);
            self.open = Some(OpenInstance {
                sqn,
                view,
                batch,
                votes,
            });
        } else if let Some(open) = &mut self.open {
            if open.view == view {
                open.votes.record(sender);
                open.votes.record(self.base.me);
            }
        }
        self.stats.accepts_sent += 1;
        ctx.multicast(self.base.peers(), SmartMessage::Accept { sqn, view });
        self.base.ensure_progress_timer(ctx);
        self.maybe_decide(ctx);
    }

    fn handle_accept(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        from: NodeId,
        sqn: SeqNumber,
        view: View,
    ) {
        let Some(sender) = self.base.member_sender(from) else {
            return;
        };
        if !self.base.view_acceptable(view) {
            self.witness_live_view(ctx, view, sender);
            return;
        }
        let leader = self.base.leader_of(view);
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
            .is_some_and(|open| open.votes.reached() && open.sqn == self.base.next_exec());
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
            let slot = (open.sqn.0 << SLOT_BATCH_SHIFT) | offset as u64;
            let fresh = !self.base.executed_already(req.id);
            match self
                .base
                .consume(ctx, slot, req.id, fresh.then_some(&req.command[..]))
            {
                Consumed::Skipped => {}
                Consumed::Reconfig(cmd) => {
                    // Applied to the membership after the batch frontier
                    // advances (so the epoch boundary checkpoint covers
                    // this instance); no client reply.
                    self.stats.executed += 1;
                    reconfig = cmd;
                }
                Consumed::Executed(result) => {
                    self.stats.executed += 1;
                    // Every replica replies (CFT mode of BFT-SMaRt).
                    self.stats.replies_sent += 1;
                    let client = self.base.dir.client(req.id.client);
                    ctx.send(client, SmartMessage::Reply(Reply::new(req.id, result)));
                }
            }
        }
        // Only a leader carves the deque: left alone, a follower's keeps a
        // dead entry for every request it ever received. Readers skip
        // dead entries anyway, so dropping them changes memory only.
        while let Some(&(_, h)) = self.pending.front() {
            if self.pending_ids.contains(h) {
                break;
            }
            self.pending.pop_front();
        }
        self.base.advance_exec();
        let next_sqn = self.base.next_exec();
        if self.sync_target.is_some_and(|t| next_sqn >= t) {
            self.sync_target = None;
        }
        if let Some(cmd) = reconfig {
            self.apply_reconfig(ctx, &cmd);
            if !self.base.is_member() {
                return;
            }
        } else if next_sqn.0.is_multiple_of(self.cfg.checkpoint_interval) {
            self.base.take_checkpoint(ctx);
            self.stats.checkpoints_taken += 1;
        }
        let pending = self.has_pending_work();
        self.base.reset_progress_timer(ctx, pending);
        self.maybe_propose(ctx);
    }

    /// Switches to the next epoch after executing a reconfiguration
    /// command (see [`ReplicaBase::switch_epoch`]).
    fn apply_reconfig(&mut self, ctx: &mut Context<'_, SmartMessage>, cmd: &ReconfigCommand) {
        if !self.base.switch_epoch(ctx, cmd) {
            // Voted out. The on_message gate redirects clients and ignores
            // protocol traffic from here on.
            self.pending.clear();
            self.pending_ids.clear();
            self.pending_live = 0;
            self.open = None;
            return;
        }
        self.stats.checkpoints_taken += 1;
        // Leadership may have moved with the member list; the pending pool
        // is replicated at every member (clients multicast), so a promoted
        // leader proposes straight from its own copy — kick it now rather
        // than waiting for the next client arrival to trigger it.
        self.maybe_propose(ctx);
    }

    fn handle_checkpoint(&mut self, ctx: &mut Context<'_, SmartMessage>, data: CheckpointData) {
        if !self.base.install_checkpoint(ctx, data) {
            return;
        }
        self.open = None;
        if self.sync_target.is_some_and(|t| self.base.next_exec() >= t) {
            self.sync_target = None;
        }
        self.stats.checkpoints_installed += 1;
        // Drop pending requests the checkpoint proves executed, and
        // rebuild the tracking slab from what survives. Carved-but-
        // undecided records are dropped with it — exactly the old
        // semantics of rebuilding `pending_ids` from the queue.
        let old = std::mem::take(&mut self.pending);
        let keep: Vec<Request> = old
            .into_iter()
            .filter(|&(ref r, h)| self.pending_ids.contains(h) && !self.base.executed_already(r.id))
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

    fn has_pending_work(&self) -> bool {
        self.pending_live > 0 || self.open.is_some() || self.sync_target.is_some()
    }

    fn handle_progress_timer(&mut self, ctx: &mut Context<'_, SmartMessage>, timer: TimerId) {
        if !self.base.progress_timer_fired(ctx, timer) {
            return;
        }
        if self.sync_target.is_some() {
            // Still catching up after a view change: the checkpoint
            // request or its reply may have been lost — ask again.
            ctx.multicast(self.base.peers(), SmartMessage::CheckpointRequest);
        }
        if !self.has_pending_work() {
            return;
        }
        let target = self.base.effective_view().next();
        self.view_change(ctx, target, None);
        // Armed even if that was a no-op (`ReplicaBase::start_view_change`).
        self.base.ensure_progress_timer(ctx);
    }

    /// One step of the change to view `target`: a peer's vote for it came
    /// in (`theirs`), or — `None` — this replica's own progress timer
    /// demands it. This replica's vote is its open instance and its
    /// decision frontier.
    fn view_change(
        &mut self,
        ctx: &mut Context<'_, SmartMessage>,
        target: View,
        theirs: Option<(NodeId, VcVote)>,
    ) {
        let (open, next_sqn) = (&self.open, self.base.next_exec());
        let (base, votes) = (&mut self.base, &mut self.vc_store);
        let vote = || {
            let pending = open.as_ref().map(|o| (o.sqn, o.view, o.batch.clone()));
            (pending, next_sqn)
        };
        let wire = |(pending, next_sqn)| SmartMessage::ViewChange {
            target,
            pending,
            next_sqn,
        };
        let step = match theirs {
            Some(theirs) => base.handle_view_change(ctx, votes, theirs, target, vote, wire),
            None => base.start_view_change(ctx, votes, target, vote, wire),
        };
        self.stats.view_changes_started += u64::from(step.started);
        if step.ready {
            self.enter_new_view(ctx, target);
        }
    }

    fn enter_new_view(&mut self, ctx: &mut Context<'_, SmartMessage>, target: View) {
        self.base.enter_view(ctx, target);
        self.stats.view_changes_completed += 1;
        let msgs = self.vc_store.take(target);

        // The first instance the new leader may decide is the highest
        // frontier any participant reported — everything below it was
        // decided by someone. If a participant also reported an undecided
        // proposal for exactly that slot, it must be re-proposed there
        // unchanged (highest view wins): some replica may have decided it
        // already, with its accept to the old leader lost.
        let mut best: Option<(View, Vec<Request>)> = None;
        let mut max_next = self.base.next_exec();
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
        if max_next > self.base.next_exec() {
            // We lag the quorum's decisions: freeze proposing until a
            // checkpoint catches us up (the progress timer retries the
            // request if it or its reply is lost). `maybe_propose` emits
            // the re-proposal once the frontier reaches the slot.
            self.sync_target = Some(max_next);
            ctx.multicast(self.base.peers(), SmartMessage::CheckpointRequest);
        }
        let pending = self.has_pending_work();
        self.base.reset_progress_timer(ctx, pending);
        self.maybe_propose(ctx);
    }

    // ------------------------------------------------------------- recovery

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
        if !self.base.wal.enabled() {
            return;
        }
        for (offset, req) in batch.iter().enumerate() {
            let slot = (sqn.0 << SLOT_BATCH_SHIFT) | offset as u64;
            self.base
                .wal
                .log_accept(ctx, slot, view.0, req.id, &req.command);
        }
    }

    /// Asks the whole cluster for a checkpoint — every member holds the
    /// decided prefix, so there is no leader to start from — and arms a
    /// retry with exponential backoff, so a lost request (or answer)
    /// cannot strand a rebooting replica.
    fn ask_all_for_checkpoint(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        ctx.multicast(self.base.peers(), SmartMessage::CheckpointRequest);
        self.base.arm_recovery_timer(ctx);
    }

    /// Rebuilds volatile state from the node's disk after an amnesia wipe:
    /// newest checkpoint first, then the execution suffix, then our open
    /// (voted-for but undecided) batch, then the highest view we acted in.
    fn replay_wal(&mut self, ctx: &mut Context<'_, SmartMessage>, disk: &[Vec<u8>]) {
        // Exec slots pack the batch and the offset in it: the frontier
        // counts batches.
        let replayed = self.base.replay_wal(ctx, disk, SLOT_BATCH_SHIFT);
        self.stats.executed += replayed.executed;
        let records = replayed.records;
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
        if let Some((sqn, view)) = newest.filter(|&(sqn, _)| sqn >= self.base.next_exec().0) {
            let mut entries: Vec<(u64, Request)> = accepts
                .filter(|&(s, v, ..)| (s, v) == (sqn, view))
                .map(|(_, _, offset, id, command)| (offset, Request::new(id, command)))
                .collect();
            entries.sort_by_key(|(offset, _)| *offset);
            let mut votes = QuorumTracker::new(self.base.majority());
            votes.record(self.base.me);
            self.open = Some(OpenInstance {
                sqn: SeqNumber(sqn),
                view,
                batch: entries.into_iter().map(|(_, r)| r).collect(),
                votes,
            });
        }
    }
}

impl Node<SmartMessage> for SmartReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, SmartMessage>, from: NodeId, msg: SmartMessage) {
        ctx.charge(self.cfg.message_cost);
        // A non-member takes no part in the protocol: it handles the first
        // arms and drops the rest (see `ReplicaBase::redirect_client`).
        let member = self.base.is_member();
        match msg {
            SmartMessage::Checkpoint(data) => self.handle_checkpoint(ctx, data),
            SmartMessage::CheckpointRequest => {
                // Answered with a fresh checkpoint.
                self.base.handle_checkpoint_request(ctx, from);
                self.stats.checkpoints_taken += 1;
            }
            SmartMessage::Request(req) if !member => self.base.redirect_client(ctx, req.id.client),
            _ if !member => {}
            SmartMessage::Request(req) => self.handle_request(ctx, req),
            SmartMessage::Propose { sqn, view, batch } => {
                self.handle_propose(ctx, from, sqn, view, batch)
            }
            SmartMessage::Accept { sqn, view } => self.handle_accept(ctx, from, sqn, view),
            SmartMessage::ViewChange {
                target,
                pending,
                next_sqn,
            } => self.view_change(ctx, target, Some((from, (pending, next_sqn)))),
            SmartMessage::Reply(_)
            | SmartMessage::MembershipUpdate(_)
            | SmartMessage::ProgressTimer
            | SmartMessage::ClientTimeout(_)
            | SmartMessage::RecoveryTimer => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SmartMessage>, timer: TimerId, msg: SmartMessage) {
        match msg {
            SmartMessage::ProgressTimer => self.handle_progress_timer(ctx, timer),
            SmartMessage::RecoveryTimer => {
                self.base.recovery_timer_fired();
                self.ask_all_for_checkpoint(ctx);
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, SmartMessage>) {
        // A wiped replica first rebuilds whatever its disk can prove.
        if self.base.take_wipe_recovery() {
            ctx.with_disk_records(|ctx, disk| self.replay_wal(ctx, disk));
        }
        self.base.rearm_on_recover(ctx);
        // Instances decided while we were down are gone for good; fetch a
        // checkpoint from whoever has one, retrying until someone answers.
        self.ask_all_for_checkpoint(ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use idem_common::app::NullApp;
    use idem_common::driver::{ClientApp, OperationOutcome};
    use idem_simnet::Simulation;
    use rand::rngs::SmallRng;

    use super::*;
    use crate::client::{SmartClient, SmartClientConfig};

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

    struct Endless;

    impl ClientApp for Endless {
        fn next_command(&mut self, _rng: &mut SmallRng) -> Option<Vec<u8>> {
            Some(vec![0u8; 8])
        }
        fn on_outcome(&mut self, _outcome: &OperationOutcome) {}
    }

    #[test]
    fn a_followers_deque_does_not_grow_with_the_run() {
        let cfg = SmartConfig::default();
        let mut sim: Simulation<SmartMessage> = Simulation::new(3);
        let replicas: Vec<NodeId> = (0..cfg.quorum.n()).map(|_| sim.reserve_node()).collect();
        let clients: Vec<NodeId> = (0..8).map(|_| sim.reserve_node()).collect();
        let dir = Directory::new(replicas.clone(), clients.clone());
        for (i, &node) in replicas.iter().enumerate() {
            let app = Box::new(NullApp::default());
            let replica = SmartReplica::new(
                cfg.clone(),
                idem_common::ReplicaId(i as u32),
                dir.clone(),
                app,
            );
            sim.install_node(node, Box::new(replica));
        }
        for (i, &node) in clients.iter().enumerate() {
            let id = idem_common::ClientId(i as u32);
            let client = SmartClient::new(
                SmartClientConfig::default(),
                id,
                dir.clone(),
                Box::new(Endless),
            );
            sim.install_node(node, Box::new(client));
        }
        sim.run_for(Duration::from_secs(2));
        for &node in &replicas {
            let r = sim.node_as::<SmartReplica>(node).unwrap();
            assert!(r.stats().executed > 4_000);
            // Live entries, plus the few dead ones behind a live one.
            assert!(r.pending.len() <= 4 * clients.len());
            let live = r
                .pending
                .iter()
                .filter(|&&(_, h)| r.pending_ids.contains(h));
            assert_eq!(live.count(), r.pending_live);
        }
    }
}
