//! The Paxos baseline replica.

use std::collections::{BTreeMap, VecDeque};

use idem_common::{
    Chained, CheckpointData, ClientId, Consumed, Directory, QuorumTracker, ReconfigCommand,
    ReplicaBase, Reply, ReqHandle, ReqSlab, Request, RequestId, SeqNumber, SeqWindow, StateMachine,
    View, VoteStore, PROGRESS_TIMEOUT, RECONFIG_CLIENT,
};
use idem_simnet::{Context, Node, NodeId, TimerId};

use crate::config::{PaxosConfig, RejectPolicy, WINDOW_SIZE};
use crate::messages::{PaxosMessage, PaxosWindowEntry};

/// Reserved client id for gap-filling no-op requests.
pub const NOOP_CLIENT: ClientId = ClientId(u32::MAX);

fn noop_request(sqn: SeqNumber) -> Request {
    Request::new(
        RequestId::new(NOOP_CLIENT, idem_common::OpNumber(sqn.0)),
        Vec::new(),
    )
}

/// Observable counters of one Paxos replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct PaxosReplicaStats {
    pub requests_received: u64,
    pub requests_forwarded_to_leader: u64,
    pub duplicates: u64,
    pub rejected: u64,
    pub proposals_sent: u64,
    pub accepts_sent: u64,
    pub executed: u64,
    pub replies_sent: u64,
    pub checkpoints_taken: u64,
    pub checkpoints_installed: u64,
    pub view_changes_started: u64,
    pub view_changes_completed: u64,
    pub noops_proposed: u64,
    /// Peak length of the leader's pending-request queue — the quantity
    /// that grows without bound under overload in plain Paxos.
    pub max_queue_len: u64,
}

#[derive(Debug, Clone)]
struct Instance {
    request: Request,
    view: View,
    votes: QuorumTracker,
    committed: bool,
    executed: bool,
}

/// Presence marker for a queued or proposed-but-unexecuted request,
/// chained per client off the session table for single-probe duplicate
/// suppression. The wholesale resets (view change, reconfig) just clear
/// the slab: the generation bump makes every chain head stale, and a
/// stale head reads as an empty chain.
struct InflightEntry {
    id: RequestId,
    next: ReqHandle,
}

impl Chained for InflightEntry {
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

/// One replica's `ViewChange` vote: its execution frontier and its
/// proposal window.
type VcVote = (SeqNumber, Vec<PaxosWindowEntry>);

/// A Paxos replica implementing [`Node`] over [`PaxosMessage`]: the
/// ordering core around an embedded [`ReplicaBase`], which it
/// dereferences to.
pub struct PaxosReplica {
    cfg: PaxosConfig,
    base: ReplicaBase,

    vc_store: VoteStore<VcVote>,

    window: SeqWindow<Instance>,
    next_propose: SeqNumber,
    stalled: bool,

    /// Leader: requests awaiting a window slot. Unbounded by design in
    /// plain Paxos.
    queue: VecDeque<Request>,
    /// Records for ids queued or in flight, for duplicate suppression,
    /// chained per client off the base's session table.
    inflight: ReqSlab<InflightEntry>,

    /// Client requests relayed to the leader since the last local
    /// execution progress — evidence of a dead leader even when this
    /// follower holds no protocol work itself.
    forwarded_since_progress: u64,
    stats: PaxosReplicaStats,
}

impl std::ops::Deref for PaxosReplica {
    type Target = ReplicaBase;
    fn deref(&self) -> &ReplicaBase {
        &self.base
    }
}

impl std::ops::DerefMut for PaxosReplica {
    fn deref_mut(&mut self) -> &mut ReplicaBase {
        &mut self.base
    }
}

impl PaxosReplica {
    /// Creates a replica with identity `me`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        cfg: PaxosConfig,
        me: idem_common::ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> PaxosReplica {
        cfg.validate();
        PaxosReplica {
            base: ReplicaBase::new(
                me,
                dir,
                app,
                cfg.quorum.n(),
                cfg.message_cost,
                PROGRESS_TIMEOUT,
            ),
            window: SeqWindow::new(WINDOW_SIZE),
            cfg,
            vc_store: VoteStore::default(),
            next_propose: SeqNumber(0),
            stalled: false,
            queue: VecDeque::new(),
            inflight: ReqSlab::new(),
            forwarded_since_progress: 0,
            stats: PaxosReplicaStats::default(),
        }
    }

    /// Protocol counters.
    pub fn stats(&self) -> &PaxosReplicaStats {
        &self.stats
    }

    /// Current leader-queue length (only meaningful on the leader).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The leader's current load: queued plus proposed-but-unexecuted
    /// requests. This is what LBR's threshold applies to.
    fn leader_load(&self) -> u64 {
        let in_flight = self.next_propose.0.saturating_sub(self.base.next_exec().0);
        self.queue.len() as u64 + in_flight
    }

    // ------------------------------------------------------------ requests

    fn handle_request(&mut self, ctx: &mut Context<'_, PaxosMessage>, req: Request) {
        self.stats.requests_received += 1;
        let id = req.id;
        if self.base.executed_already(id) {
            self.stats.duplicates += 1;
            self.stats.replies_sent += u64::from(self.base.resend_cached_reply(ctx, id));
            return;
        }
        if !self.base.is_leader() {
            // Misdirected request (stale leader knowledge at the client):
            // relay it to the current leader and watch for progress — if
            // the leader is dead this is our evidence that work is stuck.
            self.forwarded_since_progress += 1;
            let target = self.base.leader_guess();
            if target != self.base.me {
                self.stats.requests_forwarded_to_leader += 1;
                let leader = self.base.dir.replica(target);
                ctx.send(leader, PaxosMessage::Request(req));
            }
            // When `target` is this replica (a view change that would make
            // us leader is in flight), forwarding would loop the request
            // back to ourselves forever; drop it instead — the client
            // retransmits once the new view is installed.
            self.base.ensure_progress_timer(ctx);
            return;
        }
        if !self
            .inflight
            .chain_find(self.base.sessions.head(id.client), id)
            .is_null()
        {
            self.stats.duplicates += 1;
            return;
        }
        // Reconfiguration commands are control-plane traffic: rejecting a
        // membership change under load would make churn recovery
        // impossible exactly when it matters.
        if id.client != RECONFIG_CLIENT {
            if let RejectPolicy::LeaderBased { threshold } = self.cfg.reject_policy {
                if self.leader_load() >= u64::from(threshold) {
                    self.stats.rejected += 1;
                    let client = self.base.dir.client(id.client);
                    ctx.send(client, PaxosMessage::Reject(id));
                    return;
                }
            }
        }
        let mut head = self.base.sessions.head(id.client);
        let h = self.inflight.insert(InflightEntry {
            id,
            next: ReqHandle::NULL,
        });
        self.inflight.chain_push(&mut head, h);
        self.base.sessions.set_head(id.client, head);
        self.queue.push_back(req);
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len() as u64);
        self.base.ensure_progress_timer(ctx);
        self.drain_queue(ctx);
    }

    fn drain_queue(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        while self.base.is_leader()
            && !self.queue.is_empty()
            && self.next_propose < self.window.high()
            && !self.base.barrier_active()
        {
            let req = self.queue.pop_front().expect("non-empty");
            let sqn = self.next_propose.max(self.window.low());
            self.next_propose = sqn.next();
            self.propose_at(ctx, sqn, req);
        }
    }

    fn propose_at(&mut self, ctx: &mut Context<'_, PaxosMessage>, sqn: SeqNumber, req: Request) {
        // The leader's own vote must be durable before peers can count it:
        // log the binding ahead of the proposal multicast.
        self.base
            .wal
            .log_accept(ctx, sqn.0, self.base.view().0, req.id, &req.command);
        let mut votes = QuorumTracker::new(self.base.majority());
        votes.record(self.base.me);
        let committed = votes.reached();
        let executed = self.base.executed_already(req.id);
        self.window.insert(
            sqn,
            Instance {
                request: req.clone(),
                view: self.base.view(),
                votes,
                committed,
                executed,
            },
        );
        if req.id.client == RECONFIG_CLIENT && !executed {
            // New proposals wait until it executes, so no slot is bound
            // under a membership it outlives.
            self.base.set_reconfig_barrier(sqn);
        }
        self.stats.proposals_sent += 1;
        let view = self.base.view();
        ctx.multicast(
            self.base.peers(),
            PaxosMessage::Propose {
                sqn,
                view,
                request: req,
            },
        );
        self.try_execute(ctx);
    }

    // ----------------------------------------------------------- agreement

    /// Counts `sender` as a witness that view `v` is still live (see
    /// [`ReplicaBase::observe_live_view`]).
    fn witness_live_view(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        v: View,
        sender: idem_common::ReplicaId,
    ) {
        let pending = self.has_pending_work();
        if self
            .base
            .observe_live_view(ctx, &mut self.vc_store, v, sender, pending)
        {
            self.forwarded_since_progress = 0;
        }
    }

    fn enter_view_as_follower(&mut self, ctx: &mut Context<'_, PaxosMessage>, v: View) {
        if self.base.follow_view(ctx, v) {
            self.vc_store.prune(v);
            // Queued requests at a follower are meaningless; clients
            // retransmit to the new leader themselves. The in-flight set is
            // reset with it — execution-level duplicate suppression via
            // `last_executed` still holds.
            self.queue.clear();
            self.inflight.clear();
        }
    }

    fn handle_propose(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        from: NodeId,
        sqn: SeqNumber,
        view: View,
        request: Request,
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
        if self.window.is_stale(sqn) {
            return;
        }
        if self.window.is_ahead(sqn) {
            ctx.send(from, PaxosMessage::CheckpointRequest);
            return;
        }
        let id = request.id;
        // A committed slot's value is decided: a conflicting proposal can
        // only come from a proposer whose volatile state regressed (e.g.
        // incomplete amnesia recovery). Accepting it — at any view — would
        // let two values commit at one slot, so refuse outright.
        if let Some(existing) = self.window.get(sqn) {
            if existing.committed && existing.request.id != id {
                return;
            }
        }
        let replace = match self.window.get(sqn) {
            Some(existing) => view > existing.view,
            None => true,
        };
        if replace {
            // Durable before the Accept leaves: our vote may complete the
            // quorum, so it must survive amnesia.
            self.base
                .wal
                .log_accept(ctx, sqn.0, view.0, id, &request.command);
            let mut votes = QuorumTracker::new(self.base.majority());
            votes.record(sender);
            votes.record(self.base.me);
            let committed = votes.reached();
            let executed = self
                .window
                .get(sqn)
                .is_some_and(|i| i.executed && i.request.id == id)
                || self.base.executed_already(id);
            self.window.insert(
                sqn,
                Instance {
                    request,
                    view,
                    votes,
                    committed,
                    executed,
                },
            );
        } else if let Some(inst) = self.window.get_mut(sqn) {
            if inst.view == view {
                if inst.request.id != id {
                    // Same-view equivocation (two different values from
                    // one leader incarnation): keep our accepted value and
                    // do not endorse the conflicting one.
                    return;
                }
                inst.votes.record(sender);
                inst.votes.record(self.base.me);
                if inst.votes.reached() {
                    inst.committed = true;
                }
            }
        }
        self.stats.accepts_sent += 1;
        ctx.multicast(self.base.peers(), PaxosMessage::Accept { sqn, view, id });
        self.base.ensure_progress_timer(ctx);
        self.try_execute(ctx);
    }

    fn handle_accept(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        from: NodeId,
        sqn: SeqNumber,
        view: View,
        id: RequestId,
    ) {
        let Some(sender) = self.base.member_sender(from) else {
            return;
        };
        if !self.base.view_acceptable(view) {
            self.witness_live_view(ctx, view, sender);
            return;
        }
        self.enter_view_as_follower(ctx, view);
        if self.window.is_stale(sqn) || self.window.is_ahead(sqn) {
            return;
        }
        let leader = self.base.leader_of(view);
        if let Some(inst) = self.window.get_mut(sqn) {
            if inst.view == view && inst.request.id == id {
                inst.votes.record(sender);
                inst.votes.record(leader);
                if inst.votes.reached() {
                    inst.committed = true;
                }
            }
        }
        // An accept for an instance we have no proposal for cannot be acted
        // on: Paxos bodies only come from the leader; the view-change /
        // checkpoint paths recover such cases.
        self.try_execute(ctx);
    }

    // ----------------------------------------------------------- execution

    fn try_execute(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        let mut progressed = false;
        loop {
            let sqn = self.base.next_exec();
            if self.stalled || self.window.is_stale(sqn) {
                break;
            }
            let Some(inst) = self.window.get(sqn) else {
                break;
            };
            if !inst.committed {
                break;
            }
            let req = inst.request.clone();
            let already =
                inst.executed || req.id.client == NOOP_CLIENT || self.base.executed_already(req.id);
            let command = (!already).then_some(&req.command[..]);
            let mut reconfig = None;
            // Every window entry was logged with its body when it was
            // created (`propose_at`, `handle_propose`, replay).
            match self.base.consume(ctx, sqn.0, req.id, command, true) {
                Consumed::Skipped => {}
                Consumed::Reconfig(cmd) => {
                    self.stats.executed += 1;
                    reconfig = Some(cmd);
                }
                Consumed::Executed(result) => {
                    self.stats.executed += 1;
                    if self.base.is_leader() {
                        self.stats.replies_sent += 1;
                        let client = self.base.dir.client(req.id.client);
                        ctx.send(client, PaxosMessage::Reply(Reply::new(req.id, result)));
                    }
                }
            }
            let mut head = self.base.sessions.head(req.id.client);
            let h = self.inflight.chain_find(head, req.id);
            if !h.is_null() {
                self.inflight.chain_unlink(&mut head, h);
                self.base.sessions.set_head(req.id.client, head);
                self.inflight.remove(h);
            }
            self.window.get_mut(sqn).expect("present").executed = true;
            self.base.advance_exec();
            if let Some(cmd) = reconfig {
                // Membership change: the epoch switches exactly here, at
                // the agreed slot, on every replica; no client reply.
                if let Some(cmd) = cmd {
                    self.apply_reconfig(ctx, &cmd);
                }
            } else if self
                .base
                .next_exec()
                .0
                .is_multiple_of(self.cfg.checkpoint_interval)
            {
                self.base.take_checkpoint(ctx);
                self.checkpoint_taken();
            }
            progressed = true;
        }
        if progressed {
            self.progressed(ctx);
            self.drain_queue(ctx);
        }
    }

    /// Switches to the next epoch after executing a reconfiguration
    /// command (see [`ReplicaBase::switch_epoch`]) and re-homes queued
    /// work under the new member list.
    fn apply_reconfig(&mut self, ctx: &mut Context<'_, PaxosMessage>, cmd: &ReconfigCommand) {
        if !self.base.switch_epoch(ctx, cmd) {
            // Voted out. Requests this node queued as leader would be lost
            // with it; hand them to the new epoch's leader before going
            // dark (the client retransmission path still covers a lost
            // handoff).
            self.hand_queue_to_leader(ctx);
            self.queue.clear();
            self.inflight.clear();
            return;
        }
        self.checkpoint_taken();
        // Leadership derives from the member list, so it may have moved at
        // the switch: hand queued work to the new leader, and a promoted
        // follower must re-anchor its stale proposal cursor first —
        // binding below the execution frontier would target slots whose
        // bindings are already decided and be refused.
        if self.base.is_leader() {
            self.next_propose = self
                .next_propose
                .max(self.window.low())
                .max(self.base.next_exec());
            self.drain_queue(ctx);
        } else if !self.queue.is_empty() && self.hand_queue_to_leader(ctx) {
            self.inflight.clear();
        }
    }

    /// Relays every queued request to the presumed leader, unless that is
    /// this replica. Returns whether the queue was handed over.
    fn hand_queue_to_leader(&mut self, ctx: &mut Context<'_, PaxosMessage>) -> bool {
        let target = self.base.leader_guess();
        if target == self.base.me {
            return false;
        }
        let leader = self.base.dir.replica(target);
        while let Some(req) = self.queue.pop_front() {
            self.stats.requests_forwarded_to_leader += 1;
            ctx.send(leader, PaxosMessage::Request(req));
        }
        true
    }

    /// Counts a taken checkpoint and garbage-collects the executed
    /// instances it covers.
    fn checkpoint_taken(&mut self) {
        self.stats.checkpoints_taken += 1;
        self.window.advance_to(self.base.next_exec());
        self.next_propose = self.next_propose.max(self.window.low());
    }

    fn handle_checkpoint(&mut self, ctx: &mut Context<'_, PaxosMessage>, data: CheckpointData) {
        if !self.base.install_checkpoint(ctx, data) {
            return;
        }
        self.window.advance_to(self.base.next_exec());
        self.next_propose = self.next_propose.max(self.window.low());
        self.stalled = false;
        self.stats.checkpoints_installed += 1;
        self.try_execute(ctx);
    }

    // --------------------------------------------------------- view change

    fn has_pending_work(&self) -> bool {
        !self.queue.is_empty() || self.window.get(self.base.next_exec()).is_some()
    }

    /// Restarts failure detection after execution progress (or a fall
    /// back into a live view).
    fn progressed(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        self.forwarded_since_progress = 0;
        let pending = self.has_pending_work();
        self.base.reset_progress_timer(ctx, pending);
    }

    fn handle_progress_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>, timer: TimerId) {
        if !self.base.progress_timer_fired(ctx, timer) {
            return;
        }
        let suspicious = self.has_pending_work()
            || self.forwarded_since_progress > 0
            || self.base.in_view_change();
        self.forwarded_since_progress = 0;
        if !suspicious {
            return;
        }
        let target = self.base.effective_view().next();
        self.view_change(ctx, target, None);
        // Armed even if that was a no-op (`ReplicaBase::start_view_change`).
        self.base.ensure_progress_timer(ctx);
    }

    /// One step of the change to view `target`: a peer's vote for it came
    /// in (`theirs`), or — `None` — this replica's own progress timer
    /// demands it. This replica's vote is its execution frontier and its
    /// window, bodies included.
    fn view_change(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        target: View,
        theirs: Option<(NodeId, VcVote)>,
    ) {
        let (window, next_exec) = (&self.window, self.base.next_exec());
        let (base, votes) = (&mut self.base, &mut self.vc_store);
        let vote = || {
            let entry = |(sqn, inst): (SeqNumber, &Instance)| PaxosWindowEntry {
                sqn,
                view: inst.view,
                request: inst.request.clone(),
            };
            (next_exec, window.iter().map(entry).collect())
        };
        let wire = |(next_exec, window)| PaxosMessage::ViewChange {
            target,
            next_exec,
            window,
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

    fn enter_new_view(&mut self, ctx: &mut Context<'_, PaxosMessage>, target: View) {
        self.base.enter_view(ctx, target);
        self.stats.view_changes_completed += 1;
        let msgs = self.vc_store.take(target);

        // The proposal floor: the highest execution prefix any view-change
        // participant reported. Slots below it were executed by someone and
        // survive only in checkpoints — proposing there (a no-op for a gap,
        // or fresh client work) would rewrite history those replicas
        // already executed.
        let mut floor = self.base.next_exec();
        let mut merged: BTreeMap<u64, PaxosWindowEntry> = BTreeMap::new();
        for (next_exec, window) in msgs.into_values() {
            floor = floor.max(next_exec);
            for entry in window {
                if self.window.is_stale(entry.sqn) {
                    continue;
                }
                match merged.get(&entry.sqn.0) {
                    Some(existing) if existing.view >= entry.view => {}
                    _ => {
                        merged.insert(entry.sqn.0, entry);
                    }
                }
            }
        }
        if let Some(&max) = merged.keys().next_back() {
            for s in floor.0.max(self.window.low().0)..=max {
                let sqn = SeqNumber(s);
                if self.window.is_ahead(sqn) {
                    break;
                }
                let req = match merged.remove(&s) {
                    Some(entry) => entry.request,
                    None => {
                        self.stats.noops_proposed += 1;
                        noop_request(sqn)
                    }
                };
                self.propose_at(ctx, sqn, req);
            }
            self.next_propose = self.next_propose.max(SeqNumber(max + 1));
        }
        self.next_propose = self
            .next_propose
            .max(self.window.low())
            .max(self.base.next_exec())
            .max(floor);
        if floor > self.base.next_exec() {
            // We lead but lag the quorum's execution prefix: catch up via
            // checkpoint before executing. If the request or its reply is
            // lost, the progress timer escalates the view change and the
            // next enter_new_view retries.
            ctx.multicast(self.base.peers(), PaxosMessage::CheckpointRequest);
        }
        self.progressed(ctx);
        self.drain_queue(ctx);
        self.try_execute(ctx);
    }

    // ------------------------------------------------------------- recovery

    /// Rebuilds volatile state from the node's disk after an amnesia wipe:
    /// newest checkpoint first, then the execution suffix, then our
    /// surviving accept votes (they constrain what the cluster may commit
    /// in those slots), then the highest view we ever acted in.
    fn replay_wal(&mut self, ctx: &mut Context<'_, PaxosMessage>, disk: &[Vec<u8>]) {
        let replayed = self.base.replay_wal(ctx, disk, 0);
        self.stats.executed += replayed.executed;
        self.window.advance_to(self.base.next_exec());
        // Every slot we ever voted in may hold a decided value — proposing
        // fresh requests there would equivocate, so new proposals start
        // strictly above the whole voted prefix.
        let propose_past = self.base.replay_bindings(
            &mut self.window,
            &replayed.records,
            |inst| inst.view,
            |base, _, view, id, command| {
                let mut votes = QuorumTracker::new(base.majority());
                votes.record(base.me);
                Instance {
                    request: Request::new(id, command),
                    view,
                    committed: votes.reached(),
                    votes,
                    executed: base.executed_already(id),
                }
            },
        );
        self.next_propose = self.next_propose.max(propose_past).max(self.window.low());
    }
}

impl Node<PaxosMessage> for PaxosReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, PaxosMessage>, from: NodeId, msg: PaxosMessage) {
        ctx.charge(self.cfg.message_cost);
        // A non-member takes no part in the protocol: it handles the first
        // arms and drops the rest (see `ReplicaBase::redirect_client`).
        let member = self.base.is_member();
        match msg {
            PaxosMessage::Checkpoint(data) => self.handle_checkpoint(ctx, data),
            PaxosMessage::CheckpointRequest => {
                // Answered with a fresh checkpoint.
                self.base.handle_checkpoint_request(ctx, from);
                self.checkpoint_taken();
            }
            PaxosMessage::Request(req) if !member => self.base.redirect_client(ctx, req.id.client),
            _ if !member => {}
            PaxosMessage::Request(req) => self.handle_request(ctx, req),
            PaxosMessage::Propose { sqn, view, request } => {
                self.handle_propose(ctx, from, sqn, view, request)
            }
            PaxosMessage::Accept { sqn, view, id } => self.handle_accept(ctx, from, sqn, view, id),
            PaxosMessage::ViewChange {
                target,
                next_exec,
                window,
            } => self.view_change(ctx, target, Some((from, (next_exec, window)))),
            PaxosMessage::Reply(_)
            | PaxosMessage::Reject(_)
            | PaxosMessage::MembershipUpdate(_)
            | PaxosMessage::ProgressTimer
            | PaxosMessage::ClientTimeout(_)
            | PaxosMessage::RecoveryTimer => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>, timer: TimerId, msg: PaxosMessage) {
        match msg {
            PaxosMessage::ProgressTimer => self.handle_progress_timer(ctx, timer),
            PaxosMessage::RecoveryTimer => self.base.handle_recovery_timer(ctx),
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        // A wiped replica first rebuilds whatever its disk can prove.
        if self.base.take_wipe_recovery() {
            ctx.with_disk_records(|ctx, disk| self.replay_wal(ctx, disk));
        }
        self.base.rearm_on_recover(ctx);
        // Catch up on whatever committed while we were down. A single
        // fire-and-forget request can be lost along with its target — the
        // retry loop rotates through the other replicas until one answers.
        self.base.send_recovery_request(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_requests_are_empty_and_unique() {
        let a = noop_request(SeqNumber(1));
        let b = noop_request(SeqNumber(2));
        assert_ne!(a.id, b.id);
        assert!(a.command.is_empty());
        assert_eq!(a.id.client, NOOP_CLIENT);
    }
}
