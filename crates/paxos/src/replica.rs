//! The Paxos baseline replica.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use idem_common::app::CostModel;
use idem_common::{
    Chained, ClientId, Directory, ExecRecord, Membership, PersistMode, QuorumTracker,
    ReconfigCommand, ReplayLog, Reply, ReqHandle, ReqSlab, Request, RequestId, ResultBytes,
    SeqNumber, SeqWindow, SessionTable, StateMachine, View, Wal, WalRecordRef, RECONFIG_CLIENT,
};
use idem_simnet::{Context, Node, NodeId, SimTime, TimerId, Wire};

use crate::config::{PaxosConfig, RejectPolicy};
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

/// A Paxos replica implementing [`Node`] over [`PaxosMessage`].
pub struct PaxosReplica {
    cfg: PaxosConfig,
    me: idem_common::ReplicaId,
    dir: Directory<NodeId>,
    app: Box<dyn StateMachine + Send>,

    /// The current member list; all quorum arithmetic, leader rotation,
    /// and multicast targets derive from it. Advances when a reconfig
    /// command executes at its agreed slot.
    membership: Membership,
    /// Slot of an in-flight reconfiguration: new proposals wait until it
    /// executes, so no slot is bound under a membership it outlives.
    reconfig_barrier: Option<SeqNumber>,

    view: View,
    vc_target: Option<View>,
    vc_store: BTreeMap<u64, BTreeMap<u32, (SeqNumber, Vec<PaxosWindowEntry>)>>,

    window: SeqWindow<Instance>,
    next_propose: SeqNumber,
    next_exec: SeqNumber,
    stalled: bool,

    /// Leader: requests awaiting a window slot. Unbounded by design in
    /// plain Paxos.
    queue: VecDeque<Request>,
    /// Records for ids queued or in flight, for duplicate suppression.
    inflight: ReqSlab<InflightEntry>,

    /// Per-client sessions: the `last_executed` reply cache plus the
    /// heads of the in-flight chains.
    sessions: SessionTable,
    /// Reused buffer for state-machine execution results.
    exec_scratch: Vec<u8>,

    progress_timer: Option<TimerId>,
    /// Durable logging layer (disabled unless the harness opts in).
    wal: Wal,
    /// Set by the rebuild factory after an amnesia wipe: the next
    /// `on_recover` replays the disk before rejoining.
    wipe_recovering: bool,
    /// Armed while catching up after a reboot; each firing rotates the
    /// checkpoint-request target to another replica.
    recovery_timer: Option<TimerId>,
    recovery_attempts: u32,
    /// Evidence that a view below our pending view-change target is still
    /// live (f+1 distinct senders): used by rejoining partitioned replicas.
    rejoin_votes: Option<(View, QuorumTracker)>,
    /// Client requests relayed to the leader since the last local
    /// execution progress — evidence of a dead leader even when this
    /// follower holds no protocol work itself.
    forwarded_since_progress: u64,
    stats: PaxosReplicaStats,

    /// When enabled, every slot this replica consumes is appended here for
    /// post-run safety checking (see `idem_common::exec`).
    exec_log: Vec<ExecRecord>,
    exec_log_enabled: bool,
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
            window: SeqWindow::new(cfg.window_size),
            membership: Membership::bootstrap(cfg.quorum.n()),
            reconfig_barrier: None,
            cfg,
            me,
            dir,
            app,
            view: View(0),
            vc_target: None,
            vc_store: BTreeMap::new(),
            next_propose: SeqNumber(0),
            next_exec: SeqNumber(0),
            stalled: false,
            queue: VecDeque::new(),
            inflight: ReqSlab::new(),
            sessions: SessionTable::new(),
            exec_scratch: Vec::new(),
            progress_timer: None,
            wal: Wal::default(),
            wipe_recovering: false,
            recovery_timer: None,
            recovery_attempts: 0,
            rejoin_votes: None,
            forwarded_since_progress: 0,
            stats: PaxosReplicaStats::default(),
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
    /// [`enable_exec_log`](Self::enable_exec_log) was called).
    pub fn exec_log(&self) -> &[ExecRecord] {
        &self.exec_log
    }

    /// Protocol counters.
    pub fn stats(&self) -> &PaxosReplicaStats {
        &self.stats
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Current leader-queue length (only meaningful on the leader).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Next sequence number to execute.
    pub fn next_exec(&self) -> SeqNumber {
        self.next_exec
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

    /// The leader's current load: queued plus proposed-but-unexecuted
    /// requests. This is what LBR's threshold applies to.
    fn leader_load(&self) -> u64 {
        self.queue.len() as u64 + self.next_propose.0.saturating_sub(self.next_exec.0)
    }

    // ------------------------------------------------------------ requests

    fn handle_request(&mut self, ctx: &mut Context<'_, PaxosMessage>, req: Request) {
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
                    ctx.send(client, PaxosMessage::Reply(Reply::new(id, reply)));
                }
            }
            return;
        }
        if !self.is_leader() {
            // Misdirected request (stale leader knowledge at the client):
            // relay it to the current leader and watch for progress — if
            // the leader is dead this is our evidence that work is stuck.
            self.forwarded_since_progress += 1;
            let target = self.leader_of(self.effective_view());
            if target != self.me {
                self.stats.requests_forwarded_to_leader += 1;
                let leader = self.dir.replica(target);
                ctx.send(leader, PaxosMessage::Request(req));
            }
            // When `target` is this replica (a view change that would make
            // us leader is in flight), forwarding would loop the request
            // back to ourselves forever; drop it instead — the client
            // retransmits once the new view is installed.
            self.ensure_progress_timer(ctx);
            return;
        }
        if !self
            .inflight
            .chain_find(self.sessions.head(id.client), id)
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
                    let client = self.dir.client(id.client);
                    ctx.send(client, PaxosMessage::Reject(id));
                    return;
                }
            }
        }
        let mut head = self.sessions.head(id.client);
        let h = self.inflight.insert(InflightEntry {
            id,
            next: ReqHandle::NULL,
        });
        self.inflight.chain_push(&mut head, h);
        self.sessions.set_head(id.client, head);
        self.queue.push_back(req);
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.queue.len() as u64);
        self.ensure_progress_timer(ctx);
        self.drain_queue(ctx);
    }

    /// Whether an in-flight reconfiguration still blocks new proposals.
    /// Self-clearing: the barrier lifts once execution passes the
    /// reconfig slot (however the slot got executed — locally, via
    /// checkpoint install, or after a view change).
    fn barrier_active(&mut self) -> bool {
        match self.reconfig_barrier {
            Some(slot) if self.next_exec > slot => {
                self.reconfig_barrier = None;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    fn drain_queue(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        while self.is_leader()
            && !self.queue.is_empty()
            && self.next_propose < self.window.high()
            && !self.barrier_active()
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
        self.wal
            .log_accept(ctx, sqn.0, self.view.0, req.id, &req.command);
        let mut votes = QuorumTracker::new(self.majority());
        votes.record(self.me);
        let committed = votes.reached();
        let executed = self.executed_already(req.id);
        self.window.insert(
            sqn,
            Instance {
                request: req.clone(),
                view: self.view,
                votes,
                committed,
                executed,
            },
        );
        if req.id.client == RECONFIG_CLIENT && !executed {
            self.reconfig_barrier = Some(sqn);
        }
        self.stats.proposals_sent += 1;
        let view = self.view;
        ctx.multicast(
            self.peers(),
            PaxosMessage::Propose {
                sqn,
                view,
                request: req,
            },
        );
        self.try_execute(ctx);
    }

    // ----------------------------------------------------------- agreement

    fn view_acceptable(&self, v: View) -> bool {
        match self.vc_target {
            Some(t) => v >= t,
            None => v >= self.view,
        }
    }

    /// Rejoin a still-live lower view after a failed solo view change
    /// (e.g. when reconnecting from a partition).
    fn observe_live_view(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
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
                    self.reset_progress_timer(ctx);
                }
            }
            _ => {
                let mut votes = QuorumTracker::new(self.majority());
                votes.record(sender);
                self.rejoin_votes = Some((v, votes));
            }
        }
    }

    fn enter_view_as_follower(&mut self, ctx: &mut Context<'_, PaxosMessage>, v: View) {
        if v > self.view || self.vc_target == Some(v) {
            self.wal.log_view(ctx, v.0);
            self.view = v;
            self.vc_target = None;
            self.vc_store.retain(|&t, _| t > v.0);
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
            self.wal
                .log_accept(ctx, sqn.0, view.0, id, &request.command);
            let mut votes = QuorumTracker::new(self.majority());
            votes.record(sender);
            votes.record(self.me);
            let committed = votes.reached();
            let executed = self
                .window
                .get(sqn)
                .is_some_and(|i| i.executed && i.request.id == id)
                || self.executed_already(id);
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
                inst.votes.record(self.me);
                if inst.votes.reached() {
                    inst.committed = true;
                }
            }
        }
        self.stats.accepts_sent += 1;
        ctx.multicast(self.peers(), PaxosMessage::Accept { sqn, view, id });
        self.ensure_progress_timer(ctx);
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
        if view > self.view || self.vc_target == Some(view) {
            self.enter_view_as_follower(ctx, view);
        }
        if self.window.is_stale(sqn) || self.window.is_ahead(sqn) {
            return;
        }
        let leader = self.leader_of(view);
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
            if self.stalled || self.window.is_stale(self.next_exec) {
                break;
            }
            let Some(inst) = self.window.get(self.next_exec) else {
                break;
            };
            if !inst.committed {
                break;
            }
            let req = inst.request.clone();
            let already =
                inst.executed || req.id.client == NOOP_CLIENT || self.executed_already(req.id);
            let reconfig = !already && req.id.client == RECONFIG_CLIENT;
            self.persist_exec(
                ctx,
                self.next_exec,
                req.id,
                !already,
                if already { &[] } else { &req.command[..] },
            );
            if reconfig {
                // Membership change: the epoch switches exactly here, at
                // the agreed slot, on every replica. Applied to the
                // membership instead of the app; no client reply.
                self.stats.executed += 1;
                self.sessions
                    .record(req.id.client, req.id.op, ResultBytes::from_slice(&[]));
            } else if !already {
                let cost = self.app.execution_cost(&req.command);
                ctx.charge(cost);
                self.app.execute_into(&req.command, &mut self.exec_scratch);
                let result = ResultBytes::from_slice(&self.exec_scratch);
                self.stats.executed += 1;
                self.sessions
                    .record(req.id.client, req.id.op, result.clone());
                if self.is_leader() {
                    self.stats.replies_sent += 1;
                    let client = self.dir.client(req.id.client);
                    ctx.send(client, PaxosMessage::Reply(Reply::new(req.id, result)));
                }
            }
            let mut head = self.sessions.head(req.id.client);
            let h = self.inflight.chain_find(head, req.id);
            if !h.is_null() {
                self.inflight.chain_unlink(&mut head, h);
                self.sessions.set_head(req.id.client, head);
                self.inflight.remove(h);
            }
            self.window
                .get_mut(self.next_exec)
                .expect("present")
                .executed = true;
            self.next_exec = self.next_exec.next();
            if reconfig {
                if let Some(cmd) = ReconfigCommand::decode(&req.command) {
                    self.apply_reconfig(ctx, &cmd);
                }
            } else if self
                .next_exec
                .0
                .is_multiple_of(self.cfg.checkpoint_interval)
            {
                self.take_checkpoint(ctx);
            }
            progressed = true;
        }
        if progressed {
            self.reset_progress_timer(ctx);
            self.drain_queue(ctx);
        }
    }

    /// Logs (and, when persistence is on, fsyncs) one execution record
    /// *before* the execution side effects happen, then feeds the in-memory
    /// exec log used by the safety checker.
    fn persist_exec(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        slot: SeqNumber,
        id: RequestId,
        fresh: bool,
        command: &[u8],
    ) {
        let epoch = self.membership.epoch().0;
        self.wal.log_exec(ctx, slot.0, id, fresh, command, epoch);
        if self.exec_log_enabled {
            self.exec_log
                .push(ExecRecord::at_epoch(slot.0, id, fresh, epoch));
        }
    }

    /// Switches to the next epoch after executing a reconfiguration
    /// command: applies the change, announces the membership to clients,
    /// and takes a checkpoint at the epoch boundary so joiners bootstrap
    /// from state that already carries the new member list.
    fn apply_reconfig(&mut self, ctx: &mut Context<'_, PaxosMessage>, cmd: &ReconfigCommand) {
        self.membership.apply(cmd);
        self.reconfig_barrier = None;
        if !self.membership.contains(self.me) {
            // Voted out: stop participating. The on_message gate redirects
            // clients and ignores protocol traffic from here on.
            if let Some(t) = self.progress_timer.take() {
                ctx.cancel_timer(t);
            }
            if let Some(t) = self.recovery_timer.take() {
                ctx.cancel_timer(t);
            }
            // Requests this node queued as leader would be lost with it;
            // hand them to the new epoch's leader before going dark (the
            // client retransmission path still covers a lost handoff).
            let target = self.leader_of(self.effective_view());
            if target != self.me {
                let leader = self.dir.replica(target);
                while let Some(req) = self.queue.pop_front() {
                    self.stats.requests_forwarded_to_leader += 1;
                    ctx.send(leader, PaxosMessage::Request(req));
                }
            }
            self.queue.clear();
            self.inflight.clear();
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
        // otherwise keep talking to the old epoch's replica set.
        ctx.multicast(
            self.dir.client_addrs().iter().copied(),
            PaxosMessage::MembershipUpdate(self.membership.clone()),
        );
        // Leadership derives from the member list, so it may have moved at
        // the switch: hand queued work to the new leader, and a promoted
        // follower must re-anchor its stale proposal cursor first —
        // binding below the execution frontier would target slots whose
        // bindings are already decided and be refused.
        if self.is_leader() {
            self.next_propose = self.next_propose.max(self.window.low()).max(self.next_exec);
            self.drain_queue(ctx);
        } else if !self.queue.is_empty() {
            let target = self.leader_of(self.effective_view());
            if target != self.me {
                let leader = self.dir.replica(target);
                while let Some(req) = self.queue.pop_front() {
                    self.stats.requests_forwarded_to_leader += 1;
                    ctx.send(leader, PaxosMessage::Request(req));
                }
                self.inflight.clear();
            }
        }
    }

    /// Takes a checkpoint: charges the serialization, streams the state
    /// into the WAL, and garbage-collects what the checkpoint covers.
    /// Nothing is materialized — the only reader of a checkpoint's bytes
    /// besides the WAL is state transfer, which builds its own
    /// [`checkpoint_message`](Self::checkpoint_message) at the current
    /// frontier.
    fn take_checkpoint(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        ctx.charge(self.cfg.message_cost.message_cost(self.app.snapshot_len()));
        self.wal.log_checkpoint(
            ctx,
            self.next_exec.0,
            &*self.app,
            &self.sessions,
            &self.membership,
        );
        self.stats.checkpoints_taken += 1;
        // GC: drop executed instances covered by the checkpoint.
        self.window.advance_to(self.next_exec);
        self.next_propose = self.next_propose.max(self.window.low());
    }

    /// The current state as a checkpoint transfer. Taken at the current
    /// frontier, so the current membership is exactly the one in force
    /// there.
    fn checkpoint_message(&self) -> PaxosMessage {
        PaxosMessage::Checkpoint {
            next_exec: self.next_exec,
            snapshot: self.app.snapshot(),
            clients: self
                .sessions
                .iter()
                .map(|(cid, op, reply)| (cid, op, reply.to_vec()))
                .collect(),
            membership: self.membership.clone(),
        }
    }

    fn handle_checkpoint_request(&mut self, ctx: &mut Context<'_, PaxosMessage>, from: NodeId) {
        // Answer with a fresh checkpoint: the periodic one can predate the
        // requester's own state, which would leave a lagging replica
        // permanently unable to catch up.
        self.take_checkpoint(ctx);
        ctx.send(from, self.checkpoint_message());
    }

    fn handle_checkpoint(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        next_exec: SeqNumber,
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
        if next_exec <= self.next_exec {
            return;
        }
        ctx.charge(self.cfg.message_cost.message_cost(snapshot.len()));
        if membership.epoch() > self.membership.epoch() {
            // Epoch-aware state transfer: the snapshot's frontier is past
            // the reconfig slots it covers, so its membership is installed
            // with it. This is how a joining spare becomes a member.
            self.membership = membership;
            self.reconfig_barrier = None;
            if self.is_member() {
                self.ensure_progress_timer(ctx);
            }
        }
        self.app.restore(&snapshot);
        let rows = clients.iter().map(|(c, op, r)| (*c, op.0, &r[..]));
        self.sessions.restore_executed(rows.clone());
        self.next_exec = next_exec;
        self.window.advance_to(next_exec);
        self.next_propose = self.next_propose.max(self.window.low());
        self.stalled = false;
        self.stats.checkpoints_installed += 1;
        self.wal
            .log_checkpoint_data(ctx, next_exec.0, &snapshot, rows, &self.membership);
        self.try_execute(ctx);
    }

    // --------------------------------------------------------- view change

    fn ensure_progress_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        if self.progress_timer.is_none() {
            self.progress_timer =
                Some(ctx.set_timer(self.cfg.progress_timeout, PaxosMessage::ProgressTimer));
        }
    }

    fn has_pending_work(&self) -> bool {
        !self.queue.is_empty() || self.window.get(self.next_exec).is_some()
    }

    fn reset_progress_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        if let Some(timer) = self.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        self.forwarded_since_progress = 0;
        if self.has_pending_work() {
            self.ensure_progress_timer(ctx);
        }
    }

    fn handle_progress_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        self.progress_timer = None;
        if !self.is_member() {
            return;
        }
        let suspicious = self.has_pending_work()
            || self.forwarded_since_progress > 0
            || self.vc_target.is_some();
        self.forwarded_since_progress = 0;
        if !suspicious {
            return;
        }
        let target = self.effective_view().next();
        self.start_view_change(ctx, target);
        // start_view_change no-ops when a change to `target` is already in
        // flight — keep the timer armed regardless, or a stalled view
        // change would never be escalated past `target`.
        self.ensure_progress_timer(ctx);
    }

    fn window_summary(&self) -> Vec<PaxosWindowEntry> {
        self.window
            .iter()
            .map(|(sqn, inst)| PaxosWindowEntry {
                sqn,
                view: inst.view,
                request: inst.request.clone(),
            })
            .collect()
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, PaxosMessage>, target: View) {
        if target <= self.view || self.vc_target.is_some_and(|t| t >= target) {
            return;
        }
        self.vc_target = Some(target);
        self.stats.view_changes_started += 1;
        let summary = self.window_summary();
        self.vc_store
            .entry(target.0)
            .or_default()
            .insert(self.me.0, (self.next_exec, summary.clone()));
        ctx.multicast(
            self.peers(),
            PaxosMessage::ViewChange {
                target,
                next_exec: self.next_exec,
                window: summary,
            },
        );
        self.ensure_progress_timer(ctx);
        self.check_new_view(ctx, target);
    }

    fn handle_view_change(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        from: NodeId,
        target: View,
        next_exec: SeqNumber,
        window: Vec<PaxosWindowEntry>,
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
            .insert(sender.0, (next_exec, window));
        let senders = self.vc_store[&target.0].len() as u32;
        if senders >= self.majority() && self.vc_target.is_none_or(|t| t < target) {
            self.start_view_change(ctx, target);
        }
        self.check_new_view(ctx, target);
    }

    fn check_new_view(&mut self, ctx: &mut Context<'_, PaxosMessage>, target: View) {
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

    fn enter_new_view(&mut self, ctx: &mut Context<'_, PaxosMessage>, target: View) {
        self.wal.log_view(ctx, target.0);
        self.view = target;
        self.vc_target = None;
        self.stats.view_changes_completed += 1;
        let msgs = self.vc_store.remove(&target.0).unwrap_or_default();
        self.vc_store.retain(|&t, _| t > target.0);

        // The proposal floor: the highest execution prefix any view-change
        // participant reported. Slots below it were executed by someone and
        // survive only in checkpoints — proposing there (a no-op for a gap,
        // or fresh client work) would rewrite history those replicas
        // already executed.
        let mut floor = self.next_exec;
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
            .max(self.next_exec)
            .max(floor);
        if floor > self.next_exec {
            // We lead but lag the quorum's execution prefix: catch up via
            // checkpoint before executing. If the request or its reply is
            // lost, the progress timer escalates the view change and the
            // next enter_new_view retries.
            ctx.multicast(self.peers(), PaxosMessage::CheckpointRequest);
        }
        self.reset_progress_timer(ctx);
        self.drain_queue(ctx);
        self.try_execute(ctx);
    }

    // ------------------------------------------------------------- recovery

    const RECOVERY_RETRY_BASE: Duration = Duration::from_millis(100);

    /// Asks one peer for its checkpoint and arms a retry. The target
    /// rotates with the attempt counter so a dead leader (or any single
    /// dead peer) cannot strand a rebooting replica.
    fn send_recovery_request(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        // Rotate over the *members*: asking a departed (or never-joined)
        // node for a checkpoint would burn retry rounds on nodes that may
        // not answer or hold no state.
        let members = self.membership.members();
        let n = members.len() as u32;
        let leader = self.leader_of(self.effective_view());
        let lead_idx = members.iter().position(|&r| r == leader).unwrap_or(0) as u32;
        let mut idx = (lead_idx + self.recovery_attempts) % n;
        if members[idx as usize] == self.me {
            idx = (idx + 1) % n;
        }
        let target = members[idx as usize];
        ctx.send(self.dir.replica(target), PaxosMessage::CheckpointRequest);
        let delay = Self::RECOVERY_RETRY_BASE * (1 << self.recovery_attempts.min(3));
        if let Some(old) = self.recovery_timer.take() {
            ctx.cancel_timer(old);
        }
        self.recovery_timer = Some(ctx.set_timer(delay, PaxosMessage::RecoveryTimer));
    }

    fn handle_recovery_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        self.recovery_timer = None;
        self.recovery_attempts += 1;
        self.send_recovery_request(ctx);
    }

    /// Rebuilds volatile state from the node's disk after an amnesia wipe:
    /// newest checkpoint first, then the execution suffix, then our
    /// surviving accept votes (they constrain what the cluster may commit
    /// in those slots), then the highest view we ever acted in.
    fn replay_wal(&mut self, ctx: &mut Context<'_, PaxosMessage>, disk: &[Vec<u8>]) {
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
            self.next_exec = SeqNumber(cp.next_exec);
            self.window.advance_to(self.next_exec);
        }
        // Every durable execution re-enters the exec log (that is what the
        // durability invariant audits); state application resumes only past
        // the restored checkpoint.
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
            if *slot < self.next_exec.0 {
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
            } else if *fresh && id.client != NOOP_CLIENT && !self.executed_already(*id) {
                let cost = self.app.execution_cost(command);
                ctx.charge(cost);
                self.app.execute_into(command, &mut self.exec_scratch);
                let result = ResultBytes::from_slice(&self.exec_scratch);
                self.stats.executed += 1;
                self.sessions.record(id.client, id.op, result);
            }
            self.next_exec = SeqNumber(slot + 1);
        }
        self.window.advance_to(self.next_exec);
        let mut propose_past = self.next_exec;
        for rec in records {
            let WalRecordRef::Accept {
                slot,
                view,
                id,
                command,
            } = rec
            else {
                continue;
            };
            let sqn = SeqNumber(slot);
            if slot == u64::MAX {
                continue;
            }
            // Every slot we ever voted in may hold a decided value —
            // proposing fresh requests there would equivocate, so new
            // proposals must start strictly above the whole voted prefix
            // (even the parts outside the restored window).
            propose_past = propose_past.max(sqn.next());
            if self.window.is_stale(sqn) || self.window.is_ahead(sqn) {
                continue;
            }
            if self.window.get(sqn).is_some_and(|i| i.view.0 >= view) {
                continue;
            }
            let mut votes = QuorumTracker::new(self.majority());
            votes.record(self.me);
            let committed = votes.reached();
            let executed = self.executed_already(id);
            self.window.insert(
                sqn,
                Instance {
                    request: Request::new(id, command),
                    view: View(view),
                    votes,
                    committed,
                    executed,
                },
            );
        }
        if max_view > self.view.0 {
            self.view = View(max_view);
        }
        self.next_propose = self.next_propose.max(propose_past).max(self.window.low());
    }
}

impl Node<PaxosMessage> for PaxosReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, PaxosMessage>, from: NodeId, msg: PaxosMessage) {
        ctx.charge(self.cfg.message_cost.message_cost(msg.wire_size()));
        if !self.is_member() {
            // A spare that has not joined yet, or a departed member: no
            // protocol participation. Checkpoints are still installed
            // (that is how a joiner becomes a member), checkpoint requests
            // are still served, and client requests are answered with a
            // redirect once there is a newer membership to redirect to.
            match msg {
                PaxosMessage::Checkpoint {
                    next_exec,
                    snapshot,
                    clients,
                    membership,
                } => self.handle_checkpoint(ctx, next_exec, snapshot, clients, membership),
                PaxosMessage::CheckpointRequest => self.handle_checkpoint_request(ctx, from),
                PaxosMessage::Request(req)
                    if req.id.client != RECONFIG_CLIENT && self.membership.epoch().0 > 0 =>
                {
                    ctx.send(
                        self.dir.client(req.id.client),
                        PaxosMessage::MembershipUpdate(self.membership.clone()),
                    );
                }
                _ => {}
            }
            return;
        }
        match msg {
            PaxosMessage::Request(req) => self.handle_request(ctx, req),
            PaxosMessage::Propose { sqn, view, request } => {
                self.handle_propose(ctx, from, sqn, view, request)
            }
            PaxosMessage::Accept { sqn, view, id } => self.handle_accept(ctx, from, sqn, view, id),
            PaxosMessage::ViewChange {
                target,
                next_exec,
                window,
            } => self.handle_view_change(ctx, from, target, next_exec, window),
            PaxosMessage::CheckpointRequest => self.handle_checkpoint_request(ctx, from),
            PaxosMessage::Checkpoint {
                next_exec,
                snapshot,
                clients,
                membership,
            } => self.handle_checkpoint(ctx, next_exec, snapshot, clients, membership),
            PaxosMessage::Reply(_)
            | PaxosMessage::Reject(_)
            | PaxosMessage::MembershipUpdate(_)
            | PaxosMessage::ProgressTimer
            | PaxosMessage::ClientTimeout(_)
            | PaxosMessage::BackoffTimer
            | PaxosMessage::RecoveryTimer => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PaxosMessage>, _id: TimerId, msg: PaxosMessage) {
        match msg {
            PaxosMessage::ProgressTimer => self.handle_progress_timer(ctx),
            PaxosMessage::RecoveryTimer => self.handle_recovery_timer(ctx),
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {}

    fn on_recover(&mut self, ctx: &mut Context<'_, PaxosMessage>) {
        // A wiped replica first rebuilds whatever its disk can prove.
        if std::mem::take(&mut self.wipe_recovering) {
            ctx.with_disk_records(|ctx, disk| self.replay_wal(ctx, disk));
        }
        // The held progress-timer handle may refer to a timer lost during
        // the crash window: cancel it (a no-op if already fired) and arm a
        // fresh one so leader-failure detection keeps working.
        if let Some(timer) = self.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        self.ensure_progress_timer(ctx);
        // Catch up on whatever committed while we were down. A single
        // fire-and-forget request can be lost along with its target — the
        // retry loop rotates through the other replicas until one answers.
        self.recovery_attempts = 0;
        self.send_recovery_request(ctx);
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
