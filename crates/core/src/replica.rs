//! The IDEM replica: acceptance test, agreement, forwarding, implicit
//! garbage collection, checkpointing, and view changes (paper Sections 4–5).

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use idem_common::app::CostModel;
use idem_common::{
    Chained, ClientId, Directory, ExecRecord, Membership, PersistMode, QuorumTracker,
    ReconfigCommand, ReplayLog, Reply, ReqHandle, ReqSlab, Request, RequestId, ResultBytes,
    SeqNumber, SeqWindow, SessionTable, StateMachine, View, Wal, WalRecordRef, RECONFIG_CLIENT,
};
use idem_simnet::{Context, Node, NodeId, SimTime, TimerId, Wire};

use crate::acceptance::AcceptanceTest;
use crate::config::IdemConfig;
use crate::messages::{CheckpointData, ClientRecord, IdemMessage, WindowEntry};

/// Reserved client id for no-op requests proposed to fill sequence gaps
/// after a view change.
pub const NOOP_CLIENT: ClientId = ClientId(u32::MAX);

fn noop_id(sqn: SeqNumber) -> RequestId {
    RequestId::new(NOOP_CLIENT, idem_common::OpNumber(sqn.0))
}

/// Observable protocol counters of one replica.
///
/// These make the internal mechanisms testable: e.g. the Table 1
/// reproduction asserts that `forwards_sent` stays negligible thanks to the
/// rejected-request cache, and the view-change tests assert on
/// `view_changes_completed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ReplicaStats {
    pub requests_received: u64,
    pub duplicates: u64,
    pub rejected: u64,
    pub accepted_client: u64,
    pub accepted_forward: u64,
    pub proposals_sent: u64,
    pub commits_sent: u64,
    pub executed: u64,
    pub replies_sent: u64,
    pub forwards_sent: u64,
    pub fetches_sent: u64,
    pub fetches_served: u64,
    pub rejected_cache_hits: u64,
    pub checkpoints_taken: u64,
    pub checkpoints_installed: u64,
    pub view_changes_started: u64,
    pub view_changes_completed: u64,
    pub noops_proposed: u64,
    pub gc_advances: u64,
    pub stalls: u64,
}

/// Everything the protocol tracks about one in-flight request, resolved
/// with a single chain probe per incoming message (DESIGN.md §6e).
///
/// The record is freed — and its handle invalidated — only once every
/// concern below is clear, so a cached handle or a chain hit always
/// reflects the full protocol context of the id.
#[derive(Debug)]
struct ReqEntry {
    id: RequestId,
    /// Next record in the owning client's chain.
    next: ReqHandle,
    /// Request body, present while stored and/or rejected.
    body: Option<Request>,
    /// Accepted, not yet executed (`r_now` counts these).
    active: bool,
    /// Body held for fetches until a checkpoint prunes it.
    stored: bool,
    /// Present in the bounded FIFO rejected-request cache.
    rejected: bool,
    /// Leader: REQUIRE endorsements collected so far.
    votes: Option<QuorumTracker>,
    /// Leader: slot this id is bound to.
    proposed: Option<SeqNumber>,
    /// Delayed-forwarding timer, armed while the request is accepted.
    forward_timer: Option<TimerId>,
}

impl ReqEntry {
    fn new(id: RequestId) -> ReqEntry {
        ReqEntry {
            id,
            next: ReqHandle::NULL,
            body: None,
            active: false,
            stored: false,
            rejected: false,
            votes: None,
            proposed: None,
            forward_timer: None,
        }
    }

    /// Whether any protocol concern still references this record.
    fn in_use(&self) -> bool {
        self.active
            || self.stored
            || self.rejected
            || self.votes.is_some()
            || self.proposed.is_some()
            || self.forward_timer.is_some()
    }
}

impl Chained for ReqEntry {
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

/// Bounded FIFO cache of recently rejected requests (Section 5.2): a
/// rejected request might still be accepted elsewhere and get committed, in
/// which case having the body cached avoids a forward.
///
/// Membership and bodies live in the shared request slab (the `rejected`
/// flag on [`ReqEntry`]); this struct owns only the eviction order.
#[derive(Debug, Default)]
struct RejectedCache {
    capacity: usize,
    order: VecDeque<RequestId>,
    len: usize,
}

impl RejectedCache {
    fn new(capacity: usize) -> RejectedCache {
        RejectedCache {
            capacity,
            order: VecDeque::new(),
            len: 0,
        }
    }

    /// Marks `req` rejected, caching its body. `h` is the request's
    /// already-resolved slab handle (null if untracked so far).
    fn insert(
        &mut self,
        reqs: &mut ReqSlab<ReqEntry>,
        sessions: &mut SessionTable,
        req: Request,
        h: ReqHandle,
    ) {
        if self.capacity == 0 {
            return;
        }
        let id = req.id;
        let h = if reqs.contains(h) {
            h
        } else {
            let mut head = sessions.head(id.client);
            let h = reqs.insert(ReqEntry::new(id));
            reqs.chain_push(&mut head, h);
            sessions.set_head(id.client, head);
            h
        };
        let e = reqs.get_mut(h).expect("live");
        if e.rejected {
            return;
        }
        e.rejected = true;
        if e.body.is_none() {
            e.body = Some(req);
        }
        self.order.push_back(id);
        self.len += 1;
        while self.len > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            let mut head = sessions.head(old.client);
            let oh = reqs.chain_find(head, old);
            if let Some(oe) = reqs.get_mut(oh) {
                oe.rejected = false;
                if !oe.stored {
                    oe.body = None;
                }
                if !oe.in_use() {
                    reqs.chain_unlink(&mut head, oh);
                    sessions.set_head(old.client, head);
                    reqs.remove(oh);
                }
            }
            self.len -= 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// One consensus instance inside the window.
#[derive(Debug, Clone)]
struct Instance {
    id: RequestId,
    view: View,
    votes: QuorumTracker,
    committed: bool,
    executed: bool,
    fetch_sent: bool,
    source: idem_common::ReplicaId,
}

/// An IDEM replica, implementing [`Node`] over [`IdemMessage`].
///
/// Construct with [`IdemReplica::new`] and install into a
/// [`Simulation`](idem_simnet::Simulation); see the crate-level example.
pub struct IdemReplica {
    cfg: IdemConfig,
    me: idem_common::ReplicaId,
    dir: Directory<NodeId>,
    app: Box<dyn StateMachine + Send>,
    test: AcceptanceTest,

    /// The epoch-numbered replica set. All quorum arithmetic, the peer
    /// list, and leader derivation come from here; reconfiguration
    /// commands ordered through the protocol advance it at execution time.
    membership: Membership,
    /// Leader only: slot of an in-flight reconfiguration command. No new
    /// slots are bound past it until it executes, so the epoch switch
    /// point is the last slot of the old epoch.
    reconfig_barrier: Option<SeqNumber>,

    view: View,
    /// Pending view-change target (`Some` while between views).
    vc_target: Option<View>,
    /// Latest `ViewChange` window summary per (target view, sender).
    vc_store: BTreeMap<u64, BTreeMap<u32, Vec<WindowEntry>>>,

    window: SeqWindow<Instance>,
    /// Reused buffer for per-operation window GC, so steady-state
    /// [`SeqWindow::advance_to_into`] never allocates.
    gc_scratch: Vec<(SeqNumber, Instance)>,
    next_propose: SeqNumber,
    next_exec: SeqNumber,
    /// Set when GC overtook local execution; cleared by checkpoint install.
    stalled: bool,

    /// Per-request protocol state (body, acceptance, endorsements,
    /// binding, forward timer, rejection), one record per tracked id,
    /// chained per client. Replaces the former per-concern trees; a
    /// message resolves its whole request context with one chain probe.
    reqs: ReqSlab<ReqEntry>,
    /// Per-client sessions: duplicate suppression, the reply cache
    /// (small replies inline, so caching and resending never
    /// allocates), and the chain heads into [`Self::reqs`].
    sessions: SessionTable,
    /// Count of accepted-not-executed requests — the `r_now` of the
    /// acceptance test, maintained incrementally.
    active_count: usize,
    /// Bodies of *executed* requests awaiting checkpoint prune, moved
    /// out of the slab at execution so client chains hold only live
    /// records. Only fetches and WAL re-proposals look here.
    cold_store: BTreeMap<RequestId, Request>,
    rejected_cache: RejectedCache,
    /// Require-quorum reached while the window was full.
    pending_proposals: VecDeque<RequestId>,

    /// Reused buffer for state-machine execution results.
    exec_scratch: Vec<u8>,

    progress_timer: Option<TimerId>,
    /// Reused window-sized merge scratch for view changes, so
    /// [`Self::enter_new_view`] never rebuilds a per-call tree.
    vc_merge: Vec<Option<WindowEntry>>,
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
    /// live (f+1 distinct senders): a rejoining partitioned replica must
    /// abandon its solo view change and fall back in.
    rejoin_votes: Option<(View, QuorumTracker)>,

    max_client_seen: u32,
    /// Exponentially smoothed `r_now` (time constant ≈20 ms) feeding the
    /// AQM probability so replicas compute near-identical drop rates.
    load_estimate: f64,
    load_estimate_at: SimTime,
    stats: ReplicaStats,

    /// When enabled, every slot this replica consumes is appended here for
    /// post-run safety checking (see `idem_common::exec`).
    exec_log: Vec<ExecRecord>,
    exec_log_enabled: bool,
}

impl IdemReplica {
    /// Creates a replica with identity `me`, the cluster address book, and
    /// the application to replicate.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`IdemConfig::validate`]).
    pub fn new(
        cfg: IdemConfig,
        me: idem_common::ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
    ) -> IdemReplica {
        cfg.validate();
        let test = AcceptanceTest::new(
            cfg.acceptance,
            cfg.reject_threshold,
            crate::acceptance::AqmConfig::default(),
        );
        IdemReplica {
            window: SeqWindow::new(cfg.window_size),
            gc_scratch: Vec::new(),
            rejected_cache: RejectedCache::new(cfg.rejected_cache_capacity),
            membership: Membership::bootstrap(cfg.quorum.n()),
            reconfig_barrier: None,
            cfg,
            me,
            dir,
            app,
            test,
            view: View(0),
            vc_target: None,
            vc_store: BTreeMap::new(),
            next_propose: SeqNumber(0),
            next_exec: SeqNumber(0),
            stalled: false,
            reqs: ReqSlab::new(),
            sessions: SessionTable::new(),
            active_count: 0,
            cold_store: BTreeMap::new(),
            pending_proposals: VecDeque::new(),
            exec_scratch: Vec::new(),
            progress_timer: None,
            vc_merge: Vec::new(),
            wal: Wal::default(),
            wipe_recovering: false,
            recovery_timer: None,
            recovery_attempts: 0,
            rejoin_votes: None,
            max_client_seen: 0,
            load_estimate: 0.0,
            load_estimate_at: SimTime::ZERO,
            stats: ReplicaStats::default(),
            exec_log: Vec::new(),
            exec_log_enabled: false,
        }
    }

    /// Turns on execution-order recording (off by default; recording every
    /// slot costs memory proportional to the run length).
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

    fn record_exec(&mut self, slot: SeqNumber, id: RequestId, fresh: bool) {
        if self.exec_log_enabled {
            self.exec_log.push(ExecRecord::at_epoch(
                slot.0,
                id,
                fresh,
                self.membership.epoch().0,
            ));
        }
    }

    /// Write-ahead variant of [`record_exec`](Self::record_exec): the slot
    /// consumption hits the disk (and the fsync barrier) before the caller
    /// applies the command, so every externalized execution is replayable
    /// after a wipe.
    fn persist_exec(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        slot: SeqNumber,
        id: RequestId,
        fresh: bool,
        command: &[u8],
    ) {
        let epoch = self.membership.epoch().0;
        self.wal.log_exec(ctx, slot.0, id, fresh, command, epoch);
        self.record_exec(slot, id, fresh);
    }

    /// Durably logs the binding of `id` to `sqn` in `view`, body included
    /// when this replica holds it.
    fn log_binding(
        &self,
        ctx: &mut Context<'_, IdemMessage>,
        sqn: SeqNumber,
        view: View,
        id: RequestId,
    ) {
        if self.wal.enabled() {
            let command = self.store_get(id).map_or(&[][..], |r| &r.command);
            self.wal.log_accept(ctx, sqn.0, view.0, id, command);
        }
    }

    /// Protocol counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// The view this replica currently operates in.
    pub fn view(&self) -> View {
        self.view
    }

    /// Whether this replica is between views (view change in progress).
    pub fn in_view_change(&self) -> bool {
        self.vc_target.is_some()
    }

    /// Number of currently active (accepted, unexecuted) requests: the
    /// `r_now` of the acceptance test.
    pub fn active_requests(&self) -> usize {
        self.active_count
    }

    /// Next sequence number to execute.
    pub fn next_exec(&self) -> SeqNumber {
        self.next_exec
    }

    /// Read access to the replicated application (for state comparison in
    /// tests).
    pub fn app(&self) -> &dyn StateMachine {
        &*self.app
    }

    /// Number of entries currently held in the rejected-request cache.
    pub fn rejected_cache_len(&self) -> usize {
        self.rejected_cache.len()
    }

    /// Highest executed operation number for `client`, if any.
    pub fn last_executed_op(&self, client: ClientId) -> Option<idem_common::OpNumber> {
        self.sessions.last_op(client)
    }

    /// The replica set this replica currently operates under.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Whether this replica belongs to its own current membership. False
    /// for a spare that has not joined yet and for a departed member.
    pub fn is_member(&self) -> bool {
        self.membership.contains(self.me)
    }

    // ---------------------------------------------------------------- roles

    fn majority(&self) -> u32 {
        self.membership.majority()
    }

    /// The view whose leader currently receives REQUIREs: the pending
    /// view-change target if any, the entered view otherwise.
    fn effective_view(&self) -> View {
        self.vc_target.unwrap_or(self.view)
    }

    fn leader_of(&self, v: View) -> idem_common::ReplicaId {
        self.membership.leader_of(v)
    }

    fn is_leader(&self) -> bool {
        self.vc_target.is_none() && self.leader_of(self.view) == self.me
    }

    fn leader_node(&self) -> NodeId {
        self.dir.replica(self.leader_of(self.effective_view()))
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

    // ----------------------------------------------- dense request records

    /// Resolves the slab record tracking `id` (null handle if none).
    /// This single probe replaces the per-concern tree descents of the
    /// former representation.
    fn find(&self, id: RequestId) -> ReqHandle {
        self.reqs.chain_find(self.sessions.head(id.client), id)
    }

    /// Resolves or creates the record tracking `id`.
    fn find_or_create(&mut self, id: RequestId) -> ReqHandle {
        let mut head = self.sessions.head(id.client);
        let h = self.reqs.chain_find(head, id);
        if !h.is_null() {
            return h;
        }
        let h = self.reqs.insert(ReqEntry::new(id));
        self.reqs.chain_push(&mut head, h);
        self.sessions.set_head(id.client, head);
        h
    }

    /// Frees the record behind `h` if no protocol concern references it
    /// anymore, unlinking it from its client's chain.
    fn release_if_unused(&mut self, h: ReqHandle) {
        let Some(e) = self.reqs.get(h) else {
            return;
        };
        if e.in_use() {
            return;
        }
        let client = e.id.client;
        let mut head = self.sessions.head(client);
        self.reqs.chain_unlink(&mut head, h);
        self.sessions.set_head(client, head);
        self.reqs.remove(h);
    }

    /// Body lookup with the former `store` semantics: accepted bodies
    /// not yet pruned by a checkpoint (live in the slab, executed in
    /// the cold store).
    fn store_get(&self, id: RequestId) -> Option<&Request> {
        match self.reqs.get(self.find(id)) {
            Some(e) if e.stored => e.body.as_ref(),
            _ => self.cold_store.get(&id),
        }
    }

    /// Body lookup across both the store and the rejected cache (the
    /// fetch/execution path).
    fn body_of(&self, id: RequestId) -> Option<&Request> {
        match self.reqs.get(self.find(id)).and_then(|e| e.body.as_ref()) {
            Some(body) => Some(body),
            None => self.cold_store.get(&id),
        }
    }

    // ------------------------------------------------------- request intake

    fn handle_request(&mut self, ctx: &mut Context<'_, IdemMessage>, req: Request) {
        self.stats.requests_received += 1;
        self.max_client_seen = self.max_client_seen.max(req.id.client.0);
        let id = req.id;

        if self.executed_already(id) {
            self.stats.duplicates += 1;
            if id.client == RECONFIG_CLIENT {
                // Reconfig commands have no client node to answer.
                return;
            }
            // Retransmission of a completed operation. In the normal case
            // only the leader replies, but a retransmission means the
            // client never saw that reply (lost message or crashed leader),
            // so *any* replica may answer from its reply cache — execution
            // is deterministic, all caches agree.
            if let Some((op, reply)) = self.sessions.get(id.client) {
                if op == id.op {
                    let msg = IdemMessage::Reply(Reply::new(id, reply.clone()));
                    self.stats.replies_sent += 1;
                    ctx.send(self.dir.client(id.client), msg);
                }
            }
            return;
        }

        // One probe resolves the whole protocol context of this id.
        let h = self.find(id);
        if let Some(e) = self.reqs.get_mut(h) {
            if e.active || e.proposed.is_some() {
                // Retransmission of an in-flight request (e.g. across a view
                // change): make sure the body is stored and the current
                // leader knows we vouch for it.
                self.stats.duplicates += 1;
                if !e.stored {
                    e.stored = true;
                    if e.body.is_none() {
                        e.body = Some(req);
                    }
                }
                let leader = self.leader_node();
                ctx.send(leader, IdemMessage::Require(id));
                return;
            }
        }

        if id.client == RECONFIG_CLIENT {
            // Reconfiguration commands are control-plane traffic: they
            // bypass the acceptance test (rejecting a membership change
            // under load would make churn recovery impossible exactly when
            // it matters) and are ordered like any other command.
            self.stats.accepted_client += 1;
            self.accept(ctx, req, h);
            return;
        }

        // The acceptance test (Section 5.1).
        let r_now = self.active_count as u32;
        let estimate = self.update_load_estimate(ctx.now(), r_now);
        if !self.test.accepts_request(
            id,
            req.command.len(),
            r_now,
            estimate,
            ctx.now(),
            self.max_client_seen,
        ) {
            self.stats.rejected += 1;
            let client = self.dir.client(id.client);
            self.rejected_cache
                .insert(&mut self.reqs, &mut self.sessions, req, h);
            ctx.send(client, IdemMessage::Reject(id));
            return;
        }

        self.stats.accepted_client += 1;
        self.accept(ctx, req, h);
    }

    /// Common accept path for client-received and forwarded requests.
    /// `h` is the request's already-resolved record (null if untracked).
    fn accept(&mut self, ctx: &mut Context<'_, IdemMessage>, req: Request, h: ReqHandle) {
        let id = req.id;
        // Durable before the REQUIRE leaves: an accepted body must
        // survive amnesia, because peers may commit it on our vouching.
        self.wal
            .log_accept(ctx, u64::MAX, self.view.0, id, &req.command);
        let h = if self.reqs.contains(h) {
            h
        } else {
            self.find_or_create(id)
        };
        let e = self.reqs.get_mut(h).expect("live");
        if !e.active {
            e.active = true;
            self.active_count += 1;
        }
        e.stored = true;
        e.body = Some(req);
        let leader = self.leader_node();
        ctx.send(leader, IdemMessage::Require(id));
        let timer = ctx.set_timer(self.cfg.forward_timeout, IdemMessage::ForwardTimer(id));
        if let Some(old) = self
            .reqs
            .get_mut(h)
            .expect("live")
            .forward_timer
            .replace(timer)
        {
            ctx.cancel_timer(old);
        }
        self.ensure_progress_timer(ctx);
    }

    /// Advances the exponentially smoothed load estimate to `now`.
    fn update_load_estimate(&mut self, now: SimTime, r_now: u32) -> f64 {
        const TAU_NS: f64 = 20_000_000.0; // 20 ms time constant
        let dt = now.saturating_since(self.load_estimate_at).as_nanos() as f64;
        let w = (-dt / TAU_NS).exp();
        self.load_estimate = w * self.load_estimate + (1.0 - w) * f64::from(r_now);
        self.load_estimate_at = now;
        self.load_estimate
    }

    fn handle_forward(&mut self, ctx: &mut Context<'_, IdemMessage>, req: Request) {
        let id = req.id;
        self.max_client_seen = self.max_client_seen.max(id.client.0);
        if self.executed_already(id) {
            return;
        }
        let h = self.find(id);
        if let Some(e) = self.reqs.get_mut(h) {
            if e.active {
                if !e.stored {
                    e.stored = true;
                    if e.body.is_none() {
                        e.body = Some(req);
                    }
                }
                return;
            }
        }
        // Forwarded requests are accepted regardless of load (Section 4.3).
        self.stats.accepted_forward += 1;
        self.accept(ctx, req, h);
        // A forward may answer an outstanding fetch: retry execution.
        self.try_execute(ctx);
    }

    fn handle_fetch(&mut self, ctx: &mut Context<'_, IdemMessage>, from: NodeId, id: RequestId) {
        let body = self.body_of(id).cloned();
        if let Some(req) = body {
            self.stats.fetches_served += 1;
            ctx.send(from, IdemMessage::Forward(req));
        }
    }

    fn handle_forward_timer(&mut self, ctx: &mut Context<'_, IdemMessage>, id: RequestId) {
        let h = self.find(id);
        let Some(e) = self.reqs.get_mut(h) else {
            return;
        };
        e.forward_timer = None;
        let active = e.active;
        if !self.is_member() || !active || self.executed_already(id) {
            self.release_if_unused(h);
            return;
        }
        // Delayed forwarding (Section 5.2): the request is still live after
        // the timeout, so relay it to everyone and re-endorse it with the
        // current leader, then re-arm.
        let body = match self.reqs.get(h) {
            Some(e) if e.stored => e.body.clone(),
            _ => None,
        };
        if let Some(req) = body {
            self.stats.forwards_sent += 1;
            ctx.multicast(self.peers(), IdemMessage::Forward(req));
            let leader = self.leader_node();
            ctx.send(leader, IdemMessage::Require(id));
            let timer = ctx.set_timer(self.cfg.forward_timeout, IdemMessage::ForwardTimer(id));
            if let Some(e) = self.reqs.get_mut(h) {
                e.forward_timer = Some(timer);
            }
        }
    }

    // ---------------------------------------------------------- agreement

    fn handle_require(&mut self, ctx: &mut Context<'_, IdemMessage>, from: NodeId, id: RequestId) {
        let Some(from_replica) = self.dir.replica_of(from) else {
            return;
        };
        if !self.membership.contains(from_replica) {
            // Endorsements from outside the membership (a departed node,
            // or a joiner we have not switched to yet) must not count
            // toward quorums.
            return;
        }
        if self.executed_already(id) {
            return;
        }
        let h = self.find(id);
        if let Some(sqn) = self.reqs.get(h).and_then(|e| e.proposed) {
            // Already bound: retransmit the proposal to the endorser, which
            // may have missed it.
            if let Some(inst) = self.window.get(sqn) {
                if inst.id == id && from != ctx.id() {
                    let view = inst.view;
                    ctx.send(from, IdemMessage::Propose { id, sqn, view });
                }
            }
            return;
        }
        let majority = self.majority();
        let h = if self.reqs.contains(h) {
            h
        } else {
            self.find_or_create(id)
        };
        let e = self.reqs.get_mut(h).expect("live");
        let votes = e.votes.get_or_insert_with(|| QuorumTracker::new(majority));
        if votes.record(from_replica) {
            self.try_propose(ctx, id);
        }
    }

    fn try_propose(&mut self, ctx: &mut Context<'_, IdemMessage>, id: RequestId) {
        if !self.is_leader() {
            // Keep the endorsements; they are drained if we become leader.
            return;
        }
        let h = self.find(id);
        let bound = self.reqs.get(h).is_some_and(|e| e.proposed.is_some());
        if bound || self.executed_already(id) {
            if let Some(e) = self.reqs.get_mut(h) {
                e.votes = None;
            }
            self.release_if_unused(h);
            return;
        }
        if self.barrier_active() || self.next_propose >= self.window.high() {
            self.pending_proposals.push_back(id);
            return;
        }
        let sqn = self.next_propose.max(self.window.low());
        self.next_propose = sqn.next();
        self.bind_and_propose(ctx, id, sqn);
        self.maybe_advance_window(ctx, sqn);
        self.try_execute(ctx);
    }

    /// Whether an in-flight reconfiguration blocks new slot bindings.
    /// Self-clearing: once execution passes the barrier slot the epoch has
    /// switched and proposing may resume.
    fn barrier_active(&mut self) -> bool {
        match self.reconfig_barrier {
            Some(b) if self.next_exec > b => {
                self.reconfig_barrier = None;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Installs an instance at `sqn` led by this replica in the current
    /// view and multicasts the proposal.
    fn bind_and_propose(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        id: RequestId,
        sqn: SeqNumber,
    ) {
        // The slot binding must be durable before the proposal leaves:
        // after amnesia we must never bind a different request to a slot
        // we already proposed (equivocation).
        self.log_binding(ctx, sqn, self.view, id);
        let mut votes = QuorumTracker::new(self.majority());
        let committed = votes.record(self.me) || votes.reached();
        let executed = self.executed_already(id);
        let inst = Instance {
            id,
            view: self.view,
            votes,
            committed,
            executed,
            fetch_sent: false,
            source: self.me,
        };
        self.window.insert(sqn, inst);
        if id.client == RECONFIG_CLIENT {
            self.reconfig_barrier = Some(sqn);
        }
        let h = self.find_or_create(id);
        let e = self.reqs.get_mut(h).expect("live");
        e.proposed = Some(sqn);
        e.votes = None;
        self.stats.proposals_sent += 1;
        let view = self.view;
        ctx.multicast(self.peers(), IdemMessage::Propose { id, sqn, view });
    }

    fn view_acceptable(&self, v: View) -> bool {
        match self.vc_target {
            Some(t) => v >= t,
            None => v >= self.view,
        }
    }

    /// A partitioned replica that unilaterally demanded a view change must
    /// rejoin the old view when it reconnects and observes that view still
    /// making progress at `f + 1` distinct replicas (nobody else will help
    /// complete its solo view change).
    fn observe_live_view(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        v: View,
        sender: idem_common::ReplicaId,
    ) -> bool {
        let Some(target) = self.vc_target else {
            return false;
        };
        if v < self.view || v >= target {
            return false;
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
                    return true;
                }
            }
            _ => {
                let mut votes = QuorumTracker::new(self.majority());
                votes.record(sender);
                self.rejoin_votes = Some((v, votes));
            }
        }
        false
    }

    /// Adopts a higher (or pending-target) view upon evidence that it is
    /// operational, and re-endorses live requests with its leader.
    fn enter_view_as_follower(&mut self, ctx: &mut Context<'_, IdemMessage>, v: View) {
        if v > self.view || self.vc_target == Some(v) {
            self.wal.log_view(ctx, v.0);
            self.view = v;
            self.vc_target = None;
            self.vc_store.retain(|&t, _| t > v.0);
            // Re-endorse everything still live so the new leader can
            // propose requests whose REQUIREs died with the old leader.
            // Sorted by id to reproduce the former tree-iteration order.
            let leader = self.dir.replica(self.leader_of(v));
            let mut live: Vec<RequestId> = self
                .reqs
                .iter()
                .filter(|(_, e)| e.active)
                .map(|(_, e)| e.id)
                .filter(|&id| !self.executed_already(id))
                .collect();
            live.sort_unstable();
            for id in live {
                ctx.send(leader, IdemMessage::Require(id));
            }
        }
    }

    fn handle_propose(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        from: NodeId,
        id: RequestId,
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
            // We are lagging far behind; ask the leader for a checkpoint.
            ctx.send(from, IdemMessage::CheckpointRequest);
            return;
        }
        // A committed slot's binding is decided: a conflicting proposal can
        // only come from a leader whose volatile state regressed (e.g.
        // incomplete amnesia recovery). Endorsing it — at any view — could
        // commit two requests at one slot, so refuse outright.
        if let Some(existing) = self.window.get(sqn) {
            if existing.committed && existing.id != id {
                return;
            }
        }
        let replace = match self.window.get(sqn) {
            Some(existing) => view > existing.view,
            None => true,
        };
        if replace {
            // Our endorsement of this binding may complete its quorum; it
            // must survive amnesia.
            self.log_binding(ctx, sqn, view, id);
            let mut votes = QuorumTracker::new(self.majority());
            votes.record(sender); // the leader's proposal counts as a commit
            votes.record(self.me);
            let committed = votes.reached();
            let executed = self
                .window
                .get(sqn)
                .is_some_and(|i| i.executed && i.id == id)
                || self.executed_already(id);
            self.window.insert(
                sqn,
                Instance {
                    id,
                    view,
                    votes,
                    committed,
                    executed,
                    fetch_sent: false,
                    source: sender,
                },
            );
        } else {
            let inst = self.window.get_mut(sqn).expect("checked above");
            if inst.view == view {
                if inst.id != id {
                    // Same-view equivocation (two bindings from one leader
                    // incarnation): keep our accepted binding and do not
                    // endorse the conflicting one.
                    return;
                }
                inst.votes.record(sender);
                inst.votes.record(self.me);
                if inst.votes.reached() {
                    inst.committed = true;
                }
            }
        }
        self.stats.commits_sent += 1;
        ctx.multicast(self.peers(), IdemMessage::Commit { id, sqn, view });
        self.maybe_advance_window(ctx, sqn);
        self.try_execute(ctx);
    }

    fn handle_commit(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        from: NodeId,
        id: RequestId,
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
        if view > self.view || self.vc_target == Some(view) {
            // f+1 replicas saw the new leader's proposal; safe to follow.
            self.enter_view_as_follower(ctx, view);
        }
        if self.window.is_stale(sqn) {
            return;
        }
        if self.window.is_ahead(sqn) {
            ctx.send(from, IdemMessage::CheckpointRequest);
            return;
        }
        let leader = self.leader_of(view);
        match self.window.get_mut(sqn) {
            Some(inst) if inst.view == view && inst.id == id => {
                inst.votes.record(sender);
                // A commit proves the sender saw the leader's proposal.
                inst.votes.record(leader);
                if inst.votes.reached() {
                    inst.committed = true;
                }
            }
            Some(_) => {} // different binding; ignore
            None => {
                // Commit arrived before the proposal: create the instance
                // from the commit's information.
                let mut votes = QuorumTracker::new(self.majority());
                votes.record(sender);
                votes.record(self.leader_of(view));
                let committed = votes.reached();
                let executed = self.executed_already(id);
                self.window.insert(
                    sqn,
                    Instance {
                        id,
                        view,
                        votes,
                        committed,
                        executed,
                        fetch_sent: false,
                        source: sender,
                    },
                );
            }
        }
        self.maybe_advance_window(ctx, sqn);
        self.try_execute(ctx);
    }

    // ---------------------------------------------------------- execution

    fn try_execute(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        let mut progressed = false;
        loop {
            if self.stalled {
                break;
            }
            if self.window.is_stale(self.next_exec) {
                // GC overtook us; only a checkpoint can resynchronize.
                self.enter_stall(ctx);
                break;
            }
            let Some(inst) = self.window.get(self.next_exec) else {
                break;
            };
            if !inst.committed {
                break;
            }
            let id = inst.id;
            if inst.executed {
                self.next_exec = self.next_exec.next();
                self.after_execute(ctx);
                progressed = true;
                continue;
            }
            if id.client == NOOP_CLIENT {
                self.persist_exec(ctx, self.next_exec, id, false, &[]);
                self.window
                    .get_mut(self.next_exec)
                    .expect("present")
                    .executed = true;
                self.next_exec = self.next_exec.next();
                self.after_execute(ctx);
                progressed = true;
                continue;
            }
            if self.executed_already(id) {
                // Duplicate binding across views: consume without re-running
                // the application.
                self.persist_exec(ctx, self.next_exec, id, false, &[]);
                self.window
                    .get_mut(self.next_exec)
                    .expect("present")
                    .executed = true;
                self.finish_request(ctx, id);
                self.next_exec = self.next_exec.next();
                self.after_execute(ctx);
                progressed = true;
                continue;
            }
            let body = self.body_of(id).cloned();
            let Some(req) = body else {
                // Committed id whose body we never saw: fetch it
                // (Section 5.2, request fetching).
                let source = inst.source;
                let already = inst.fetch_sent;
                if !already {
                    self.window
                        .get_mut(self.next_exec)
                        .expect("present")
                        .fetch_sent = true;
                    self.stats.fetches_sent += 1;
                    let target = self.dir.replica(source);
                    ctx.send(target, IdemMessage::Fetch(id));
                }
                break;
            };
            if id.client == RECONFIG_CLIENT {
                // Membership change: the epoch switches exactly here, at
                // the agreed slot, on every replica. Applied to the
                // membership instead of the app; no client reply.
                self.persist_exec(ctx, self.next_exec, id, true, &req.command);
                self.stats.executed += 1;
                self.sessions
                    .record(id.client, id.op, ResultBytes::from_slice(&[]));
                self.window
                    .get_mut(self.next_exec)
                    .expect("present")
                    .executed = true;
                self.finish_request(ctx, id);
                self.next_exec = self.next_exec.next();
                if let Some(cmd) = ReconfigCommand::decode(&req.command) {
                    self.apply_reconfig(ctx, &cmd);
                }
                self.after_execute(ctx);
                progressed = true;
                continue;
            }
            let (rejected, stored) = self
                .reqs
                .get(self.find(id))
                .map(|e| (e.rejected, e.stored))
                .unwrap_or((false, false));
            if rejected && !stored && !self.cold_store.contains_key(&id) {
                self.stats.rejected_cache_hits += 1;
            }
            // Execute (durably logged first, so the op survives a wipe
            // right after the client sees its reply).
            self.persist_exec(ctx, self.next_exec, id, true, &req.command);
            let cost = self.app.execution_cost(&req.command);
            ctx.charge(cost);
            self.app.execute_into(&req.command, &mut self.exec_scratch);
            let result = ResultBytes::from_slice(&self.exec_scratch);
            self.stats.executed += 1;
            self.sessions.record(id.client, id.op, result.clone());
            if self.is_leader() {
                self.stats.replies_sent += 1;
                let client = self.dir.client(id.client);
                ctx.send(client, IdemMessage::Reply(Reply::new(id, result)));
            }
            self.window
                .get_mut(self.next_exec)
                .expect("present")
                .executed = true;
            self.finish_request(ctx, id);
            self.next_exec = self.next_exec.next();
            self.after_execute(ctx);
            progressed = true;
        }
        if progressed {
            self.reset_progress_timer(ctx);
            self.drain_pending_proposals(ctx);
        }
    }

    /// Releases the active slot and leader bookkeeping of a finished
    /// request, and retires its record from the client's chain: a stored
    /// body moves to the cold store (fetches must find it until a
    /// checkpoint prunes it), a rejected body stays behind for the
    /// rejected cache's FIFO eviction.
    fn finish_request(&mut self, ctx: &mut Context<'_, IdemMessage>, id: RequestId) {
        let h = self.find(id);
        let Some(e) = self.reqs.get_mut(h) else {
            return;
        };
        if e.active {
            e.active = false;
            self.active_count -= 1;
        }
        e.votes = None;
        if let Some(timer) = e.forward_timer.take() {
            ctx.cancel_timer(timer);
        }
        if e.stored {
            e.stored = false;
            let body = if e.rejected {
                e.body.clone()
            } else {
                e.body.take()
            };
            if let Some(body) = body {
                self.cold_store.insert(id, body);
            }
        }
        self.release_if_unused(h);
    }

    /// Switches to the next epoch after executing a reconfiguration
    /// command: applies the change, re-anchors leadership under the new
    /// member list, announces the membership to clients, and takes a
    /// checkpoint at the epoch boundary so joiners bootstrap from state
    /// that already carries the new member list.
    fn apply_reconfig(&mut self, ctx: &mut Context<'_, IdemMessage>, cmd: &ReconfigCommand) {
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
            return;
        }
        // Epoch boundary = checkpoint boundary: the state-transfer path
        // hands a joiner a checkpoint whose membership already includes it,
        // which is what bounds joiner convergence.
        self.take_checkpoint(ctx);
        // Push the boundary checkpoint straight at a joiner. It is not yet
        // participating, so waiting for its own CheckpointRequest would put
        // a retry interval on the convergence path; one unsolicited
        // transfer makes it transfer-latency instead.
        if let Some(joiner) = cmd.added().filter(|&r| r != self.me) {
            let cp = self.checkpoint_data();
            ctx.send(self.dir.replica(joiner), IdemMessage::Checkpoint(cp));
        }
        // Tell the clients where the group now lives; a stale client would
        // otherwise keep talking to the old epoch's replica set.
        ctx.multicast(
            self.dir.client_addrs().iter().copied(),
            IdemMessage::MembershipUpdate(self.membership.clone()),
        );
        // Leadership derives from the member list, so it may have moved at
        // the switch. Converge like a view change: a leader drains formed
        // endorsement quorums, followers re-endorse live requests.
        if self.is_leader() {
            // A follower promoted by the switch has a stale proposal
            // cursor; binding below the execution frontier would target
            // slots whose bindings are already decided and be refused.
            self.next_propose = self.next_propose.max(self.window.low()).max(self.next_exec);
            // As a follower this node endorsed its accepted requests with
            // the *old* leader; count its own endorsement now so live
            // requests do not wait out a client retransmission interval.
            let mut live: Vec<(RequestId, ReqHandle)> = self
                .reqs
                .iter()
                .filter(|(_, e)| e.active)
                .map(|(h, e)| (e.id, h))
                .filter(|&(id, _)| !self.executed_already(id))
                .collect();
            live.sort_unstable_by_key(|&(id, _)| id);
            let majority = self.majority();
            for (_, h) in live {
                if let Some(e) = self.reqs.get_mut(h) {
                    e.votes
                        .get_or_insert_with(|| QuorumTracker::new(majority))
                        .record(self.me);
                }
            }
            let mut ready: Vec<RequestId> = self
                .reqs
                .iter()
                .filter(|(_, e)| e.votes.as_ref().is_some_and(|v| v.reached()))
                .map(|(_, e)| e.id)
                .collect();
            ready.sort_unstable();
            for id in ready {
                self.try_propose(ctx, id);
            }
        } else {
            let leader = self.dir.replica(self.leader_of(self.effective_view()));
            let mut live: Vec<RequestId> = self
                .reqs
                .iter()
                .filter(|(_, e)| e.active)
                .map(|(_, e)| e.id)
                .filter(|&id| !self.executed_already(id))
                .collect();
            live.sort_unstable();
            for id in live {
                ctx.send(leader, IdemMessage::Require(id));
            }
        }
    }

    /// Post-execution bookkeeping: periodic checkpointing.
    fn after_execute(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        if self
            .next_exec
            .0
            .is_multiple_of(self.cfg.checkpoint_interval)
        {
            self.take_checkpoint(ctx);
        }
    }

    /// Takes a checkpoint: charges the serialization, streams the state
    /// into the WAL, and prunes what the checkpoint covers. Nothing is
    /// materialized — the only reader of a checkpoint's bytes besides the
    /// WAL is state transfer, which builds its own
    /// [`checkpoint_data`](Self::checkpoint_data) at the current frontier.
    fn take_checkpoint(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        // Snapshot serialization costs CPU like handling a message of the
        // same size.
        ctx.charge(self.cfg.message_cost.message_cost(self.app.snapshot_len()));
        // Durable, it bounds WAL replay length after a wipe.
        self.wal.log_checkpoint(
            ctx,
            self.next_exec.0,
            &*self.app,
            &self.sessions,
            &self.membership,
        );
        self.stats.checkpoints_taken += 1;
        // Bodies of requests covered by a stable checkpoint can be pruned
        // (the proof of Theorem 6.2 relies on exactly this rule). Executed
        // bodies all sit in the cold store — live slab records only ever
        // hold unexecuted ones.
        let last = &self.sessions;
        self.cold_store
            .retain(|id, _| last.last_op(id.client).is_none_or(|op| op < id.op));
    }

    /// The current state as a transferable checkpoint.
    fn checkpoint_data(&self) -> CheckpointData {
        CheckpointData {
            next_exec: self.next_exec,
            snapshot: self.app.snapshot(),
            clients: self
                .sessions
                .iter()
                .map(|(cid, op, reply)| ClientRecord {
                    client: ClientId(cid),
                    last_op: op,
                    reply: reply.to_vec(),
                })
                .collect(),
            membership: self.membership.clone(),
        }
    }

    fn handle_checkpoint_request(&mut self, ctx: &mut Context<'_, IdemMessage>, from: NodeId) {
        // Answer with a fresh checkpoint: the periodic one can predate the
        // requester's own state, which would leave a lagging replica
        // permanently unable to catch up (its gap is only repairable by a
        // checkpoint taken at or after its missing slot).
        self.take_checkpoint(ctx);
        let cp = self.checkpoint_data();
        ctx.send(from, IdemMessage::Checkpoint(cp));
    }

    fn handle_checkpoint(&mut self, ctx: &mut Context<'_, IdemMessage>, data: CheckpointData) {
        // Any checkpoint reply proves a peer is reachable: the post-reboot
        // catch-up retry can stand down.
        if let Some(timer) = self.recovery_timer.take() {
            ctx.cancel_timer(timer);
            self.recovery_attempts = 0;
        }
        if data.next_exec <= self.next_exec {
            return;
        }
        ctx.charge(self.cfg.message_cost.message_cost(data.snapshot.len()));
        if data.membership.epoch() > self.membership.epoch() {
            // Epoch-aware state transfer: the checkpoint's membership is
            // the one in force at its frontier. A joiner installs it here,
            // before serving — this is the moment it becomes a member.
            self.membership = data.membership.clone();
            self.reconfig_barrier = None;
            if self.membership.contains(self.me) {
                self.ensure_progress_timer(ctx);
            }
        }
        self.app.restore(&data.snapshot);
        let rows = data
            .clients
            .iter()
            .map(|c| (c.client.0, c.last_op.0, &c.reply[..]));
        self.sessions.restore_executed(rows.clone());
        self.next_exec = data.next_exec;
        let dropped = self.window.advance_to(data.next_exec);
        for (_, inst) in dropped {
            self.clear_proposed(inst.id);
        }
        // Release active slots of requests the checkpoint proves executed.
        let mut done: Vec<RequestId> = self
            .reqs
            .iter()
            .filter(|(_, e)| e.active)
            .map(|(_, e)| e.id)
            .filter(|&id| self.executed_already(id))
            .collect();
        done.sort_unstable();
        for id in done {
            self.finish_request(ctx, id);
        }
        self.stalled = false;
        self.stats.checkpoints_installed += 1;
        // An installed checkpoint moved the app past slots this replica
        // never logged itself; persist it so WAL replay after a wipe starts
        // from a state that actually covers them.
        self.wal.log_checkpoint_data(
            ctx,
            data.next_exec.0,
            &data.snapshot,
            rows,
            &data.membership,
        );
        self.next_propose = self.next_propose.max(self.next_exec);
        self.try_execute(ctx);
    }

    fn enter_stall(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        if self.stalled {
            return;
        }
        self.stalled = true;
        self.stats.stalls += 1;
        let leader = self.leader_node();
        ctx.send(leader, IdemMessage::CheckpointRequest);
    }

    // -------------------------------------------------------- implicit GC

    /// Implicit garbage collection (Section 4.4 / Theorem 6.1): observing
    /// instance `sqn` proves that `f + 1` replicas executed everything up
    /// to `sqn − r_max`, so the window may advance there.
    fn maybe_advance_window(&mut self, ctx: &mut Context<'_, IdemMessage>, sqn: SeqNumber) {
        let r_max = self.cfg.r_max();
        if sqn.0 < r_max {
            return;
        }
        let new_low = SeqNumber(sqn.0 + 1 - r_max);
        if new_low <= self.window.low() {
            return;
        }
        let mut dropped = self
            .window
            .advance_to_into(new_low, std::mem::take(&mut self.gc_scratch));
        if !dropped.is_empty() || new_low > self.next_exec {
            self.stats.gc_advances += 1;
        }
        for &(s, ref inst) in &dropped {
            self.clear_binding(inst.id);
            if !inst.executed && s >= self.next_exec {
                // We discarded instances we had not executed: state transfer
                // is now required.
                self.enter_stall(ctx);
            }
        }
        dropped.clear();
        self.gc_scratch = dropped;
        if self.window.is_stale(self.next_exec) {
            self.enter_stall(ctx);
        }
        self.next_propose = self.next_propose.max(self.window.low());
        self.drain_pending_proposals(ctx);
    }

    /// Drops a GC'd instance's slot binding (and any residual
    /// endorsement votes), freeing the record if nothing else holds it.
    fn clear_binding(&mut self, id: RequestId) {
        let h = self.find(id);
        if let Some(e) = self.reqs.get_mut(h) {
            e.proposed = None;
            e.votes = None;
        } else {
            return;
        }
        self.release_if_unused(h);
    }

    /// Drops only the slot binding (checkpoint install path).
    fn clear_proposed(&mut self, id: RequestId) {
        let h = self.find(id);
        if let Some(e) = self.reqs.get_mut(h) {
            e.proposed = None;
        } else {
            return;
        }
        self.release_if_unused(h);
    }

    fn drain_pending_proposals(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        while self.is_leader()
            && !self.pending_proposals.is_empty()
            && self.next_propose < self.window.high()
            && !self.barrier_active()
        {
            let id = self.pending_proposals.pop_front().expect("non-empty");
            let bound = self
                .reqs
                .get(self.find(id))
                .is_some_and(|e| e.proposed.is_some());
            if bound || self.executed_already(id) {
                continue;
            }
            let sqn = self.next_propose.max(self.window.low());
            self.next_propose = sqn.next();
            self.bind_and_propose(ctx, id, sqn);
        }
    }

    // ----------------------------------------------------------- recovery

    /// Base backoff before retrying checkpoint catch-up with another peer.
    const RECOVERY_RETRY_BASE: Duration = Duration::from_millis(100);

    /// Asks one replica for a checkpoint and arms the retry timer. The
    /// target rotates with each attempt over the *current members* —
    /// departed or never-joined nodes are skipped, so retries are never
    /// burned on a node that cannot answer — starting at the current
    /// leader guess, so catch-up succeeds even when that leader is down.
    fn send_recovery_request(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        let members = self.membership.members();
        let n = members.len() as u32;
        let leader = self.leader_of(self.effective_view());
        let lead_idx = members.iter().position(|&r| r == leader).unwrap_or(0) as u32;
        let mut idx = (lead_idx + self.recovery_attempts) % n;
        if members[idx as usize] == self.me {
            idx = (idx + 1) % n;
        }
        let target = members[idx as usize];
        ctx.send(self.dir.replica(target), IdemMessage::CheckpointRequest);
        let delay = Self::RECOVERY_RETRY_BASE * (1 << self.recovery_attempts.min(3));
        if let Some(old) = self.recovery_timer.take() {
            ctx.cancel_timer(old);
        }
        self.recovery_timer = Some(ctx.set_timer(delay, IdemMessage::RecoveryTimer));
    }

    fn handle_recovery_timer(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        self.recovery_timer = None;
        self.recovery_attempts += 1;
        self.send_recovery_request(ctx);
    }

    /// Rebuilds volatile state from the disk after an amnesia wipe: install
    /// the newest durable checkpoint, replay executions past it, restore
    /// accepted-but-unexecuted request bodies, and resume the highest view.
    fn replay_wal(&mut self, ctx: &mut Context<'_, IdemMessage>, disk: &[Vec<u8>]) {
        if !self.wal.enabled() {
            return;
        }
        let ReplayLog {
            checkpoint,
            records,
        } = Wal::replay(disk);
        let mut max_view = 0u64;
        for rec in &records {
            if let WalRecordRef::View(v) = rec {
                max_view = max_view.max(*v);
            }
        }
        if let Some(cp) = checkpoint {
            self.app.restore(cp.snapshot);
            self.sessions.restore_executed(cp.clients.iter());
            self.next_exec = SeqNumber(cp.next_exec);
            if let Some(m) = cp.membership {
                // The membership in force at the checkpoint's frontier.
                self.membership = m;
            }
        }
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
            // The audit log keeps the whole history: the chaos campaign's
            // durability invariant compares it against the pre-wipe log.
            // Epochs come from the records, not the current membership —
            // replayed entries must agree with what peers logged live.
            if self.exec_log_enabled {
                self.exec_log
                    .push(ExecRecord::at_epoch(*slot, *id, *fresh, *epoch));
            }
            if SeqNumber(*slot) < self.next_exec {
                continue; // covered by the restored checkpoint
            }
            if *fresh && id.client == RECONFIG_CLIENT && !self.executed_already(*id) {
                // Re-apply the epoch switch at the same execution point.
                if let Some(cmd) = ReconfigCommand::decode(command) {
                    self.membership.apply(&cmd);
                }
                self.sessions
                    .record(id.client, id.op, ResultBytes::from_slice(&[]));
            } else if *fresh && id.client != NOOP_CLIENT && !self.executed_already(*id) {
                ctx.charge(self.app.execution_cost(command));
                self.app.execute_into(command, &mut self.exec_scratch);
                let result = ResultBytes::from_slice(&self.exec_scratch);
                self.sessions.record(id.client, id.op, result);
            }
            self.next_exec = SeqNumber(slot + 1);
        }
        // Restore the GC window's lower bound: the pre-wipe replica had
        // executed up to next_exec, so its window provably covered it.
        // Without this the window stays at 0, every binding near the
        // frontier reads as "ahead", and execution jams permanently —
        // peers cannot help, because their checkpoints carry no executions
        // we do not already have and are therefore refused.
        let r_max = self.cfg.r_max();
        self.window
            .advance_to(SeqNumber(self.next_exec.0.saturating_sub(r_max)));
        // Accepted-but-unexecuted requests come back as active, so their
        // bodies survive (peers may commit them on our pre-wipe vouching).
        for rec in &records {
            let WalRecordRef::Accept { id, command, .. } = rec else {
                continue;
            };
            if command.is_empty() || id.client == NOOP_CLIENT || self.executed_already(*id) {
                continue;
            }
            let h = self.find_or_create(*id);
            if self.reqs.get(h).expect("live").active {
                continue;
            }
            let timer = ctx.set_timer(self.cfg.forward_timeout, IdemMessage::ForwardTimer(*id));
            let e = self.reqs.get_mut(h).expect("live");
            e.active = true;
            self.active_count += 1;
            e.stored = true;
            e.body = Some(Request::new(*id, *command));
            if let Some(old) = e.forward_timer.replace(timer) {
                ctx.cancel_timer(old);
            }
        }
        if max_view > self.view.0 {
            self.view = View(max_view);
        }
        // Slot-bound Accept records restore the bindings we proposed or
        // endorsed, and push next_propose past every slot we ever touched:
        // a rebooted leader must not re-bind an in-flight slot to a
        // different request (equivocation).
        let mut propose_past = self.next_exec;
        for rec in &records {
            let WalRecordRef::Accept { slot, view, id, .. } = rec else {
                continue;
            };
            if *slot == u64::MAX {
                continue; // REQUIRE-stage record, no slot bound yet
            }
            let sqn = SeqNumber(*slot);
            propose_past = propose_past.max(sqn.next());
            if self.window.is_stale(sqn) || self.window.is_ahead(sqn) {
                continue;
            }
            if self.window.get(sqn).is_some_and(|i| i.view.0 >= *view) {
                continue;
            }
            let v = View(*view);
            let mut votes = QuorumTracker::new(self.majority());
            votes.record(self.me);
            let executed = self.executed_already(*id);
            self.window.insert(
                sqn,
                Instance {
                    id: *id,
                    view: v,
                    votes,
                    committed: false,
                    executed,
                    fetch_sent: false,
                    source: self.leader_of(v),
                },
            );
            let h = self.find_or_create(*id);
            self.reqs.get_mut(h).expect("live").proposed = Some(sqn);
        }
        self.next_propose = self.next_propose.max(propose_past).max(self.window.low());
    }

    // -------------------------------------------------------- view change

    fn ensure_progress_timer(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        if self.progress_timer.is_none() {
            self.progress_timer =
                Some(ctx.set_timer(self.cfg.progress_timeout, IdemMessage::ProgressTimer));
        }
    }

    fn has_pending_work(&self) -> bool {
        self.active_count > 0
            || self
                .window
                .get(self.next_exec)
                .is_some_and(|inst| inst.committed)
    }

    fn reset_progress_timer(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        if let Some(timer) = self.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        if self.has_pending_work() {
            self.ensure_progress_timer(ctx);
        }
    }

    fn handle_progress_timer(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        self.progress_timer = None;
        if !self.is_member() || !self.has_pending_work() {
            return;
        }
        // No execution progress while work is pending: assume the leader of
        // the effective view crashed (Section 4.5).
        let target = self.effective_view().next();
        self.start_view_change(ctx, target);
        // start_view_change no-ops when a change to `target` is already in
        // flight — keep the timer armed regardless, or a stalled view
        // change would never be escalated past `target`.
        self.ensure_progress_timer(ctx);
    }

    fn window_summary(&self) -> Vec<WindowEntry> {
        self.window
            .iter()
            .map(|(sqn, inst)| WindowEntry {
                sqn,
                id: inst.id,
                view: inst.view,
            })
            .collect()
    }

    fn start_view_change(&mut self, ctx: &mut Context<'_, IdemMessage>, target: View) {
        if target <= self.view || self.vc_target.is_some_and(|t| t >= target) {
            return;
        }
        self.vc_target = Some(target);
        self.stats.view_changes_started += 1;
        let summary = self.window_summary();
        self.vc_store
            .entry(target.0)
            .or_default()
            .insert(self.me.0, summary.clone());
        ctx.multicast(
            self.peers(),
            IdemMessage::ViewChange {
                target,
                window: summary,
            },
        );
        // Safeguard: if this view change does not complete, escalate.
        self.ensure_progress_timer(ctx);
        self.check_new_view(ctx, target);
    }

    fn handle_view_change(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        from: NodeId,
        target: View,
        window: Vec<WindowEntry>,
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
            .insert(sender.0, window);
        // Joining rule: f+1 replicas demanding the change is proof the view
        // is dead even if our own timer has not fired yet.
        let senders = self.vc_store[&target.0].len() as u32;
        if senders >= self.majority() && self.vc_target.is_none_or(|t| t < target) {
            self.start_view_change(ctx, target);
        }
        self.check_new_view(ctx, target);
    }

    fn check_new_view(&mut self, ctx: &mut Context<'_, IdemMessage>, target: View) {
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

    fn enter_new_view(&mut self, ctx: &mut Context<'_, IdemMessage>, target: View) {
        self.wal.log_view(ctx, target.0);
        self.view = target;
        self.vc_target = None;
        self.stats.view_changes_completed += 1;

        // Merge the f+1 window summaries: per sequence number, the binding
        // from the highest view wins (Paxos-style). The merge runs over a
        // replica-owned, window-sized scratch vector indexed by slot
        // offset, so repeated view changes under churn never rebuild a
        // per-call tree (a view change used to cost one fresh `BTreeMap`
        // plus a node allocation per merged entry).
        let msgs = self.vc_store.remove(&target.0).unwrap_or_default();
        self.vc_store.retain(|&t, _| t > target.0);
        let low = self.window.low();
        let size = self.window.size() as usize;
        self.vc_merge.clear();
        self.vc_merge.resize(size, None);
        let mut max_sqn: Option<u64> = None;
        for window in msgs.values() {
            for &entry in window {
                if self.window.is_stale(entry.sqn) {
                    continue;
                }
                // Far-ahead entries still raise the merge horizon (the
                // re-propose loop stops at the window edge either way)
                // but have no slot to merge into.
                max_sqn = Some(max_sqn.map_or(entry.sqn.0, |m| m.max(entry.sqn.0)));
                let idx = (entry.sqn.0 - low.0) as usize;
                let Some(slot) = self.vc_merge.get_mut(idx) else {
                    continue;
                };
                match slot {
                    Some(existing) if existing.view >= entry.view => {}
                    _ => *slot = Some(entry),
                }
            }
        }

        if let Some(max) = max_sqn {
            // Re-propose every merged binding and plug the gaps with no-ops
            // so execution cannot stall on a hole.
            for s in low.0..=max {
                let sqn = SeqNumber(s);
                if self.window.is_ahead(sqn) {
                    break; // far-ahead entries: rely on checkpoint catch-up
                }
                let entry = self.vc_merge[(s - low.0) as usize];
                let id = match entry {
                    Some(e) => e.id,
                    None => {
                        self.stats.noops_proposed += 1;
                        noop_id(sqn)
                    }
                };
                let executed = self
                    .window
                    .get(sqn)
                    .is_some_and(|i| i.executed && i.id == id);
                // New-view bindings are proposals too: they must survive
                // amnesia or a rebooted leader could re-bind the slot.
                self.log_binding(ctx, sqn, target, id);
                let mut votes = QuorumTracker::new(self.majority());
                votes.record(self.me);
                self.window.insert(
                    sqn,
                    Instance {
                        id,
                        view: target,
                        votes,
                        committed: executed,
                        executed,
                        fetch_sent: false,
                        source: self.me,
                    },
                );
                if id.client == RECONFIG_CLIENT && !executed {
                    // An in-flight reconfiguration survives the view
                    // change; the new leader inherits its barrier.
                    self.reconfig_barrier = Some(sqn);
                }
                let h = self.find_or_create(id);
                self.reqs.get_mut(h).expect("live").proposed = Some(sqn);
                self.stats.proposals_sent += 1;
                ctx.multicast(
                    self.peers(),
                    IdemMessage::Propose {
                        id,
                        sqn,
                        view: target,
                    },
                );
            }
            self.next_propose = self.next_propose.max(SeqNumber(max + 1));
        }
        self.next_propose = self.next_propose.max(self.window.low()).max(self.next_exec);

        // Propose requests whose REQUIRE quorum formed during the change.
        let mut ready: Vec<RequestId> = self
            .reqs
            .iter()
            .filter(|(_, e)| e.votes.as_ref().is_some_and(|v| v.reached()))
            .map(|(_, e)| e.id)
            .collect();
        ready.sort_unstable();
        for id in ready {
            self.try_propose(ctx, id);
        }
        self.reset_progress_timer(ctx);
        self.try_execute(ctx);
    }
}

impl Node<IdemMessage> for IdemReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, IdemMessage>, from: NodeId, msg: IdemMessage) {
        ctx.charge(self.cfg.message_cost.message_cost(msg.wire_size()));
        if !self.is_member() {
            // A spare that has not joined yet, or a departed member: no
            // protocol participation. Checkpoints are still installed
            // (that is how a joiner becomes a member), bodies are still
            // served (a member may need one this node sourced), and client
            // requests are answered with a redirect once there is a newer
            // membership to redirect to.
            match msg {
                IdemMessage::Checkpoint(data) => self.handle_checkpoint(ctx, data),
                IdemMessage::Fetch(id) => self.handle_fetch(ctx, from, id),
                IdemMessage::CheckpointRequest => self.handle_checkpoint_request(ctx, from),
                IdemMessage::Request(req)
                    if req.id.client != RECONFIG_CLIENT && self.membership.epoch().0 > 0 =>
                {
                    ctx.send(
                        self.dir.client(req.id.client),
                        IdemMessage::MembershipUpdate(self.membership.clone()),
                    );
                }
                _ => {}
            }
            return;
        }
        match msg {
            IdemMessage::Request(req) => self.handle_request(ctx, req),
            IdemMessage::Require(id) => self.handle_require(ctx, from, id),
            IdemMessage::Propose { id, sqn, view } => self.handle_propose(ctx, from, id, sqn, view),
            IdemMessage::Commit { id, sqn, view } => self.handle_commit(ctx, from, id, sqn, view),
            IdemMessage::Forward(req) => self.handle_forward(ctx, req),
            IdemMessage::Fetch(id) => self.handle_fetch(ctx, from, id),
            IdemMessage::ViewChange { target, window } => {
                self.handle_view_change(ctx, from, target, window)
            }
            IdemMessage::CheckpointRequest => self.handle_checkpoint_request(ctx, from),
            IdemMessage::Checkpoint(data) => self.handle_checkpoint(ctx, data),
            // Client-side messages and timer payloads are never addressed
            // to replicas.
            IdemMessage::MembershipUpdate(_)
            | IdemMessage::Reject(_)
            | IdemMessage::Reply(_)
            | IdemMessage::ForwardTimer(_)
            | IdemMessage::ProgressTimer
            | IdemMessage::OptimisticTimer(_)
            | IdemMessage::BackoffTimer
            | IdemMessage::RetransmitTimer(_)
            | IdemMessage::RecoveryTimer => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IdemMessage>, _id: TimerId, msg: IdemMessage) {
        match msg {
            IdemMessage::ForwardTimer(id) => self.handle_forward_timer(ctx, id),
            IdemMessage::ProgressTimer => self.handle_progress_timer(ctx),
            IdemMessage::RecoveryTimer => self.handle_recovery_timer(ctx),
            _ => {}
        }
    }

    fn on_crash(&mut self, _now: SimTime) {}

    fn on_recover(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        // After an amnesia wipe this object is freshly built; rebuild what
        // correctness requires from the disk before rejoining.
        if std::mem::take(&mut self.wipe_recovering) {
            ctx.with_disk_records(|ctx, disk| self.replay_wal(ctx, disk));
        }
        // Timer events that fired while we were down are lost, so every held
        // handle may be stale: cancel and re-arm. (Cancelling a timer that
        // is still pending is also fine — we re-arm an equivalent one.)
        if let Some(timer) = self.progress_timer.take() {
            ctx.cancel_timer(timer);
        }
        self.ensure_progress_timer(ctx);
        let mut pending: Vec<(RequestId, ReqHandle)> = self
            .reqs
            .iter()
            .filter(|(_, e)| e.forward_timer.is_some())
            .map(|(h, e)| (e.id, h))
            .collect();
        pending.sort_unstable_by_key(|&(id, _)| id);
        for (id, h) in pending {
            if let Some(old) = self.reqs.get_mut(h).and_then(|e| e.forward_timer.take()) {
                ctx.cancel_timer(old);
            }
            let timer = ctx.set_timer(self.cfg.forward_timeout, IdemMessage::ForwardTimer(id));
            if let Some(e) = self.reqs.get_mut(h) {
                e.forward_timer = Some(timer);
            }
        }
        // The cluster may have moved on (GC, view changes) while we were
        // down; ask for a checkpoint to catch up quickly, rotating through
        // replicas with backoff — the leader we remember may itself be down.
        self.recovery_attempts = 0;
        self.send_recovery_request(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::OpNumber;

    fn rid(c: u32, op: u64) -> RequestId {
        RequestId::new(ClientId(c), OpNumber(op))
    }

    /// Whether `id` is currently marked rejected in the slab.
    fn is_rejected(reqs: &ReqSlab<ReqEntry>, sessions: &SessionTable, id: RequestId) -> bool {
        reqs.get(reqs.chain_find(sessions.head(id.client), id))
            .is_some_and(|e| e.rejected)
    }

    fn cache_insert(
        cache: &mut RejectedCache,
        reqs: &mut ReqSlab<ReqEntry>,
        sessions: &mut SessionTable,
        req: Request,
    ) {
        let h = reqs.chain_find(sessions.head(req.id.client), req.id);
        cache.insert(reqs, sessions, req, h);
    }

    #[test]
    fn rejected_cache_is_bounded_fifo() {
        let mut cache = RejectedCache::new(3);
        let mut reqs = ReqSlab::new();
        let mut sessions = SessionTable::new();
        for i in 0..5 {
            cache_insert(
                &mut cache,
                &mut reqs,
                &mut sessions,
                Request::new(rid(0, i), vec![i as u8]),
            );
        }
        assert_eq!(cache.len(), 3);
        assert!(!is_rejected(&reqs, &sessions, rid(0, 0)));
        assert!(!is_rejected(&reqs, &sessions, rid(0, 1)));
        assert!(is_rejected(&reqs, &sessions, rid(0, 2)));
        assert!(is_rejected(&reqs, &sessions, rid(0, 4)));
        // Evicted entries with no other role are freed outright.
        assert_eq!(reqs.len(), 3);
    }

    #[test]
    fn rejected_cache_deduplicates() {
        let mut cache = RejectedCache::new(2);
        let mut reqs = ReqSlab::new();
        let mut sessions = SessionTable::new();
        cache_insert(
            &mut cache,
            &mut reqs,
            &mut sessions,
            Request::new(rid(0, 1), vec![1]),
        );
        cache_insert(
            &mut cache,
            &mut reqs,
            &mut sessions,
            Request::new(rid(0, 1), vec![1]),
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(reqs.len(), 1);
    }

    #[test]
    fn rejected_cache_zero_capacity_stores_nothing() {
        let mut cache = RejectedCache::new(0);
        let mut reqs = ReqSlab::new();
        let mut sessions = SessionTable::new();
        cache_insert(
            &mut cache,
            &mut reqs,
            &mut sessions,
            Request::new(rid(0, 1), vec![1]),
        );
        assert_eq!(cache.len(), 0);
        assert!(reqs.is_empty());
    }

    #[test]
    fn noop_ids_are_unique_per_sequence_number() {
        assert_ne!(noop_id(SeqNumber(1)), noop_id(SeqNumber(2)));
        assert_eq!(noop_id(SeqNumber(1)).client, NOOP_CLIENT);
    }
}
