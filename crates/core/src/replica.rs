//! The IDEM replica: acceptance test, agreement, forwarding, implicit
//! garbage collection, checkpointing, and view changes (paper Sections 4–5).

use std::collections::VecDeque;

use idem_common::{
    Chained, CheckpointData, ClientId, Consumed, Directory, QuorumTracker, ReconfigCommand,
    ReplicaBase, Reply, ReqHandle, ReqSlab, Request, RequestId, SeqNumber, SeqWindow, SessionTable,
    StateMachine, View, VoteStore, WalRecord, PROGRESS_TIMEOUT, RECONFIG_CLIENT,
};
use idem_simnet::{Context, Node, NodeId, TimerId};

use crate::acceptance::AcceptanceTest;
use crate::config::IdemConfig;
use crate::messages::{IdemMessage, WindowEntry};

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
    /// This replica's disk holds the body in an accept record — the
    /// REQUIRE-stage one (`slot = u64::MAX`) or a slot binding that wrote
    /// it — so neither a later binding nor the exec record repeats it.
    body_on_disk: bool,
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
            body_on_disk: false,
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

// The flag above fits in padding: the IDEM request slab keeps its size.
const _: () = assert!(size_of::<ReqEntry>() == 120);

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
}

impl RejectedCache {
    fn new(capacity: usize) -> RejectedCache {
        RejectedCache {
            capacity,
            order: VecDeque::new(),
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
        while self.order.len() > self.capacity {
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
        }
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
/// Everything that is not ordering — roles, sessions, timers, recovery,
/// checkpoints, the epoch switch — lives in the embedded [`ReplicaBase`],
/// which the replica dereferences to.
pub struct IdemReplica {
    cfg: IdemConfig,
    base: ReplicaBase,
    test: AcceptanceTest,

    /// Latest `ViewChange` window summary per (target view, sender).
    vc_store: VoteStore<Vec<WindowEntry>>,

    window: SeqWindow<Instance>,
    /// Reused buffer for per-operation window GC, so steady-state
    /// [`SeqWindow::advance_to_into`] never allocates.
    gc_scratch: Vec<(SeqNumber, Instance)>,
    next_propose: SeqNumber,
    /// Set when GC overtook local execution; cleared by checkpoint install.
    stalled: bool,

    /// Per-request protocol state (body, acceptance, endorsements,
    /// binding, forward timer, rejection), one record per tracked id,
    /// chained per client off the base's session table. A message resolves
    /// its whole request context with one chain probe.
    reqs: ReqSlab<ReqEntry>,
    /// Count of accepted-not-executed requests — the `r_now` of the
    /// acceptance test, maintained incrementally.
    active_count: usize,
    /// Bodies of *executed* requests awaiting checkpoint prune, in
    /// execution order, moved out of the slab at execution so client
    /// chains hold only live records. Only fetches and WAL re-proposals
    /// look here, newest first ([`cold_body`]).
    cold_store: Vec<Request>,
    rejected_cache: RejectedCache,
    /// Require-quorum reached while the window was full.
    pending_proposals: VecDeque<RequestId>,

    /// Reused window-sized merge scratch for view changes, so
    /// [`Self::enter_new_view`] never rebuilds a per-call tree.
    vc_merge: Vec<Option<WindowEntry>>,

    max_client_seen: u32,
    stats: ReplicaStats,
}

/// The body of `id` in a cold store, newest first.
fn cold_body(cold_store: &[Request], id: RequestId) -> Option<&Request> {
    cold_store.iter().rev().find(|r| r.id == id)
}

impl std::ops::Deref for IdemReplica {
    type Target = ReplicaBase;
    fn deref(&self) -> &ReplicaBase {
        &self.base
    }
}

impl std::ops::DerefMut for IdemReplica {
    fn deref_mut(&mut self) -> &mut ReplicaBase {
        &mut self.base
    }
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
        let test = AcceptanceTest::new(cfg.acceptance, cfg.reject_threshold);
        IdemReplica {
            base: ReplicaBase::new(
                me,
                dir,
                app,
                cfg.quorum.n(),
                cfg.message_cost,
                PROGRESS_TIMEOUT,
            ),
            window: SeqWindow::new(cfg.window_size()),
            gc_scratch: Vec::new(),
            rejected_cache: RejectedCache::new(cfg.rejected_cache_capacity),
            cfg,
            test,
            vc_store: VoteStore::default(),
            next_propose: SeqNumber(0),
            stalled: false,
            reqs: ReqSlab::new(),
            active_count: 0,
            cold_store: Vec::new(),
            pending_proposals: VecDeque::new(),
            vc_merge: Vec::new(),
            max_client_seen: 0,
            stats: ReplicaStats::default(),
        }
    }

    /// Durably logs the binding of `id` to `sqn` in `view`, body included
    /// when this replica holds it and its disk does not hold it yet; once
    /// written, the body is marked as on the disk. Replay revives a body
    /// from the first accept record that holds it and resolves elided
    /// exec records from the same, so one copy per disk suffices.
    fn log_binding(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        sqn: SeqNumber,
        view: View,
        id: RequestId,
    ) {
        if !self.base.wal.enabled() {
            return;
        }
        let h = self.find(id);
        let entry = self.reqs.get(h);
        // Only a stored body — accepted, not yet pruned by a checkpoint:
        // live in the slab, executed in the cold store.
        let body = match entry {
            Some(e) if e.body_on_disk => None,
            Some(e) if e.stored => e.body.as_ref(),
            _ => cold_body(&self.cold_store, id),
        };
        let command = body.map_or(&[][..], |r| &r.command);
        self.base.wal.log_accept(ctx, sqn.0, view.0, id, command);
        if body.is_some() {
            if let Some(e) = self.reqs.get_mut(h) {
                e.body_on_disk = true;
            }
        }
    }

    /// Protocol counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    fn leader_node(&self) -> NodeId {
        self.base.dir.replica(self.base.leader_guess())
    }

    // ----------------------------------------------- dense request records

    /// Resolves the slab record tracking `id` (null handle if none).
    /// This single probe replaces the per-concern tree descents of the
    /// former representation.
    fn find(&self, id: RequestId) -> ReqHandle {
        self.reqs.chain_find(self.base.sessions.head(id.client), id)
    }

    /// Resolves or creates the record tracking `id`.
    fn find_or_create(&mut self, id: RequestId) -> ReqHandle {
        let mut head = self.base.sessions.head(id.client);
        let h = self.reqs.chain_find(head, id);
        if !h.is_null() {
            return h;
        }
        let h = self.reqs.insert(ReqEntry::new(id));
        self.reqs.chain_push(&mut head, h);
        self.base.sessions.set_head(id.client, head);
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
        let mut head = self.base.sessions.head(client);
        self.reqs.chain_unlink(&mut head, h);
        self.base.sessions.set_head(client, head);
        self.reqs.remove(h);
    }

    /// Body lookup across both the store and the rejected cache (the
    /// fetch/execution path).
    fn body_of(&self, id: RequestId) -> Option<&Request> {
        match self.reqs.get(self.find(id)).and_then(|e| e.body.as_ref()) {
            Some(body) => Some(body),
            None => cold_body(&self.cold_store, id),
        }
    }

    // ------------------------------------------------------- request intake

    fn handle_request(&mut self, ctx: &mut Context<'_, IdemMessage>, req: Request) {
        self.stats.requests_received += 1;
        self.max_client_seen = self.max_client_seen.max(req.id.client.0);
        let id = req.id;

        if self.base.executed_already(id) {
            // Retransmission of a completed operation.
            self.stats.duplicates += 1;
            self.stats.replies_sent += u64::from(self.base.resend_cached_reply(ctx, id));
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
        if !self
            .test
            .accepts(id, r_now, ctx.now(), self.max_client_seen)
        {
            self.stats.rejected += 1;
            let client = self.base.dir.client(id.client);
            self.rejected_cache
                .insert(&mut self.reqs, &mut self.base.sessions, req, h);
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
        let view = self.base.view().0;
        self.wal.log_accept(ctx, u64::MAX, view, id, &req.command);
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
        e.body_on_disk = self.base.wal.enabled();
        e.body = Some(req);
        let leader = self.leader_node();
        ctx.send(leader, IdemMessage::Require(id));
        self.arm_forward_timer(ctx, h, id);
        self.base.ensure_progress_timer(ctx);
    }

    /// (Re-)arms the delayed-forwarding timer of `id`, whose record is
    /// `h`, and cancels the one it replaces.
    fn arm_forward_timer(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        h: ReqHandle,
        id: RequestId,
    ) {
        let timer = ctx.set_timer(self.cfg.forward_timeout, IdemMessage::ForwardTimer(id));
        let e = self.reqs.get_mut(h).expect("live");
        if let Some(old) = e.forward_timer.replace(timer) {
            ctx.cancel_timer(old);
        }
    }

    fn handle_forward(&mut self, ctx: &mut Context<'_, IdemMessage>, req: Request) {
        let id = req.id;
        self.max_client_seen = self.max_client_seen.max(id.client.0);
        if self.base.executed_already(id) {
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
        if !self.base.is_member() || !active || self.base.executed_already(id) {
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
            ctx.multicast(self.base.peers(), IdemMessage::Forward(req));
            let leader = self.leader_node();
            ctx.send(leader, IdemMessage::Require(id));
            self.arm_forward_timer(ctx, h, id);
        }
    }

    // ---------------------------------------------------------- agreement

    fn handle_require(&mut self, ctx: &mut Context<'_, IdemMessage>, from: NodeId, id: RequestId) {
        // Endorsements from outside the membership must not count toward
        // quorums.
        let Some(from_replica) = self.base.member_sender(from) else {
            return;
        };
        if self.base.executed_already(id) {
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
        let majority = self.base.majority();
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
        if !self.base.is_leader() {
            // Keep the endorsements; they are drained if we become leader.
            return;
        }
        let h = self.find(id);
        let bound = self.reqs.get(h).is_some_and(|e| e.proposed.is_some());
        if bound || self.base.executed_already(id) {
            if let Some(e) = self.reqs.get_mut(h) {
                e.votes = None;
            }
            self.release_if_unused(h);
            return;
        }
        if self.base.barrier_active() || self.next_propose >= self.window.high() {
            self.pending_proposals.push_back(id);
            return;
        }
        let sqn = self.next_propose.max(self.window.low());
        self.next_propose = sqn.next();
        self.bind_and_propose(ctx, id, sqn);
        self.maybe_advance_window(ctx, sqn);
        self.try_execute(ctx);
    }

    /// Proposes, in id order, every request whose REQUIRE quorum formed
    /// while this replica could not propose it.
    fn propose_ready(&mut self, ctx: &mut Context<'_, IdemMessage>) {
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
        self.log_binding(ctx, sqn, self.base.view(), id);
        let mut votes = QuorumTracker::new(self.base.majority());
        let committed = votes.record(self.base.me) || votes.reached();
        let executed = self.base.executed_already(id);
        let inst = Instance {
            id,
            view: self.base.view(),
            votes,
            committed,
            executed,
            fetch_sent: false,
            source: self.base.me,
        };
        self.window.insert(sqn, inst);
        if id.client == RECONFIG_CLIENT {
            self.base.set_reconfig_barrier(sqn);
        }
        let h = self.find_or_create(id);
        let e = self.reqs.get_mut(h).expect("live");
        e.proposed = Some(sqn);
        e.votes = None;
        self.stats.proposals_sent += 1;
        let view = self.base.view();
        ctx.multicast(self.base.peers(), IdemMessage::Propose { id, sqn, view });
    }

    /// Counts `sender` as a witness that view `v` is still live (see
    /// [`ReplicaBase::observe_live_view`]).
    fn witness_live_view(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        v: View,
        sender: idem_common::ReplicaId,
    ) {
        let pending = self.has_pending_work();
        self.base
            .observe_live_view(ctx, &mut self.vc_store, v, sender, pending);
    }

    /// Adopts a higher (or pending-target) view upon evidence that it is
    /// operational, and re-endorses live requests with its leader.
    fn enter_view_as_follower(&mut self, ctx: &mut Context<'_, IdemMessage>, v: View) {
        if self.base.follow_view(ctx, v) {
            self.vc_store.prune(v);
            // Re-endorse everything still live so the new leader can
            // propose requests whose REQUIREs died with the old leader.
            self.re_endorse_live(ctx, self.base.dir.replica(self.base.leader_of(v)));
        }
    }

    /// Sends a REQUIRE for every accepted, unexecuted request to `leader`,
    /// in id order.
    fn re_endorse_live(&self, ctx: &mut Context<'_, IdemMessage>, leader: NodeId) {
        let mut live: Vec<RequestId> = self
            .reqs
            .iter()
            .filter(|(_, e)| e.active)
            .map(|(_, e)| e.id)
            .filter(|&id| !self.base.executed_already(id))
            .collect();
        live.sort_unstable();
        for id in live {
            ctx.send(leader, IdemMessage::Require(id));
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
            let mut votes = QuorumTracker::new(self.base.majority());
            votes.record(sender); // the leader's proposal counts as a commit
            votes.record(self.base.me);
            let committed = votes.reached();
            let executed = self
                .window
                .get(sqn)
                .is_some_and(|i| i.executed && i.id == id)
                || self.base.executed_already(id);
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
                inst.votes.record(self.base.me);
                if inst.votes.reached() {
                    inst.committed = true;
                }
            }
        }
        self.stats.commits_sent += 1;
        ctx.multicast(self.base.peers(), IdemMessage::Commit { id, sqn, view });
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
        let Some(sender) = self.base.member_sender(from) else {
            return;
        };
        if !self.base.view_acceptable(view) {
            self.witness_live_view(ctx, view, sender);
            return;
        }
        // f+1 replicas saw the new leader's proposal; safe to follow.
        self.enter_view_as_follower(ctx, view);
        if self.window.is_stale(sqn) {
            return;
        }
        if self.window.is_ahead(sqn) {
            ctx.send(from, IdemMessage::CheckpointRequest);
            return;
        }
        let leader = self.base.leader_of(view);
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
                let mut votes = QuorumTracker::new(self.base.majority());
                votes.record(sender);
                votes.record(self.base.leader_of(view));
                let committed = votes.reached();
                let executed = self.base.executed_already(id);
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
            let sqn = self.base.next_exec();
            if self.window.is_stale(sqn) {
                // GC overtook us; only a checkpoint can resynchronize.
                self.enter_stall(ctx);
                break;
            }
            let Some(inst) = self.window.get(sqn) else {
                break;
            };
            if !inst.committed {
                break;
            }
            let id = inst.id;
            if inst.executed {
                self.base.advance_exec();
                self.after_execute(ctx);
                progressed = true;
                continue;
            }
            // A no-op, or a duplicate binding across views, is consumed
            // without running the application.
            let skip = id.client == NOOP_CLIENT || self.base.executed_already(id);
            let body = if skip {
                None
            } else {
                let Some(req) = self.body_of(id).cloned() else {
                    // Committed id whose body we never saw: fetch it
                    // (Section 5.2, request fetching).
                    if !inst.fetch_sent {
                        let target = self.base.dir.replica(inst.source);
                        self.window.get_mut(sqn).expect("present").fetch_sent = true;
                        self.stats.fetches_sent += 1;
                        ctx.send(target, IdemMessage::Fetch(id));
                    }
                    break;
                };
                let (rejected, stored, on_disk) = self
                    .reqs
                    .get(self.find(id))
                    .map(|e| (e.rejected, e.stored, e.body_on_disk))
                    .unwrap_or((false, false, false));
                if id.client != RECONFIG_CLIENT
                    && rejected
                    && !stored
                    && cold_body(&self.cold_store, id).is_none()
                {
                    self.stats.rejected_cache_hits += 1;
                }
                Some((req, on_disk))
            };
            // Durably logged first, so the op survives a wipe right after
            // the client sees its reply.
            let command = body.as_ref().map(|(req, _)| &req.command[..]);
            let on_disk = body.as_ref().is_some_and(|&(_, on_disk)| on_disk);
            let mut reconfig = None;
            match self.base.consume(ctx, sqn.0, id, command, on_disk) {
                Consumed::Skipped => {}
                Consumed::Reconfig(cmd) => {
                    self.stats.executed += 1;
                    reconfig = cmd;
                }
                Consumed::Executed(result) => {
                    self.stats.executed += 1;
                    if self.base.is_leader() {
                        self.stats.replies_sent += 1;
                        let client = self.base.dir.client(id.client);
                        ctx.send(client, IdemMessage::Reply(Reply::new(id, result)));
                    }
                }
            }
            self.window.get_mut(sqn).expect("present").executed = true;
            if id.client != NOOP_CLIENT {
                self.finish_request(ctx, id);
            }
            self.base.advance_exec();
            if let Some(cmd) = reconfig {
                // Membership change: the epoch switches exactly here, at
                // the agreed slot, on every replica; no client reply.
                self.apply_reconfig(ctx, &cmd);
            }
            self.after_execute(ctx);
            progressed = true;
        }
        if progressed {
            let pending = self.has_pending_work();
            self.base.reset_progress_timer(ctx, pending);
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
                self.cold_store.push(body);
            }
        }
        self.release_if_unused(h);
    }

    /// Switches to the next epoch after executing a reconfiguration
    /// command (see [`ReplicaBase::switch_epoch`]) and re-anchors
    /// leadership under the new member list.
    fn apply_reconfig(&mut self, ctx: &mut Context<'_, IdemMessage>, cmd: &ReconfigCommand) {
        if !self.base.switch_epoch(ctx, cmd) {
            // Voted out. The on_message gate redirects clients and ignores
            // protocol traffic from here on.
            return;
        }
        self.checkpoint_taken();
        // Leadership derives from the member list, so it may have moved at
        // the switch. Converge like a view change: a leader drains formed
        // endorsement quorums, followers re-endorse live requests.
        if self.base.is_leader() {
            // A follower promoted by the switch has a stale proposal
            // cursor; binding below the execution frontier would target
            // slots whose bindings are already decided and be refused.
            self.next_propose = self
                .next_propose
                .max(self.window.low())
                .max(self.base.next_exec());
            // As a follower this node endorsed its accepted requests with
            // the *old* leader; count its own endorsement now so live
            // requests do not wait out a client retransmission interval.
            let mut live: Vec<(RequestId, ReqHandle)> = self
                .reqs
                .iter()
                .filter(|(_, e)| e.active)
                .map(|(h, e)| (e.id, h))
                .filter(|&(id, _)| !self.base.executed_already(id))
                .collect();
            live.sort_unstable_by_key(|&(id, _)| id);
            let majority = self.base.majority();
            for (_, h) in live {
                if let Some(e) = self.reqs.get_mut(h) {
                    e.votes
                        .get_or_insert_with(|| QuorumTracker::new(majority))
                        .record(self.base.me);
                }
            }
            self.propose_ready(ctx);
        } else {
            self.re_endorse_live(ctx, self.leader_node());
        }
    }

    /// Post-execution bookkeeping: periodic checkpointing.
    fn after_execute(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        if self
            .base
            .next_exec()
            .0
            .is_multiple_of(self.cfg.checkpoint_interval)
        {
            self.base.take_checkpoint(ctx);
            self.checkpoint_taken();
        }
    }

    /// Counts a taken checkpoint and prunes what it covers: bodies of
    /// requests covered by a stable checkpoint (the proof of Theorem 6.2
    /// relies on exactly this rule). Executed bodies all sit in the cold
    /// store — live slab records only ever hold unexecuted ones.
    fn checkpoint_taken(&mut self) {
        self.stats.checkpoints_taken += 1;
        let last = &self.base.sessions;
        self.cold_store
            .retain(|r| last.last_op(r.id.client).is_none_or(|op| op < r.id.op));
    }

    fn handle_checkpoint(&mut self, ctx: &mut Context<'_, IdemMessage>, data: CheckpointData) {
        if !self.base.install_checkpoint(ctx, data) {
            return;
        }
        let next_exec = self.base.next_exec();
        let dropped = self.window.advance_to(next_exec);
        for (_, inst) in dropped {
            self.clear_proposed(inst.id);
        }
        // Release active slots of requests the checkpoint proves executed.
        let mut done: Vec<RequestId> = self
            .reqs
            .iter()
            .filter(|(_, e)| e.active)
            .map(|(_, e)| e.id)
            .filter(|&id| self.base.executed_already(id))
            .collect();
        done.sort_unstable();
        for id in done {
            self.finish_request(ctx, id);
        }
        self.stalled = false;
        self.stats.checkpoints_installed += 1;
        self.next_propose = self.next_propose.max(next_exec);
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
        let next_exec = self.base.next_exec();
        if !dropped.is_empty() || new_low > next_exec {
            self.stats.gc_advances += 1;
        }
        for &(s, ref inst) in &dropped {
            self.clear_binding(inst.id);
            if !inst.executed && s >= next_exec {
                // We discarded instances we had not executed: state transfer
                // is now required.
                self.enter_stall(ctx);
            }
        }
        dropped.clear();
        self.gc_scratch = dropped;
        if self.window.is_stale(next_exec) {
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
        while self.base.is_leader()
            && !self.pending_proposals.is_empty()
            && self.next_propose < self.window.high()
            && !self.barrier_active()
        {
            let id = self.pending_proposals.pop_front().expect("non-empty");
            let bound = self
                .reqs
                .get(self.find(id))
                .is_some_and(|e| e.proposed.is_some());
            if bound || self.base.executed_already(id) {
                continue;
            }
            let sqn = self.next_propose.max(self.window.low());
            self.next_propose = sqn.next();
            self.bind_and_propose(ctx, id, sqn);
        }
    }

    // ----------------------------------------------------------- recovery

    /// Rebuilds volatile state from the disk after an amnesia wipe: install
    /// the newest durable checkpoint, replay executions past it, restore
    /// accepted-but-unexecuted request bodies, and resume the highest view.
    fn replay_wal(&mut self, ctx: &mut Context<'_, IdemMessage>, disk: &[Vec<u8>]) {
        let replayed = self.base.replay_wal(ctx, disk, 0);
        self.stats.executed += replayed.executed;
        let records = replayed.records;
        // Restore the GC window's lower bound: the pre-wipe replica had
        // executed up to next_exec, so its window provably covered it.
        // Without this the window stays at 0, every binding near the
        // frontier reads as "ahead", and execution jams permanently —
        // peers cannot help, because their checkpoints carry no executions
        // we do not already have and are therefore refused.
        let r_max = self.cfg.r_max();
        let low = self.base.next_exec().0.saturating_sub(r_max);
        self.window.advance_to(SeqNumber(low));
        // Accepted-but-unexecuted requests come back as active, so their
        // bodies survive (peers may commit them on our pre-wipe vouching).
        for rec in &records {
            let WalRecord::Accept { id, command, .. } = rec else {
                continue;
            };
            if command.is_empty() || id.client == NOOP_CLIENT || self.base.executed_already(*id) {
                continue;
            }
            let h = self.find_or_create(*id);
            let e = self.reqs.get_mut(h).expect("live");
            if e.active {
                continue;
            }
            e.active = true;
            self.active_count += 1;
            e.stored = true;
            e.body_on_disk = true;
            e.body = Some(Request::new(*id, *command));
            self.arm_forward_timer(ctx, h, *id);
        }
        // Slot-bound Accept records restore the bindings we proposed or
        // endorsed, and push next_propose past every slot we ever touched.
        let mut bound = Vec::new();
        let propose_past = self.base.replay_bindings(
            &mut self.window,
            &records,
            |inst| inst.view,
            |base, sqn, view, id, _| {
                bound.push((id, sqn));
                let mut votes = QuorumTracker::new(base.majority());
                votes.record(base.me);
                Instance {
                    id,
                    view,
                    votes,
                    committed: false,
                    executed: base.executed_already(id),
                    fetch_sent: false,
                    source: base.leader_of(view),
                }
            },
        );
        for (id, sqn) in bound {
            let h = self.find_or_create(id);
            self.reqs.get_mut(h).expect("live").proposed = Some(sqn);
        }
        self.next_propose = self.next_propose.max(propose_past).max(self.window.low());
    }

    // -------------------------------------------------------- view change

    fn has_pending_work(&self) -> bool {
        self.active_count > 0
            || self
                .window
                .get(self.base.next_exec())
                .is_some_and(|inst| inst.committed)
    }

    fn handle_progress_timer(&mut self, ctx: &mut Context<'_, IdemMessage>, timer: TimerId) {
        if !self.base.progress_timer_fired(ctx, timer) || !self.has_pending_work() {
            return;
        }
        // No execution progress while work is pending: assume the leader of
        // the effective view crashed (Section 4.5).
        let target = self.base.effective_view().next();
        self.view_change(ctx, target, None);
        // Armed even if that was a no-op (`ReplicaBase::start_view_change`).
        self.base.ensure_progress_timer(ctx);
    }

    /// One step of the change to view `target`: a peer's vote for it came
    /// in (`theirs`), or — `None` — this replica's own progress timer
    /// demands it. This replica's vote is its window summary.
    fn view_change(
        &mut self,
        ctx: &mut Context<'_, IdemMessage>,
        target: View,
        theirs: Option<(NodeId, Vec<WindowEntry>)>,
    ) {
        let (base, votes, window) = (&mut self.base, &mut self.vc_store, &self.window);
        let vote = || {
            let entry = |(sqn, inst): (SeqNumber, &Instance)| WindowEntry {
                sqn,
                id: inst.id,
                view: inst.view,
            };
            window.iter().map(entry).collect()
        };
        let wire = |window| IdemMessage::ViewChange { target, window };
        let step = match theirs {
            Some(theirs) => base.handle_view_change(ctx, votes, theirs, target, vote, wire),
            None => base.start_view_change(ctx, votes, target, vote, wire),
        };
        self.stats.view_changes_started += u64::from(step.started);
        if step.ready {
            self.enter_new_view(ctx, target);
        }
    }

    fn enter_new_view(&mut self, ctx: &mut Context<'_, IdemMessage>, target: View) {
        self.base.enter_view(ctx, target);
        self.stats.view_changes_completed += 1;

        // Merge the f+1 window summaries: per sequence number, the binding
        // from the highest view wins (Paxos-style). The merge runs over a
        // replica-owned, window-sized scratch vector indexed by slot
        // offset, so repeated view changes under churn never rebuild a
        // per-call tree (a view change used to cost one fresh `BTreeMap`
        // plus a node allocation per merged entry).
        let msgs = self.vc_store.take(target);
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
                let mut votes = QuorumTracker::new(self.base.majority());
                votes.record(self.base.me);
                self.window.insert(
                    sqn,
                    Instance {
                        id,
                        view: target,
                        votes,
                        committed: executed,
                        executed,
                        fetch_sent: false,
                        source: self.base.me,
                    },
                );
                if id.client == RECONFIG_CLIENT && !executed {
                    // An in-flight reconfiguration survives the view
                    // change; the new leader inherits its barrier.
                    self.base.set_reconfig_barrier(sqn);
                }
                let h = self.find_or_create(id);
                self.reqs.get_mut(h).expect("live").proposed = Some(sqn);
                self.stats.proposals_sent += 1;
                ctx.multicast(
                    self.base.peers(),
                    IdemMessage::Propose {
                        id,
                        sqn,
                        view: target,
                    },
                );
            }
            self.next_propose = self.next_propose.max(SeqNumber(max + 1));
        }
        self.next_propose = self
            .next_propose
            .max(self.window.low())
            .max(self.base.next_exec());

        // Propose requests whose REQUIRE quorum formed during the change.
        self.propose_ready(ctx);
        let pending = self.has_pending_work();
        self.base.reset_progress_timer(ctx, pending);
        self.try_execute(ctx);
    }
}

impl Node<IdemMessage> for IdemReplica {
    fn on_message(&mut self, ctx: &mut Context<'_, IdemMessage>, from: NodeId, msg: IdemMessage) {
        ctx.charge(self.cfg.message_cost);
        // A non-member takes no part in the protocol: it handles the first
        // arms — bodies are still served, a member may need one this node
        // sourced — and drops the rest (see `ReplicaBase::redirect_client`).
        let member = self.base.is_member();
        match msg {
            IdemMessage::Checkpoint(data) => self.handle_checkpoint(ctx, data),
            IdemMessage::CheckpointRequest => {
                // Answered with a fresh checkpoint.
                self.base.handle_checkpoint_request(ctx, from);
                self.checkpoint_taken();
            }
            IdemMessage::Fetch(id) => self.handle_fetch(ctx, from, id),
            IdemMessage::Request(req) if !member => self.base.redirect_client(ctx, req.id.client),
            _ if !member => {}
            IdemMessage::Request(req) => self.handle_request(ctx, req),
            IdemMessage::Require(id) => self.handle_require(ctx, from, id),
            IdemMessage::Propose { id, sqn, view } => self.handle_propose(ctx, from, id, sqn, view),
            IdemMessage::Commit { id, sqn, view } => self.handle_commit(ctx, from, id, sqn, view),
            IdemMessage::Forward(req) => self.handle_forward(ctx, req),
            IdemMessage::ViewChange { target, window } => {
                self.view_change(ctx, target, Some((from, window)))
            }
            // Client-side messages and timer payloads are never addressed
            // to replicas.
            IdemMessage::MembershipUpdate(_)
            | IdemMessage::Reject(_)
            | IdemMessage::Reply(_)
            | IdemMessage::ForwardTimer(_)
            | IdemMessage::ProgressTimer
            | IdemMessage::RetransmitTimer(_)
            | IdemMessage::RecoveryTimer => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, IdemMessage>, timer: TimerId, msg: IdemMessage) {
        match msg {
            IdemMessage::ForwardTimer(id) => self.handle_forward_timer(ctx, id),
            IdemMessage::ProgressTimer => self.handle_progress_timer(ctx, timer),
            IdemMessage::RecoveryTimer => self.base.handle_recovery_timer(ctx),
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, IdemMessage>) {
        // After an amnesia wipe this object is freshly built; rebuild what
        // correctness requires from the disk before rejoining.
        if self.base.take_wipe_recovery() {
            ctx.with_disk_records(|ctx, disk| self.replay_wal(ctx, disk));
        }
        self.base.rearm_on_recover(ctx);
        // The forward timers' handles may be as stale as the progress
        // timer's: re-arm and cancel. (Cancelling a timer that is still
        // pending is also fine — we re-arm an equivalent one.)
        let mut pending: Vec<(RequestId, ReqHandle)> = self
            .reqs
            .iter()
            .filter(|(_, e)| e.forward_timer.is_some())
            .map(|(h, e)| (e.id, h))
            .collect();
        pending.sort_unstable_by_key(|&(id, _)| id);
        for (id, h) in pending {
            self.arm_forward_timer(ctx, h, id);
        }
        // The cluster may have moved on (GC, view changes) while we were
        // down; ask for a checkpoint to catch up quickly, rotating through
        // replicas with backoff — the leader we remember may itself be down.
        self.base.send_recovery_request(ctx);
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
        assert_eq!(cache.order.len(), 3);
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
        assert_eq!(cache.order.len(), 1);
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
        assert_eq!(cache.order.len(), 0);
        assert!(reqs.is_empty());
    }

    #[test]
    fn noop_ids_are_unique_per_sequence_number() {
        assert_ne!(noop_id(SeqNumber(1)), noop_id(SeqNumber(2)));
        assert_eq!(noop_id(SeqNumber(1)).client, NOOP_CLIENT);
    }
}
