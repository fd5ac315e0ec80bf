//! The replica chassis: everything a replica does that is not ordering.
//!
//! IDEM, Paxos and the SMaRt baseline differ in how they agree on the next
//! command. They do not differ in who leads a view, how a crashed or wiped
//! replica catches up, how a view change collects its votes, what a
//! checkpoint carries, or how the group moves to the next membership
//! epoch. [`ReplicaBase`] owns that state and holds the one copy of that
//! logic; each protocol's replica embeds one and keeps only its ordering
//! core (DESIGN.md §11).
//!
//! The chassis is a library the ordering cores call, not a framework that
//! calls them back: a shared step does its part and returns what the
//! caller has to act on (a started view change, an installed checkpoint,
//! a reconfiguration to apply), and every protocol difference stays at the
//! call site. Protocol counters follow the same rule — shared steps
//! report, the caller's own stats struct counts.
//!
//! Shared code sends six kinds of message; [`ReplicaWire`] is how it
//! builds them in each protocol's message type.

use std::collections::BTreeMap;
use std::time::Duration;

use idem_simnet::{Context, NodeId, TimerId, Wire};

use crate::app::StateMachine;
use crate::deadline::DeadlineTimer;
use crate::dense::SessionTable;
use crate::directory::Directory;
use crate::exec::ExecRecord;
use crate::ids::{ClientId, ReplicaId, RequestId, SeqNumber, View};
use crate::membership::{Membership, ReconfigCommand, RECONFIG_CLIENT};
use crate::quorum::QuorumTracker;
use crate::request::{Reply, ResultBytes};
use crate::wal::{CheckpointData, CheckpointRef, PersistMode, ReplayLog, Wal, WalRecord};
use crate::window::SeqWindow;

/// The view-change timeout of all three protocols (paper Section 7.1):
/// no execution progress for this long while work is pending makes a
/// replica abandon its view.
pub const PROGRESS_TIMEOUT: Duration = Duration::from_millis(1500);

/// Base backoff before a rebooted replica retries checkpoint catch-up; it
/// doubles per attempt up to eight times this.
pub const RECOVERY_RETRY_BASE: Duration = Duration::from_millis(100);

/// The message variants shared code has to send, built in a protocol's
/// own message type.
pub trait ReplicaWire: Wire + Clone {
    /// Ask a peer for its newest checkpoint.
    const CHECKPOINT_REQUEST: Self;
    /// Timer payload of the progress (view-change) timer.
    const PROGRESS_TIMER: Self;
    /// Timer payload of the post-reboot catch-up retry.
    const RECOVERY_TIMER: Self;
    /// A checkpoint transfer.
    fn checkpoint(data: CheckpointData) -> Self;
    /// Replica → client: the group reconfigured.
    fn membership_update(membership: Membership) -> Self;
    /// Replica → client: an execution result.
    fn reply(reply: Reply) -> Self;
}

/// The `ViewChange` votes a replica has received, per target view and
/// sender. `V` is what a protocol's vote carries (its window summary, its
/// open batch); the latest vote of a sender replaces its earlier one.
#[derive(Debug)]
pub struct VoteStore<V> {
    by_target: BTreeMap<u64, BTreeMap<u32, V>>,
}

impl<V> Default for VoteStore<V> {
    fn default() -> VoteStore<V> {
        VoteStore {
            by_target: BTreeMap::new(),
        }
    }
}

impl<V> VoteStore<V> {
    /// Stores `sender`'s vote for `target` and returns how many distinct
    /// senders have voted for it now.
    fn insert(&mut self, target: View, sender: ReplicaId, vote: V) -> u32 {
        let votes = self.by_target.entry(target.0).or_default();
        votes.insert(sender.0, vote);
        votes.len() as u32
    }

    fn count(&self, target: View) -> u32 {
        self.by_target.get(&target.0).map_or(0, |v| v.len() as u32)
    }

    /// Drops the votes for every target up to and including `entered`.
    pub fn prune(&mut self, entered: View) {
        self.by_target.retain(|&t, _| t > entered.0);
    }

    /// Takes the votes for `target`, by sender, and drops those for every
    /// lower target: the new leader's input to its merge.
    pub fn take(&mut self, target: View) -> BTreeMap<u32, V> {
        let votes = self.by_target.remove(&target.0).unwrap_or_default();
        self.prune(target);
        votes
    }
}

/// What a step of view-change vote collection did, for the caller to act
/// on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewChangeStep {
    /// This replica started (or joined) a change: count it.
    pub started: bool,
    /// This replica leads the target view and holds a majority of votes:
    /// enter it.
    pub ready: bool,
}

/// What [`ReplicaBase::replay_wal`] rebuilt, for the ordering core to
/// finish from.
pub struct Replayed<'d> {
    /// The log's view, accept and exec records, in disk order.
    pub records: Vec<WalRecord<'d>>,
    /// Commands that ran against the application.
    pub executed: u64,
}

/// What [`ReplicaBase::consume`] did with a committed slot.
#[derive(Debug)]
pub enum Consumed {
    /// A duplicate or a no-op: logged `fresh = false`, nothing ran.
    Skipped,
    /// A reconfiguration: its session holds an empty reply. The caller
    /// advances the frontier past the slot, then applies the command.
    Reconfig(Option<ReconfigCommand>),
    /// A command ran; its result, for whoever answers the client.
    Executed(ResultBytes),
}

/// The state and logic all three replicas share. See the
/// [module docs](self).
///
/// The protocol replicas dereference to this type, so its set-up and
/// inspection methods ([`enable_exec_log`](Self::enable_exec_log),
/// [`exec_log`](Self::exec_log), [`view`](Self::view), …) are callable on
/// an `IdemReplica`, `PaxosReplica` or `SmartReplica` directly.
pub struct ReplicaBase {
    /// This replica's identity.
    pub me: ReplicaId,
    /// The cluster address book.
    pub dir: Directory<NodeId>,
    app: Box<dyn StateMachine + Send>,
    message_cost: Duration,

    /// The epoch-numbered replica set. All quorum arithmetic, the peer
    /// list and leader derivation come from here; reconfiguration commands
    /// ordered through the protocol advance it at execution time.
    membership: Membership,
    view: View,
    /// Pending view-change target (`Some` while between views).
    vc_target: Option<View>,
    /// Evidence that a view below the pending view-change target is still
    /// live: a rejoining partitioned replica must abandon its solo view
    /// change and fall back in.
    rejoin_votes: Option<(View, QuorumTracker)>,

    /// Per-client sessions: duplicate suppression, the reply cache (small
    /// replies inline, so caching and resending never allocates), and the
    /// heads of the ordering core's per-client request chains.
    pub sessions: SessionTable,
    /// Reused buffer for state-machine execution results.
    exec_scratch: Vec<u8>,
    /// The execution frontier: the first slot not consumed yet, in the
    /// protocol's own numbering (a batch instance for SMaRt).
    next_exec: SeqNumber,
    /// Slot of an in-flight reconfiguration: no slot is bound past it
    /// until it executes, so the epoch switch point is the last slot of
    /// the old epoch.
    reconfig_barrier: Option<SeqNumber>,

    /// Durable logging layer (disabled unless the harness opts in).
    pub wal: Wal,
    /// Set by the rebuild factory after an amnesia wipe: the next
    /// `on_recover` replays the disk before rejoining.
    wipe_recovering: bool,
    /// The failure detector: expires after a whole progress timeout with
    /// work pending and no execution.
    progress: DeadlineTimer,
    /// Armed while catching up after a reboot; each firing asks again.
    recovery_timer: Option<TimerId>,
    recovery_attempts: u32,

    /// When enabled (`Some`), every slot this replica consumes is appended
    /// here for post-run safety checking (see [`crate::exec`]).
    exec_log: Option<Vec<ExecRecord>>,
}

impl ReplicaBase {
    /// A chassis for replica `me` of a bootstrap group of `n`, replicating
    /// `app`. `message_cost` is the protocol's flat per-message charge,
    /// also charged once per checkpoint (de)serialization whatever the
    /// snapshot's size; `progress_timeout` is the view-change timeout
    /// ([`PROGRESS_TIMEOUT`] in every protocol).
    pub fn new(
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
        n: u32,
        message_cost: Duration,
        progress_timeout: Duration,
    ) -> ReplicaBase {
        ReplicaBase {
            me,
            dir,
            app,
            message_cost,
            membership: Membership::bootstrap(n),
            view: View(0),
            vc_target: None,
            rejoin_votes: None,
            sessions: SessionTable::new(),
            exec_scratch: Vec::new(),
            next_exec: SeqNumber(0),
            reconfig_barrier: None,
            wal: Wal::default(),
            wipe_recovering: false,
            progress: DeadlineTimer::new(progress_timeout),
            recovery_timer: None,
            recovery_attempts: 0,
            exec_log: None,
        }
    }

    // ------------------------------------------------ set-up and inspection

    /// Turns on execution-order recording (off by default; recording every
    /// slot costs memory proportional to the run length).
    pub fn enable_exec_log(&mut self) {
        self.exec_log.get_or_insert_default();
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
    /// [`enable_exec_log`](Self::enable_exec_log) was called). SMaRt packs
    /// the batch sequence number and in-batch offset into one slot, so
    /// commands inside one batch keep distinct, ordered slots.
    pub fn exec_log(&self) -> &[ExecRecord] {
        self.exec_log.as_deref().unwrap_or_default()
    }

    /// Read access to the replicated application (for state comparison in
    /// tests).
    pub fn app(&self) -> &dyn StateMachine {
        &*self.app
    }

    /// The view this replica currently operates in.
    #[inline]
    pub fn view(&self) -> View {
        self.view
    }

    /// The execution frontier: the next slot to consume (for SMaRt, the
    /// next batch instance to decide).
    #[inline]
    pub fn next_exec(&self) -> SeqNumber {
        self.next_exec
    }

    /// Whether this replica is between views (view change in progress).
    #[inline]
    pub fn in_view_change(&self) -> bool {
        self.vc_target.is_some()
    }

    /// The replica set this replica currently operates under.
    #[inline]
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Whether this replica belongs to its own current membership. False
    /// for a spare that has not joined yet and for a departed member.
    #[inline]
    pub fn is_member(&self) -> bool {
        self.membership.contains(self.me)
    }

    // ---------------------------------------------------------------- roles

    /// Votes that decide: a strict majority of the current members.
    #[inline]
    pub fn majority(&self) -> u32 {
        self.membership.majority()
    }

    /// The view whose leader currently receives this replica's work: the
    /// pending view-change target if any, the entered view otherwise.
    #[inline]
    pub fn effective_view(&self) -> View {
        self.vc_target.unwrap_or(self.view)
    }

    /// The leader of `v` under the current membership.
    #[inline]
    pub fn leader_of(&self, v: View) -> ReplicaId {
        self.membership.leader_of(v)
    }

    /// This replica's best guess at who leads now.
    #[inline]
    pub fn leader_guess(&self) -> ReplicaId {
        self.leader_of(self.effective_view())
    }

    /// Whether this replica leads its entered view.
    #[inline]
    pub fn is_leader(&self) -> bool {
        self.vc_target.is_none() && self.leader_of(self.view) == self.me
    }

    /// Every *member* but this one, in sorted member order — identical to
    /// the directory slice at epoch 0, and no per-multicast allocation.
    #[inline]
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.me;
        self.membership
            .members()
            .iter()
            .copied()
            .filter(move |&r| r != me)
            .map(|r| self.dir.replica(r))
    }

    /// The member behind address `from`. `None` for a client and for a
    /// replica outside the membership (a departed node, or a joiner not
    /// switched to yet), which has no say in the current epoch.
    #[inline]
    pub fn member_sender(&self, from: NodeId) -> Option<ReplicaId> {
        self.dir
            .replica_of(from)
            .filter(|&r| self.membership.contains(r))
    }

    /// Whether `id` is at or below its client's highest executed op.
    #[inline]
    pub fn executed_already(&self, id: RequestId) -> bool {
        self.sessions.executed_already(id)
    }

    /// Whether a message of view `v` may be acted on: not below the
    /// pending view-change target, nor below the entered view.
    #[inline]
    pub fn view_acceptable(&self, v: View) -> bool {
        match self.vc_target {
            Some(t) => v >= t,
            None => v >= self.view,
        }
    }

    // ------------------------------------------------------------ execution

    /// Consumes committed slot `slot`, bound to `id`: logs it ahead of
    /// everything else (`persist_exec`), then runs `command` — or, for a
    /// duplicate or a no-op (`None`), nothing. `body_on_disk` says that an
    /// earlier accept record of `id` on this replica's disk holds
    /// `command`, so the exec record may leave it out. A reconfiguration
    /// is not run against the application: its session records an empty
    /// reply and the decoded command goes back to the caller. The caller
    /// advances the frontier ([`advance_exec`](Self::advance_exec)).
    #[inline]
    pub fn consume<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        slot: u64,
        id: RequestId,
        command: Option<&[u8]>,
        body_on_disk: bool,
    ) -> Consumed {
        self.persist_exec(ctx, slot, id, command, body_on_disk);
        match command {
            Some(command) => self.apply(ctx, id, command),
            None => Consumed::Skipped,
        }
    }

    /// Moves the frontier past the slot just consumed.
    #[inline]
    pub fn advance_exec(&mut self) {
        self.next_exec = self.next_exec.next();
    }

    /// Write-ahead record of one consumed slot: it hits the disk (and the
    /// fsync barrier) before the command is applied, so every
    /// externalized execution is replayable after a wipe; then it feeds
    /// the in-memory exec log the safety checker reads. A fresh command
    /// the disk already holds is named, not repeated; an empty one is
    /// always written, so replay never mistakes it for a missing body.
    #[inline]
    fn persist_exec<M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        slot: u64,
        id: RequestId,
        command: Option<&[u8]>,
        body_on_disk: bool,
    ) {
        let epoch = self.membership.epoch().0;
        match command {
            Some(command) if body_on_disk && !command.is_empty() => {
                self.wal.log_exec_elided(ctx, slot, id, epoch);
            }
            _ => {
                let fresh = command.is_some();
                let command = command.unwrap_or_default();
                self.wal.log_exec(ctx, slot, id, fresh, command, epoch);
            }
        }
        if command.is_some() {
            self.wal.executed(self.next_exec.0, slot, id);
        }
        if let Some(log) = &mut self.exec_log {
            log.push(ExecRecord::at_epoch(slot, id, command.is_some(), epoch));
        }
    }

    /// Applies a fresh command: a reconfiguration records its session
    /// and is handed back; anything else charges its cost, runs against
    /// the application and records the result in `id`'s session.
    #[inline]
    fn apply<M>(&mut self, ctx: &mut Context<'_, M>, id: RequestId, command: &[u8]) -> Consumed {
        if id.client == RECONFIG_CLIENT {
            self.sessions
                .record(id.client, id.op, ResultBytes::from_slice(&[]));
            return Consumed::Reconfig(ReconfigCommand::decode(command));
        }
        ctx.charge(self.app.execution_cost(command));
        let result = self.app.execute_reply(command, &mut self.exec_scratch);
        self.sessions.record(id.client, id.op, result.clone());
        Consumed::Executed(result)
    }

    /// Marks `slot` as holding an in-flight reconfiguration: until the
    /// frontier passes it, [`barrier_active`](Self::barrier_active) holds
    /// back new bindings.
    pub fn set_reconfig_barrier(&mut self, slot: SeqNumber) {
        self.reconfig_barrier = Some(slot);
    }

    /// Whether an in-flight reconfiguration blocks new slot bindings.
    /// Self-clearing: the barrier lifts once the frontier passes the
    /// reconfiguration's slot, however it got there — locally, by
    /// checkpoint install or after a view change.
    pub fn barrier_active(&mut self) -> bool {
        match self.reconfig_barrier {
            Some(slot) if self.next_exec > slot => {
                self.reconfig_barrier = None;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Answers the retransmission of an executed request from the reply
    /// cache, and returns whether a reply left. The client never saw the
    /// original reply (lost message or crashed leader), so *any* replica
    /// may answer — execution is deterministic, all caches agree. Nothing
    /// leaves for a reconfiguration command (no client node to answer) or
    /// once the client has moved past `id`.
    pub fn resend_cached_reply<M: ReplicaWire>(
        &self,
        ctx: &mut Context<'_, M>,
        id: RequestId,
    ) -> bool {
        if id.client == RECONFIG_CLIENT {
            return false;
        }
        match self.sessions.get(id.client) {
            Some((op, reply)) if op == id.op => {
                let msg = M::reply(Reply::new(id, reply.clone()));
                ctx.send(self.dir.client(id.client), msg);
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------- progress timer

    /// Starts the progress timer unless it is running.
    pub fn ensure_progress_timer<M: ReplicaWire>(&mut self, ctx: &mut Context<'_, M>) {
        self.progress.start(ctx, M::PROGRESS_TIMER);
    }

    /// Restarts the progress timer after progress: a whole timeout from
    /// now while the caller still has `pending` work, stopped otherwise.
    /// One timer stays armed across restarts (see [`DeadlineTimer`]).
    pub fn reset_progress_timer<M: ReplicaWire>(
        &mut self,
        ctx: &mut Context<'_, M>,
        pending: bool,
    ) {
        if pending {
            self.progress.push(ctx, M::PROGRESS_TIMER);
        } else {
            self.progress.stop();
        }
    }

    /// Handles the firing of progress timer `id`, and returns whether the
    /// timeout expired at a member (a non-member suspects nobody). A fire
    /// before the deadline re-arms for the remainder.
    pub fn progress_timer_fired<M: ReplicaWire>(
        &mut self,
        ctx: &mut Context<'_, M>,
        id: TimerId,
    ) -> bool {
        self.progress.fired(ctx, id, M::PROGRESS_TIMER) && self.is_member()
    }

    // ------------------------------------------------------------- recovery

    /// Arms the catch-up retry, `100 ms × 2^min(attempts, 3)` out — unless
    /// this replica has no peer: nobody could ever answer.
    pub fn arm_recovery_timer<M: ReplicaWire>(&mut self, ctx: &mut Context<'_, M>) {
        if self.peers().next().is_none() {
            return;
        }
        let delay = RECOVERY_RETRY_BASE * (1 << self.recovery_attempts.min(3));
        if let Some(old) = self.recovery_timer.take() {
            ctx.cancel_timer(old);
        }
        self.recovery_timer = Some(ctx.set_timer(delay, M::RECOVERY_TIMER));
    }

    /// Asks one replica for a checkpoint and arms the retry timer. The
    /// target rotates with each attempt over the *current members* —
    /// departed or never-joined nodes are skipped, so retries are never
    /// burned on a node that cannot answer — starting at the current
    /// leader guess, so catch-up succeeds even when that leader is down.
    /// A group of one has nobody to ask: nothing is sent or armed.
    pub fn send_recovery_request<M: ReplicaWire>(&mut self, ctx: &mut Context<'_, M>) {
        let members = self.membership.members();
        let n = members.len() as u32;
        let leader = self.leader_guess();
        let lead_idx = members.iter().position(|&r| r == leader).unwrap_or(0) as u32;
        let mut idx = (lead_idx + self.recovery_attempts) % n;
        if members[idx as usize] == self.me {
            idx = (idx + 1) % n;
        }
        let target = members[idx as usize];
        if target != self.me {
            ctx.send(self.dir.replica(target), M::CHECKPOINT_REQUEST);
        }
        self.arm_recovery_timer(ctx);
    }

    /// Notes that the catch-up retry fired unanswered.
    pub fn recovery_timer_fired(&mut self) {
        self.recovery_timer = None;
        self.recovery_attempts += 1;
    }

    /// The catch-up retry fired unanswered: ask the next member.
    pub fn handle_recovery_timer<M: ReplicaWire>(&mut self, ctx: &mut Context<'_, M>) {
        self.recovery_timer_fired();
        self.send_recovery_request(ctx);
    }

    /// First half of `on_recover`: whether this object was rebuilt after
    /// an amnesia wipe and has to replay its disk (answers yes once).
    pub fn take_wipe_recovery(&mut self) -> bool {
        std::mem::take(&mut self.wipe_recovering)
    }

    /// Second half of `on_recover`. Timer events that fired while the node
    /// was down are lost, so the held progress-timer handle may be stale:
    /// cancel it (a no-op if it fired) and arm a fresh one. Catch-up
    /// attempts count from zero again.
    pub fn rearm_on_recover<M: ReplicaWire>(&mut self, ctx: &mut Context<'_, M>) {
        self.progress.restart(ctx, M::PROGRESS_TIMER);
        self.recovery_attempts = 0;
    }

    // ---------------------------------------------------------- view change

    /// Adopts view `v` upon evidence that it is operational — it is above
    /// the entered view, or the pending target — and returns whether it
    /// did. The caller prunes its vote store and re-homes its work.
    pub fn follow_view<M>(&mut self, ctx: &mut Context<'_, M>, v: View) -> bool {
        let follow = v > self.view || self.vc_target == Some(v);
        if follow {
            self.enter_view(ctx, v);
        }
        follow
    }

    /// Enters view `v`, durably: a rebooted replica must never regress
    /// below a view it acted in.
    pub fn enter_view<M>(&mut self, ctx: &mut Context<'_, M>, v: View) {
        self.wal.log_view(ctx, v.0);
        self.view = v;
        self.vc_target = None;
    }

    /// A partitioned replica that unilaterally demanded a view change must
    /// rejoin the old view when it reconnects and observes that view still
    /// making progress at a majority of distinct replicas (nobody else
    /// will help complete its solo view change). Counts `sender` as a
    /// witness of view `v`; on the deciding one, falls back to `v`, prunes
    /// `votes`, restarts the progress timer (`pending` as in
    /// [`reset_progress_timer`](Self::reset_progress_timer)) and returns
    /// true.
    pub fn observe_live_view<M: ReplicaWire, V>(
        &mut self,
        ctx: &mut Context<'_, M>,
        votes: &mut VoteStore<V>,
        v: View,
        sender: ReplicaId,
        pending: bool,
    ) -> bool {
        let Some(target) = self.vc_target else {
            return false;
        };
        if v < self.view || v >= target {
            return false;
        }
        match &mut self.rejoin_votes {
            Some((lv, witnesses)) if *lv == v => {
                witnesses.record(sender);
                if witnesses.reached() {
                    self.rejoin_votes = None;
                    self.vc_target = None;
                    self.view = v;
                    votes.prune(v);
                    self.reset_progress_timer(ctx, pending);
                    return true;
                }
            }
            _ => {
                let mut witnesses = QuorumTracker::new(self.majority());
                witnesses.record(sender);
                self.rejoin_votes = Some((v, witnesses));
            }
        }
        false
    }

    /// Demands a change to view `target`: stores this replica's own vote
    /// (built by `vote` only if the change starts), multicasts it as
    /// `wire(vote)` and keeps the progress timer armed so a change that
    /// does not complete escalates. Does nothing when a change to `target`
    /// or beyond is already in flight or entered — the timer path re-arms
    /// regardless, or a stalled change would never escalate past `target`.
    pub fn start_view_change<M: ReplicaWire, V: Clone>(
        &mut self,
        ctx: &mut Context<'_, M>,
        votes: &mut VoteStore<V>,
        target: View,
        vote: impl FnOnce() -> V,
        wire: impl FnOnce(V) -> M,
    ) -> ViewChangeStep {
        if target <= self.view || self.vc_target.is_some_and(|t| t >= target) {
            return ViewChangeStep::default();
        }
        self.vc_target = Some(target);
        let vote = vote();
        votes.insert(target, self.me, vote.clone());
        ctx.multicast(self.peers(), wire(vote));
        self.ensure_progress_timer(ctx);
        ViewChangeStep {
            started: true,
            ready: self.check_new_view(votes, target),
        }
    }

    /// Stores a peer's `ViewChange` vote `theirs` for `target`, unless it
    /// is not a member's or the view is already entered. Joins the change
    /// (as [`start_view_change`](Self::start_view_change), with the same
    /// `vote` and `wire`) once a majority demands it: that is proof the
    /// view is dead even if the own timer has not fired yet.
    pub fn handle_view_change<M: ReplicaWire, V: Clone>(
        &mut self,
        ctx: &mut Context<'_, M>,
        votes: &mut VoteStore<V>,
        (from, theirs): (NodeId, V),
        target: View,
        vote: impl FnOnce() -> V,
        wire: impl FnOnce(V) -> M,
    ) -> ViewChangeStep {
        let Some(sender) = self.member_sender(from) else {
            return ViewChangeStep::default();
        };
        if target <= self.view {
            return ViewChangeStep::default();
        }
        let senders = votes.insert(target, sender, theirs);
        let join = senders >= self.majority() && self.vc_target.is_none_or(|t| t < target);
        let started = join
            && self
                .start_view_change(ctx, votes, target, vote, wire)
                .started;
        ViewChangeStep {
            started,
            ready: self.check_new_view(votes, target),
        }
    }

    /// Whether this replica may enter view `target` as its leader now: it
    /// leads it, is changing to it, and holds a majority of votes for it.
    pub fn check_new_view<V>(&self, votes: &VoteStore<V>, target: View) -> bool {
        self.leader_of(target) == self.me
            && self.vc_target == Some(target)
            && votes.count(target) >= self.majority()
    }

    // ---------------------------------------------------------- checkpoints

    /// The shared part of taking a checkpoint at the frontier: charges the
    /// serialization like handling one message and streams the state into
    /// the WAL, which bounds replay length after a wipe. Nothing is
    /// encoded while the WAL is off. The caller counts the checkpoint and
    /// prunes what it covers.
    pub fn take_checkpoint<M>(&mut self, ctx: &mut Context<'_, M>) {
        ctx.charge(self.message_cost);
        if self.wal.enabled() {
            let checkpoint = self.capture();
            self.wal.log_checkpoint(ctx, checkpoint);
        }
    }

    /// Takes a checkpoint as [`take_checkpoint`](Self::take_checkpoint)
    /// does and returns it for state transfer: the bytes on the wire are
    /// the record on the disk.
    fn take_checkpoint_to_send<M>(&mut self, ctx: &mut Context<'_, M>) -> CheckpointData {
        ctx.charge(self.message_cost);
        let checkpoint = self.capture();
        if self.wal.enabled() {
            self.wal.log_checkpoint(ctx, checkpoint.clone());
        }
        checkpoint
    }

    /// The current state as one checkpoint record. Taken at the current
    /// frontier, so the current membership is exactly the one in force
    /// there.
    fn capture(&self) -> CheckpointData {
        CheckpointData::capture(self.next_exec, &*self.app, &self.sessions, &self.membership)
    }

    /// Answers a checkpoint request with a *fresh* checkpoint (taken as
    /// by [`take_checkpoint`](Self::take_checkpoint)): the periodic one can
    /// predate the requester's own state, and its gap is only repairable
    /// by a checkpoint taken at or after its missing slot.
    pub fn handle_checkpoint_request<M: ReplicaWire>(
        &mut self,
        ctx: &mut Context<'_, M>,
        from: NodeId,
    ) {
        let checkpoint = self.take_checkpoint_to_send(ctx);
        ctx.send(from, M::checkpoint(checkpoint));
    }

    /// The shared part of installing a transferred checkpoint. Any
    /// checkpoint answer proves a peer reachable, so the post-reboot retry
    /// stands down even for a stale one — not past the frontier — for
    /// which this returns false. Otherwise the frontier, the application,
    /// the sessions and — if newer: the moment a joiner becomes a member,
    /// which also lifts the reconfiguration barrier — the membership are
    /// the checkpoint's, and its bytes are on disk as they arrived (it
    /// moved the app past slots this replica never logged, so replay after
    /// a wipe must start from it).
    pub fn install_checkpoint<M: ReplicaWire>(
        &mut self,
        ctx: &mut Context<'_, M>,
        data: CheckpointData,
    ) -> bool {
        if let Some(timer) = self.recovery_timer.take() {
            ctx.cancel_timer(timer);
            self.recovery_attempts = 0;
        }
        if data.next_exec() <= self.next_exec {
            return false;
        }
        ctx.charge(self.message_cost);
        if self.restore(data.decode()) && self.is_member() {
            self.ensure_progress_timer(ctx);
        }
        let sessions = &self.sessions;
        self.wal
            .installed(self.next_exec.0, |id| sessions.executed_already(id));
        self.wal.log_checkpoint(ctx, data);
        true
    }

    /// Restores what a checkpoint record holds, for WAL replay and state
    /// transfer alike: the application, the sessions, the frontier and,
    /// when the record carries a newer one, the membership — which lifts
    /// the reconfiguration barrier. Returns whether the membership changed.
    fn restore(&mut self, cp: CheckpointRef<'_>) -> bool {
        let adopted = match cp.membership {
            Some(m) if m.epoch() > self.membership.epoch() => {
                self.membership = m;
                self.reconfig_barrier = None;
                true
            }
            // Epochs only advance with the frontier, so a replica behind
            // this checkpoint's frontier holds no newer membership: the
            // record's tail is the one this replica would write itself.
            m => {
                let own = (self.membership.epoch().0 > 0).then_some(&self.membership);
                debug_assert_eq!(m.as_ref(), own, "checkpoint from an older epoch");
                false
            }
        };
        self.app.restore(cp.snapshot);
        self.sessions.restore_executed(cp.clients.iter());
        self.next_exec = SeqNumber(cp.next_exec);
        adopted
    }

    // --------------------------------------------------------- epoch switch

    /// Switches to the next epoch after executing reconfiguration command
    /// `cmd`, with the frontier already past its slot, and lifts the
    /// reconfiguration barrier. Returns false if this replica was voted
    /// out: the progress timer is stopped, the catch-up retry cancelled,
    /// and it stops participating. Otherwise a checkpoint is taken at the
    /// boundary (as by [`take_checkpoint`](Self::take_checkpoint)) and
    /// pushed straight at a joiner — waiting for its own request would put
    /// a retry interval on the convergence path — and the clients are told
    /// where the group now lives. Leadership derives from the member list,
    /// so it may have moved: the caller re-homes its work.
    pub fn switch_epoch<M: ReplicaWire>(
        &mut self,
        ctx: &mut Context<'_, M>,
        cmd: &ReconfigCommand,
    ) -> bool {
        self.reconfig_barrier = None;
        self.membership.apply(cmd);
        if !self.is_member() {
            self.reset_progress_timer(ctx, false);
            if let Some(t) = self.recovery_timer.take() {
                ctx.cancel_timer(t);
            }
            return false;
        }
        match cmd.added().filter(|&r| r != self.me) {
            Some(joiner) => {
                let checkpoint = self.take_checkpoint_to_send(ctx);
                ctx.send(self.dir.replica(joiner), M::checkpoint(checkpoint));
            }
            None => self.take_checkpoint(ctx),
        }
        ctx.multicast(
            self.dir.client_addrs().iter().copied(),
            M::membership_update(self.membership.clone()),
        );
        true
    }

    /// A non-member's answer to a client request: a redirect, once there
    /// is a newer membership to redirect to. A spare that has not joined
    /// yet and a departed member take no part in the protocol; besides
    /// this they only install checkpoints (how a joiner becomes a member)
    /// and serve checkpoint requests.
    pub fn redirect_client<M: ReplicaWire>(&self, ctx: &mut Context<'_, M>, client: ClientId) {
        if client != RECONFIG_CLIENT && self.membership.epoch().0 > 0 {
            ctx.send(
                self.dir.client(client),
                M::membership_update(self.membership.clone()),
            );
        }
    }

    // ----------------------------------------------------------- WAL replay

    /// Rebuilds the shared state from the disk after an amnesia wipe:
    /// resumes the highest view this replica entered or voted in, installs
    /// the newest durable checkpoint, and re-applies the execution records
    /// past it. A record's decision is `slot >> shift` (SMaRt packs the
    /// in-batch offset into the low `shift` bits; IDEM and Paxos decide
    /// single slots, `shift = 0`). It is applied when at or past the
    /// frontier the checkpoint stands at — frozen: a moving bound would
    /// skip the rest of a batch after its first command — and moves the
    /// frontier past its decision. Every record re-enters the exec log
    /// either way — the durability invariant audits the whole history —
    /// under the epoch it was written in, not the current one: replayed
    /// entries must agree with what peers logged live. Below the
    /// checkpoint an exec record may have lost its body to reclaiming
    /// ([`Wal::replay`] hands it back elided); it is audited only. The
    /// WAL handle then learns the disk ([`Wal::resume`]), so its next
    /// checkpoint reclaims from where the wiped one left off.
    ///
    /// A decision's exec records are appended and synced in one handler,
    /// so only a torn write leaves one short, and only the last decision.
    /// Where that decision is a batch, its accept records name every
    /// command in it: those past the last surviving exec record run too
    /// (`torn_tail`), as the live replica ran them.
    pub fn replay_wal<'d, M>(
        &mut self,
        ctx: &mut Context<'_, M>,
        disk: &'d [Vec<u8>],
        shift: u32,
    ) -> Replayed<'d> {
        let ReplayLog {
            checkpoint,
            records,
        } = Wal::replay(disk, shift);
        self.wal.resume(disk, shift);
        let max_view = records.iter().fold(self.view.0, |max, rec| match rec {
            WalRecord::View(v) | WalRecord::Accept { view: v, .. } => max.max(*v),
            _ => max,
        });
        self.view = View(max_view);
        if let Some(cp) = checkpoint {
            self.restore(cp);
        }
        let covered = self.next_exec.0;
        let mut executed = 0;
        for rec in &records {
            let (slot, id, fresh, command, epoch) = match *rec {
                WalRecord::Exec {
                    slot,
                    id,
                    fresh,
                    command,
                    epoch,
                } => (slot, id, fresh, Some(command), epoch),
                WalRecord::ExecElided { slot, id, epoch } => (slot, id, true, None, epoch),
                _ => continue,
            };
            if let Some(log) = &mut self.exec_log {
                log.push(ExecRecord::at_epoch(slot, id, fresh, epoch));
            }
            let decision = slot >> shift;
            // Below the checkpoint, and an elided record comes back only
            // there: audited, never applied.
            let Some(command) = command.filter(|_| decision >= covered) else {
                continue;
            };
            if fresh && !self.executed_already(id) {
                executed += u64::from(self.reapply(ctx, id, command));
            }
            self.next_exec = self.next_exec.max(SeqNumber(decision + 1));
        }
        if let Some(last) = self.next_exec.0.checked_sub(1).filter(|&d| d >= covered) {
            for (slot, id, command, epoch) in torn_tail(&records, last, shift) {
                let fresh = !self.executed_already(id);
                if let Some(log) = &mut self.exec_log {
                    log.push(ExecRecord::at_epoch(slot, id, fresh, epoch));
                }
                if fresh {
                    executed += u64::from(self.reapply(ctx, id, command));
                }
            }
        }
        Replayed { records, executed }
    }

    /// Re-applies a replayed command: a reconfiguration to the membership,
    /// at the same execution point; anything else to the app. Returns
    /// whether the app ran.
    fn reapply<M>(&mut self, ctx: &mut Context<'_, M>, id: RequestId, command: &[u8]) -> bool {
        match self.apply(ctx, id, command) {
            Consumed::Reconfig(cmd) => {
                if let Some(cmd) = cmd {
                    self.membership.apply(&cmd);
                }
                false
            }
            _ => true,
        }
    }

    /// Restores into `window` the slot bindings this replica proposed or
    /// endorsed, from the slot-bound accept records of a replayed log:
    /// per slot inside the window, that of the highest view, built by
    /// `bind` from the record's slot, view, id and command (`view_of`
    /// reads an entry's view). Returns the first slot above the frontier
    /// and every bound slot, in the window or not: a rebooted leader must
    /// not re-bind an in-flight slot to a different request
    /// (equivocation).
    pub fn replay_bindings<'d, T>(
        &self,
        window: &mut SeqWindow<T>,
        records: &[WalRecord<'d>],
        view_of: impl Fn(&T) -> View,
        mut bind: impl FnMut(&ReplicaBase, SeqNumber, View, RequestId, &'d [u8]) -> T,
    ) -> SeqNumber {
        let mut propose_past = self.next_exec;
        for rec in records {
            let WalRecord::Accept {
                slot,
                view,
                id,
                command,
            } = *rec
            else {
                continue;
            };
            if slot == u64::MAX {
                continue; // REQUIRE-stage record, no slot bound yet
            }
            let sqn = SeqNumber(slot);
            propose_past = propose_past.max(sqn.next());
            if window.is_stale(sqn) || window.is_ahead(sqn) {
                continue;
            }
            if window.get(sqn).is_some_and(|i| view_of(i).0 >= view) {
                continue;
            }
            let entry = bind(self, sqn, View(view), id, command);
            window.insert(sqn, entry);
        }
        propose_past
    }
}

/// The commands a torn write cut off the end of `decision` (its slots
/// are those with `slot >> shift == decision`): what its accept records
/// name past its last surviving exec record, at the highest view whose
/// ids agree with every surviving one, in slot order and under the
/// survivors' epoch. Empty when nothing is missing, as always for a
/// single-slot decision.
fn torn_tail<'d>(
    records: &[WalRecord<'d>],
    decision: u64,
    shift: u32,
) -> Vec<(u64, RequestId, &'d [u8], u64)> {
    let ours = |slot: u64| slot != u64::MAX && slot >> shift == decision;
    let (mut survivors, mut accepts) = (Vec::new(), Vec::new());
    for rec in records {
        match *rec {
            WalRecord::Exec {
                slot, id, epoch, ..
            } if ours(slot) => survivors.push((slot, id, epoch)),
            // Highest view first, each view's records in slot order.
            WalRecord::Accept {
                slot,
                view,
                id,
                command,
            } if ours(slot) => accepts.push((std::cmp::Reverse(view), slot, id, command)),
            _ => {}
        }
    }
    let Some(&(last, _, epoch)) = survivors.iter().max_by_key(|s| s.0) else {
        return Vec::new();
    };
    accepts.sort_by_key(|a| (a.0, a.1));
    accepts.dedup_by_key(|a| (a.0, a.1));
    let agrees = |batch: &&[(_, u64, RequestId, _)]| {
        survivors.iter().all(|&(slot, id, _)| {
            let at = batch.binary_search_by_key(&slot, |a| a.1);
            at.is_ok_and(|i| batch[i].2 == id)
        })
    };
    let batch = accepts.chunk_by(|a, b| a.0 == b.0).find(agrees);
    let past = batch.unwrap_or_default().iter().filter(|a| a.1 > last);
    past.map(|&(_, slot, id, command)| (slot, id, command, epoch))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use idem_simnet::{Node, SimTime, Simulation};

    use super::*;
    use crate::app::NullApp;
    use crate::ids::OpNumber;

    /// A message type with nothing but the chassis's own variants, plus
    /// one to carry a toy view-change vote and one to make a node act.
    #[derive(Debug, Clone, PartialEq)]
    enum Toy {
        CheckpointRequest,
        Checkpoint(CheckpointData),
        MembershipUpdate(Membership),
        Reply(Reply),
        ProgressTimer,
        RecoveryTimer,
        ViewChange(View, u8),
        Step,
    }

    impl Wire for Toy {
        fn wire_size(&self) -> usize {
            8
        }
    }

    impl ReplicaWire for Toy {
        const CHECKPOINT_REQUEST: Toy = Toy::CheckpointRequest;
        const PROGRESS_TIMER: Toy = Toy::ProgressTimer;
        const RECOVERY_TIMER: Toy = Toy::RecoveryTimer;
        fn checkpoint(data: CheckpointData) -> Toy {
            Toy::Checkpoint(data)
        }
        fn membership_update(membership: Membership) -> Toy {
            Toy::MembershipUpdate(membership)
        }
        fn reply(reply: Reply) -> Toy {
            Toy::Reply(reply)
        }
    }

    type Step = Box<dyn FnOnce(&mut ToyReplica, &mut Context<'_, Toy>)>;

    /// A chassis with no ordering core: it runs the next scripted step on
    /// `Toy::Step`, keeps the recovery retry going, and logs everything
    /// else it receives or sees fire — of the progress timer, only the
    /// expiries the chassis reports, which an ordering core would act on.
    struct ToyReplica {
        base: ReplicaBase,
        votes: VoteStore<u8>,
        script: VecDeque<Step>,
        seen: Vec<(SimTime, NodeId, Toy)>,
    }

    impl Node<Toy> for ToyReplica {
        fn on_message(&mut self, ctx: &mut Context<'_, Toy>, from: NodeId, msg: Toy) {
            match msg {
                Toy::Step => (self.script.pop_front().expect("a scripted step"))(self, ctx),
                msg => self.seen.push((ctx.now(), from, msg)),
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, Toy>, id: TimerId, msg: Toy) {
            if msg == Toy::ProgressTimer && !self.base.progress_timer_fired(ctx, id) {
                return;
            }
            self.seen.push((ctx.now(), ctx.id(), msg.clone()));
            if msg == Toy::RecoveryTimer {
                self.base.handle_recovery_timer(ctx);
            }
        }
    }

    /// `n` toy replicas (node ids = replica ids) and one client node, all
    /// believing in a bootstrap group of `members`.
    fn cluster(n: u32, members: u32) -> (Simulation<Toy>, Vec<NodeId>) {
        let mut sim: Simulation<Toy> = Simulation::new(7);
        let nodes: Vec<NodeId> = (0..=n).map(|_| sim.reserve_node()).collect();
        let (replicas, client) = nodes.split_at(n as usize);
        let dir = Directory::new(replicas.to_vec(), client.to_vec());
        for (i, &node) in nodes.iter().enumerate() {
            let base = ReplicaBase::new(
                ReplicaId(i as u32),
                dir.clone(),
                Box::new(NullApp::default()),
                members,
                Duration::ZERO,
                Duration::from_secs(5),
            );
            let toy = ToyReplica {
                base,
                votes: VoteStore::default(),
                script: VecDeque::new(),
                seen: Vec::new(),
            };
            sim.install_node(node, Box::new(toy));
        }
        (sim, nodes)
    }

    fn toy(sim: &Simulation<Toy>, node: NodeId) -> &ToyReplica {
        sim.node_as::<ToyReplica>(node).expect("toy replica")
    }

    /// Runs `step` inside a handler of `node`, now.
    fn act(
        sim: &mut Simulation<Toy>,
        node: NodeId,
        step: impl FnOnce(&mut ToyReplica, &mut Context<'_, Toy>) + 'static,
    ) {
        let replica = sim.node_as_mut::<ToyReplica>(node).expect("toy replica");
        replica.script.push_back(Box::new(step));
        sim.post(node, Toy::Step);
        sim.run_for(Duration::ZERO);
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    /// When each of `node`'s timers of kind `timer` fired (expired, for the
    /// progress timer).
    fn fired(sim: &Simulation<Toy>, node: NodeId, timer: &Toy) -> Vec<SimTime> {
        let seen = toy(sim, node).seen.iter();
        seen.filter(|(_, _, m)| m == timer)
            .map(|&(t, ..)| t)
            .collect()
    }

    /// Which of `nodes` were asked for a checkpoint, in arrival order.
    fn asked(sim: &Simulation<Toy>, nodes: &[NodeId]) -> Vec<u32> {
        let mut asks: Vec<(SimTime, u32)> = nodes
            .iter()
            .flat_map(|&n| toy(sim, n).seen.iter().map(move |s| (n, s)))
            .filter(|(_, (.., m))| *m == Toy::CheckpointRequest)
            .map(|(n, &(t, ..))| (t, n.0))
            .collect();
        asks.sort_unstable();
        asks.into_iter().map(|(_, n)| n).collect()
    }

    #[test]
    fn recovery_rotates_over_members_from_the_leader_guess_and_backs_off() {
        let (mut sim, nodes) = cluster(5, 5);
        let me = nodes[1];
        act(&mut sim, me, |r, ctx| {
            // Replica 3 has left: members 0, 1, 2, 4; view 0 is led by 0.
            r.base
                .membership
                .apply(&ReconfigCommand::Leave(ReplicaId(3)));
            r.base.send_recovery_request(ctx);
        });
        sim.run_for(Duration::from_millis(2400));
        // Nobody answers, so every retry fires: 100, 200, 400, 800, 800 ms
        // apart.
        assert_eq!(
            fired(&sim, me, &Toy::RecoveryTimer),
            [ms(100), ms(300), ms(700), ms(1500), ms(2300)]
        );
        // Attempt k asks member (0 + k) mod 4 — the leader first — except
        // that `me` (slot 1) is passed over for the next slot; the departed
        // replica 3 is never asked.
        assert_eq!(asked(&sim, &nodes), [0, 2, 2, 4, 0, 2]);
    }

    #[test]
    fn a_checkpoint_answer_ends_the_recovery_retries() {
        let (mut sim, nodes) = cluster(3, 3);
        let me = nodes[2];
        act(&mut sim, me, |r, ctx| r.base.send_recovery_request(ctx));
        sim.run_for(Duration::from_millis(150));
        assert_eq!(toy(&sim, me).base.recovery_attempts, 1);
        act(&mut sim, me, |r, ctx| {
            // Stale (nothing past frontier 0), but an answer all the same.
            let stale = r.base.capture();
            assert!(!r.base.install_checkpoint(ctx, stale));
        });
        sim.run_for(Duration::from_secs(2));
        assert_eq!(fired(&sim, me, &Toy::RecoveryTimer), [ms(100)]);
        assert_eq!(toy(&sim, me).base.recovery_attempts, 0);
    }

    #[test]
    fn a_group_of_one_asks_nobody_and_arms_nothing() {
        let (mut sim, nodes) = cluster(1, 1);
        act(&mut sim, nodes[0], |r, ctx| {
            r.base.send_recovery_request(ctx);
            r.base.arm_recovery_timer(ctx); // what a multicasting core calls
        });
        sim.run_for(Duration::from_secs(2));
        // It used to ask itself: a snapshot charged, a WAL checkpoint
        // appended, and its own reply "proving" the cluster reachable.
        let replica = toy(&sim, nodes[0]);
        assert!(replica.base.recovery_timer.is_none());
        assert_eq!(replica.seen, []);
        assert_eq!(sim.pending_timers(), 0);
    }

    fn vote(sim: &mut Simulation<Toy>, at: NodeId, from: NodeId, target: View) -> ViewChangeStep {
        let result = std::rc::Rc::new(std::cell::Cell::new(ViewChangeStep::default()));
        let out = result.clone();
        act(sim, at, move |r, ctx| {
            let wire = |v| Toy::ViewChange(target, v);
            let step = r
                .base
                .handle_view_change(ctx, &mut r.votes, (from, 9), target, || 1, wire);
            out.set(step);
        });
        result.get()
    }

    #[test]
    fn a_majority_of_distinct_view_change_senders_starts_the_change() {
        let (mut sim, nodes) = cluster(4, 3); // replica 3 is a spare
        let me = nodes[1];
        let idle = ViewChangeStep::default();
        // Non-members and repeated senders do not add up to a majority.
        assert_eq!(vote(&mut sim, me, nodes[3], View(1)), idle);
        assert_eq!(vote(&mut sim, me, nodes[2], View(1)), idle);
        assert_eq!(vote(&mut sim, me, nodes[2], View(1)), idle);
        assert!(!toy(&sim, me).base.in_view_change());
        // The second distinct member does: `me` joins, and — leading view
        // 1 with three votes stored — may enter it at once.
        let step = vote(&mut sim, me, nodes[0], View(1));
        assert!(step.started && step.ready);
        assert_eq!(toy(&sim, me).base.effective_view(), View(1));
        sim.run_for(Duration::from_millis(10));
        let own = (SimTime::ZERO, me, Toy::ViewChange(View(1), 1));
        let got = |n: NodeId| {
            toy(&sim, n)
                .seen
                .iter()
                .any(|(_, f, m)| (f, m) == (&own.1, &own.2))
        };
        assert!(got(nodes[0]) && got(nodes[2]), "own vote goes to the peers");
        assert!(!got(nodes[3]), "and to members only");
    }

    #[test]
    fn only_the_targets_leader_is_ever_ready() {
        let (mut sim, nodes) = cluster(3, 3);
        let me = nodes[1];
        // View 2 is led by replica 2: `me` joins the change but may not
        // enter the view, however many votes it holds.
        assert_eq!(
            vote(&mut sim, me, nodes[0], View(2)),
            ViewChangeStep::default()
        );
        let step = vote(&mut sim, me, nodes[2], View(2));
        assert!(step.started && !step.ready);
        let replica = toy(&sim, me);
        assert!(!replica.base.check_new_view(&replica.votes, View(2)));
        // Votes for a view already passed are not even stored.
        act(&mut sim, me, |r, ctx| r.base.enter_view(ctx, View(2)));
        assert_eq!(
            vote(&mut sim, me, nodes[0], View(2)),
            ViewChangeStep::default()
        );
        // A target it leads is not ready before a majority has voted, or
        // while it is not itself changing to it.
        assert_eq!(
            vote(&mut sim, me, nodes[0], View(4)),
            ViewChangeStep::default()
        );
        let replica = toy(&sim, me);
        assert!(!replica.base.check_new_view(&replica.votes, View(4)));
    }

    #[test]
    fn falling_back_needs_a_majority_of_witnesses_of_one_lower_view() {
        let (mut sim, nodes) = cluster(3, 3);
        act(&mut sim, nodes[1], |r, ctx| {
            let wire = |v| Toy::ViewChange(View(3), v);
            let solo = r
                .base
                .start_view_change(ctx, &mut r.votes, View(3), || 1, wire);
            assert!(solo.started && !solo.ready);
            let mut witness = |v, sender| {
                r.base
                    .observe_live_view(ctx, &mut r.votes, View(v), ReplicaId(sender), false)
            };
            // The target itself and anything above it is no lower view.
            assert!(!witness(3, 0) && !witness(4, 2));
            assert!(!witness(1, 0));
            // A witness of another view starts the count afresh, and one
            // sender counts once.
            assert!(!witness(2, 0));
            assert!(!witness(2, 0));
            assert!(!witness(1, 2));
            assert!(witness(1, 0));
            // Back in a view, there is nothing to fall back from.
            assert!(!witness(0, 0) && !witness(0, 2));
            assert_eq!(r.base.view(), View(1));
            assert!(!r.base.in_view_change());
        });
        // `pending` was false: the progress timer the solo change started
        // is stopped with it, and never expires.
        sim.run_for(Duration::from_secs(6));
        assert_eq!(fired(&sim, nodes[1], &Toy::ProgressTimer), []);
    }

    #[test]
    fn a_voted_out_replica_cancels_both_timers() {
        let (mut sim, nodes) = cluster(3, 3);
        let me = nodes[2];
        act(&mut sim, me, |r, ctx| {
            r.base.ensure_progress_timer(ctx);
            r.base.send_recovery_request(ctx);
            let leave = ReconfigCommand::Leave(ReplicaId(2));
            r.base.next_exec = SeqNumber(1);
            assert!(!r.base.switch_epoch(ctx, &leave));
            assert!(!r.base.is_member());
            assert!(!r.base.progress.is_running());
        });
        // Neither times out: no view change, no catch-up request.
        sim.run_for(Duration::from_secs(6));
        assert_eq!(fired(&sim, me, &Toy::ProgressTimer), []);
        assert_eq!(fired(&sim, me, &Toy::RecoveryTimer), []);
        // Gone, it redirects clients instead of serving them.
        let client = *nodes.last().expect("client node");
        act(&mut sim, me, |r, ctx| {
            r.base.redirect_client(ctx, ClientId(0))
        });
        sim.run_for(Duration::from_millis(10));
        let seen = &toy(&sim, client).seen;
        assert!(matches!(&seen[..], [(_, _, Toy::MembershipUpdate(m))] if m.epoch().0 == 1));
    }

    /// Installs at replica 0 of a group of three, standing at frontier 5
    /// with a reconfiguration barrier at `barrier`, a checkpoint taken
    /// there and moved to frontier `at`, under the next epoch if `join`.
    /// Returns whether it installed, and the frontier, barrier and epoch
    /// after.
    fn install_at(at: u64, join: bool, barrier: u64) -> (bool, SeqNumber, bool, u64) {
        let (mut sim, nodes) = cluster(4, 3);
        let out = std::rc::Rc::new(std::cell::Cell::new(None));
        let seen = out.clone();
        act(&mut sim, nodes[0], move |r, ctx| {
            r.base.next_exec = SeqNumber(5);
            r.base.set_reconfig_barrier(SeqNumber(barrier));
            let mut membership = r.base.membership().clone();
            if join {
                membership.apply(&ReconfigCommand::Join(ReplicaId(3)));
            }
            let snapshot = r.base.app().snapshot();
            let rows = r
                .base
                .sessions
                .iter()
                .map(|(c, op, r)| (c, op.0, r.as_slice()));
            let data = CheckpointData::new(SeqNumber(at), &snapshot, rows, &membership);
            let installed = r.base.install_checkpoint(ctx, data);
            let epoch = r.base.membership().epoch().0;
            seen.set(Some((
                installed,
                r.base.next_exec(),
                r.base.barrier_active(),
                epoch,
            )));
        });
        out.get().expect("installed or not")
    }

    #[test]
    fn a_stale_checkpoint_moves_neither_the_frontier_nor_the_barrier() {
        // Not past the frontier: refused, even from a newer epoch.
        assert_eq!(install_at(5, true, 5), (false, SeqNumber(5), true, 0));
        assert_eq!(install_at(3, false, 5), (false, SeqNumber(5), true, 0));
    }

    #[test]
    fn a_newer_checkpoint_moves_the_frontier() {
        // Same epoch: the barrier still holds until execution passes it.
        assert_eq!(install_at(9, false, 20), (true, SeqNumber(9), true, 0));
        // Past the barrier, it lifts itself.
        assert_eq!(install_at(9, false, 7), (true, SeqNumber(9), false, 0));
    }

    #[test]
    fn a_new_epoch_install_clears_the_barrier() {
        assert_eq!(install_at(9, true, 20), (true, SeqNumber(9), false, 1));
    }

    /// Consumes `slot`, bound to `id`, at replica 0 of a group of three
    /// whose app charges 5 ms per execution, then sends replica 1 a
    /// marker. Returns the simulation, what the step returned and when the
    /// marker landed: under a millisecond unless the step charged an
    /// execution.
    fn consume_once(
        slot: u64,
        id: RequestId,
        command: Option<Vec<u8>>,
    ) -> (Simulation<Toy>, Consumed, SimTime) {
        let (mut sim, nodes) = cluster(4, 3);
        let peer = nodes[1];
        let out = std::rc::Rc::new(std::cell::RefCell::new(None));
        let consumed = out.clone();
        act(&mut sim, nodes[0], move |r, ctx| {
            r.base.app = Box::new(NullApp::with_cost(Duration::from_millis(5)));
            r.base.enable_exec_log();
            let step = r.base.consume(ctx, slot, id, command.as_deref(), false);
            *consumed.borrow_mut() = Some(step);
            ctx.send(peer, Toy::CheckpointRequest);
        });
        sim.run_for(Duration::from_millis(10));
        let landed = fired(&sim, peer, &Toy::CheckpointRequest)[0];
        let consumed = out.take().expect("consumed");
        (sim, consumed, landed)
    }

    #[test]
    fn consuming_a_duplicate_logs_it_stale_and_charges_nothing() {
        let id = RequestId::new(ClientId(0), OpNumber(1));
        let (sim, consumed, landed) = consume_once(3, id, None);
        assert!(matches!(consumed, Consumed::Skipped));
        let base = &toy(&sim, NodeId(0)).base;
        assert_eq!(base.exec_log(), [ExecRecord::at_epoch(3, id, false, 0)]);
        assert!(!base.executed_already(id));
        assert!(landed < ms(1), "no execution charged");
    }

    #[test]
    fn consuming_a_reconfiguration_leaves_the_membership_to_the_caller() {
        let join = ReconfigCommand::Join(ReplicaId(3));
        let id = RequestId::new(RECONFIG_CLIENT, OpNumber(1));
        let (sim, consumed, landed) = consume_once(4, id, Some(join.encode()));
        assert!(matches!(consumed, Consumed::Reconfig(Some(cmd)) if cmd == join));
        let base = &toy(&sim, NodeId(0)).base;
        assert!(base.executed_already(id), "its session is recorded");
        assert_eq!(base.membership().epoch().0, 0);
        assert_eq!(base.exec_log(), [ExecRecord::at_epoch(4, id, true, 0)]);
        assert!(landed < ms(1), "the app never ran");
    }

    #[test]
    fn consuming_a_command_lands_its_result_in_the_reply_cache() {
        let id = RequestId::new(ClientId(0), OpNumber(1));
        let (sim, consumed, landed) = consume_once(5, id, Some(b"x".to_vec()));
        assert!(matches!(&consumed, Consumed::Executed(r) if r.as_slice() == b"x"));
        let base = &toy(&sim, NodeId(0)).base;
        let cached = base.sessions.get(ClientId(0));
        assert!(matches!(cached, Some((OpNumber(1), r)) if r.as_slice() == b"x"));
        assert_eq!(base.exec_log(), [ExecRecord::at_epoch(5, id, true, 0)]);
        assert!(landed >= ms(5), "the execution is charged first");
    }

    #[test]
    fn a_staying_member_pushes_the_boundary_checkpoint_at_the_joiner() {
        let (mut sim, nodes) = cluster(4, 3);
        let client = *nodes.last().expect("client node");
        act(&mut sim, nodes[0], |r, ctx| {
            let join = ReconfigCommand::Join(ReplicaId(3));
            r.base.next_exec = SeqNumber(8);
            assert!(r.base.switch_epoch(ctx, &join));
        });
        sim.run_for(Duration::from_millis(10));
        let pushed = &toy(&sim, nodes[3]).seen;
        assert!(matches!(
            &pushed[..],
            [(_, _, Toy::Checkpoint(cp))]
                if cp.next_exec() == SeqNumber(8)
                    && cp.decode().membership.is_some_and(|m| m.contains(ReplicaId(3)))
        ));
        assert!(matches!(
            &toy(&sim, client).seen[..],
            [(_, _, Toy::MembershipUpdate(_))]
        ));
    }

    /// Turns on the WAL at `nodes` and gives replica 0 sessions with
    /// replies of several lengths, frontier 8.
    fn durable_sender(sim: &mut Simulation<Toy>, nodes: &[NodeId]) {
        for &node in nodes {
            let replica = sim.node_as_mut::<ToyReplica>(node).expect("toy replica");
            replica.base.set_persistence(PersistMode::Wal);
        }
        let sender = sim
            .node_as_mut::<ToyReplica>(nodes[0])
            .expect("toy replica");
        for (client, reply) in [(0, &b""[..]), (3, b"ok"), (9, &[7; 200])] {
            let result = ResultBytes::from_slice(reply);
            sender
                .base
                .sessions
                .record(ClientId(client), OpNumber(2), result);
        }
        sender.base.next_exec = SeqNumber(8);
    }

    /// Installs at `node` the one checkpoint it received.
    fn install_received(sim: &mut Simulation<Toy>, node: NodeId) {
        let received: Vec<CheckpointData> = toy(sim, node)
            .seen
            .iter()
            .filter_map(|(.., m)| match m {
                Toy::Checkpoint(cp) => Some(cp.clone()),
                _ => None,
            })
            .collect();
        let [data] = &received[..] else {
            panic!("{} checkpoints received", received.len());
        };
        let data = data.clone();
        act(sim, node, move |r, ctx| {
            assert!(r.base.install_checkpoint(ctx, data));
        });
    }

    fn newest_record(sim: &Simulation<Toy>, node: NodeId) -> Vec<u8> {
        let records = sim.disk(node).records();
        records.last().expect("a record on the disk").clone()
    }

    #[test]
    fn an_answered_request_lands_byte_for_byte_on_the_requesters_disk() {
        let (mut sim, nodes) = cluster(3, 3);
        durable_sender(&mut sim, &nodes[..2]);
        let requester = nodes[1];
        act(&mut sim, nodes[0], move |r, ctx| {
            r.base.handle_checkpoint_request(ctx, requester)
        });
        sim.run_for(Duration::from_millis(10));
        install_received(&mut sim, requester);
        assert_eq!(
            newest_record(&sim, requester),
            newest_record(&sim, nodes[0])
        );
        let base = &toy(&sim, requester).base;
        assert_eq!(base.next_exec(), SeqNumber(8));
        let cached = base.sessions.get(ClientId(9));
        assert!(matches!(cached, Some((OpNumber(2), r)) if r.as_slice() == [7; 200]));
    }

    #[test]
    fn a_pushed_checkpoint_lands_byte_for_byte_on_the_joiners_disk() {
        let (mut sim, nodes) = cluster(4, 3);
        durable_sender(&mut sim, &[nodes[0], nodes[3]]);
        act(&mut sim, nodes[0], |r, ctx| {
            assert!(r
                .base
                .switch_epoch(ctx, &ReconfigCommand::Join(ReplicaId(3))));
        });
        sim.run_for(Duration::from_millis(10));
        install_received(&mut sim, nodes[3]);
        assert_eq!(newest_record(&sim, nodes[3]), newest_record(&sim, nodes[0]));
        let joiner = &toy(&sim, nodes[3]).base;
        assert!(joiner.is_member());
        assert_eq!(joiner.membership(), toy(&sim, nodes[0]).base.membership());
    }

    #[test]
    fn checkpoint_wire_size_counts_snapshot_rows_and_membership() {
        let mut joined = Membership::bootstrap(3);
        joined.apply(&ReconfigCommand::Join(ReplicaId(3)));
        let many: Vec<(u32, u64, Vec<u8>)> = (0..50)
            .map(|c| (c * 3, u64::from(c) + 1, vec![1; c as usize]))
            .collect();
        for membership in [Membership::bootstrap(3), joined] {
            for rows in [&many[..0], &many[..1], &many[..]] {
                let snapshot = [5; 37];
                let iter = rows.iter().map(|(c, op, r)| (*c, *op, &r[..]));
                let data = CheckpointData::new(SeqNumber(4), &snapshot, iter, &membership);
                let replies: usize = rows.iter().map(|(.., r)| 12 + r.len()).sum();
                let formula = 8 + snapshot.len() + replies + membership.wire_size();
                assert_eq!(data.wire_size(), formula, "{} rows", rows.len());
            }
        }
    }
}
