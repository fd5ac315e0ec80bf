//! The simulation runner.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arena::MessageArena;
use crate::disk::{Disk, DiskLatency};
use crate::event::{Event, EventKind, EventQueue, Payload};
use crate::net::Network;
use crate::node::{Context, Node, NodeId, TimerId};
use crate::time::SimTime;
use crate::trace::{TraceBuffer, TraceEventKind};
use crate::traffic::Traffic;
use crate::wheel::TimerTable;
use crate::wire::{Wire, HEADER_BYTES};

/// Per-run breakdown of scheduler activity: how many events of each kind
/// were dispatched and how deep the event queue ever got. Collected for
/// free on the hot path (plain counter bumps) and surfaced per experiment
/// cell so performance work can see *what* a workload is made of.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventStats {
    /// Message deliveries dispatched.
    pub delivers: u64,
    /// Timers that fired live (cancelled timers are not counted).
    pub timers: u64,
    /// Always 0: no backlog wake-up travels through the global queue.
    /// Kept only because the repository benchmark builds this struct
    /// field by field; it goes with the `multicast_batches` rename.
    pub wakes: u64,
    /// Backlog drains: each one ran inline at its reserved slot or was
    /// dispatched from the wake lane.
    pub inline_wakes: u64,
    /// Crash and recovery control events dispatched.
    pub crashes: u64,
    /// The largest number of events that were ever pending at once.
    pub queue_high_water: u64,
    /// Message bodies routed through the slab arena (one per unicast or
    /// multicast, not per recipient).
    pub arena_messages: u64,
    /// The most message bodies ever in flight at once — the arena's
    /// steady-state footprint in slots.
    pub arena_high_water: u64,
    /// Multicasts that had two or more surviving recipients at send time:
    /// the sends whose one arena body is shared by several queue entries.
    /// (Named for the batched delivery path that was measured and removed;
    /// the benchmark ledger still reads this field.)
    pub multicast_batches: u64,
    /// Recipients of those multicasts, counted at send time.
    pub batched_deliveries: u64,
}

impl EventStats {
    /// Accumulates another run's stats into this one (high-water marks take
    /// the max, counters add).
    pub fn merge(&mut self, other: &EventStats) {
        self.delivers += other.delivers;
        self.timers += other.timers;
        self.wakes += other.wakes;
        self.inline_wakes += other.inline_wakes;
        self.crashes += other.crashes;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.arena_messages += other.arena_messages;
        self.arena_high_water = self.arena_high_water.max(other.arena_high_water);
        self.multicast_batches += other.multicast_batches;
        self.batched_deliveries += other.batched_deliveries;
    }
}

/// Work deferred while a node's processor was busy, kept in a per-node
/// FIFO. Without this, deferred events would be re-pushed into the global
/// heap once per processing step, degenerating to O(K²) heap churn under
/// backlog.
///
/// Both variants are handles: message bodies stay in the arena and timer
/// payloads in the timer table until the moment the handler runs, so a
/// backlog move shuffles a few machine words regardless of message size.
#[derive(Debug)]
enum Deferred<M> {
    Msg { from: NodeId, msg: Payload<M> },
    Timer { id: TimerId },
}

/// Initial capacity of each node's backlog FIFO: covers the common bursts
/// without reallocation while staying negligible per node.
const BACKLOG_CAPACITY: usize = 16;

/// Minimum event-heap capacity reserved when the simulation starts.
const MIN_QUEUE_CAPACITY: usize = 256;

/// Reserved event-heap slots per node at start: each node typically keeps a
/// few in-flight messages/timers plus a wake-up pending.
const QUEUE_CAPACITY_PER_NODE: usize = 8;

/// Scheduling state of a node's backlog wake-up.
///
/// The moment a wake becomes necessary — work is parked behind a busy
/// processor — the scheduler reserves its `(time, seq)` slot in the
/// global order, taking a seq from the one counter every event draws
/// from. The reservation is what fixes the drain's place among
/// simultaneous events, so `(time, seq)` tie-breaks, RNG draws and every
/// committed CSV depend on *when* a wake is armed, never on how it is
/// later dispatched. While the reserved slot precedes every pending
/// event, the drain runs *inline* (run-to-completion); only when some
/// other event comes first, or the run limit intervenes, does the wake
/// park in the wake lane, still carrying its reserved seq.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeState {
    /// No drain is pending.
    Idle,
    /// A drain is due at `at` with reserved global-order slot `seq`, but
    /// it is not in the wake lane yet. Only exists transiently within a
    /// dispatch: [`Simulation::settle_wake`] always resolves it to `Idle`
    /// (ran inline) or `Queued` before control returns to the event loop.
    Armed { at: SimTime, seq: u64 },
    /// The wake sits in the wake lane, carrying the reserved seq.
    Queued,
}

#[derive(Debug)]
struct NodeState<M> {
    busy_until: SimTime,
    crashed: bool,
    backlog: std::collections::VecDeque<Deferred<M>>,
    wake: WakeState,
    /// Multiplier applied to every [`Context::charge`] on this node: 1.0 is
    /// nominal speed, 4.0 models a 4× slower (degraded) CPU.
    cpu_factor: f64,
    /// Incarnation counter, bumped by every wipe. Timer events carry the
    /// epoch that armed them, so a rebuilt node never receives timers of
    /// its wiped predecessor.
    epoch: u64,
}

impl<M> Default for NodeState<M> {
    fn default() -> NodeState<M> {
        NodeState {
            busy_until: SimTime::ZERO,
            crashed: false,
            backlog: std::collections::VecDeque::with_capacity(BACKLOG_CAPACITY),
            wake: WakeState::Idle,
            cpu_factor: 1.0,
            epoch: 0,
        }
    }
}

/// The simulator internals shared with [`Context`]. Not part of the public
/// API.
pub struct Core<M> {
    pub(crate) now: SimTime,
    pub(crate) rng: SmallRng,
    pub(crate) net: Network,
    queue: EventQueue<M>,
    seq: u64,
    states: Vec<NodeState<M>>,
    traffic: Traffic,
    /// Per-node timer tables. Timer ids are only meaningful together with
    /// the node that armed them.
    timers: Vec<TimerTable<M>>,
    arena: MessageArena<M>,
    /// Reusable buffer of one multicast's surviving `(time, seq, to)`
    /// deliveries; taken and restored around the target loop so the steady
    /// state never allocates one.
    mcast_scratch: Vec<(SimTime, u64, NodeId)>,
    events_processed: u64,
    stats: EventStats,
    trace: Option<TraceBuffer>,
    disks: Vec<Disk>,
    disk_latency: DiskLatency,
}

impl<M> Core<M> {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, delay: Duration, msg: M) -> TimerId {
        let id = self.timers[node.index()].arm(msg);
        let seq = self.next_seq();
        let epoch = self.states[node.index()].epoch;
        self.queue.push(Event {
            time: self.now + delay,
            seq,
            kind: EventKind::Timer { node, id, epoch },
        });
        id
    }

    pub(crate) fn cancel_timer(&mut self, node: NodeId, id: TimerId) {
        // O(1): bumps the slot's generation, freeing the payload at once and
        // turning the queue entry (and any stale handle) into a no-op.
        self.timers[node.index()].cancel(id);
    }

    /// Clears a node's backlog, releasing the timer-table slots of deferred
    /// timers and the arena references of deferred messages so crashed work
    /// does not leak them.
    fn clear_backlog(&mut self, nid: NodeId) {
        let state = &mut self.states[nid.index()];
        for work in state.backlog.drain(..) {
            match work {
                Deferred::Timer { id } => {
                    self.timers[nid.index()].cancel(id);
                }
                Deferred::Msg { msg, .. } => msg.release(&mut self.arena),
            }
        }
    }

    pub(crate) fn charge(&mut self, node: NodeId, cpu: Duration) {
        let state = &mut self.states[node.index()];
        // The guard keeps the nominal path exact: mul_f64 round-trips
        // through f64 and could perturb nanosecond-precise schedules.
        let cpu = if state.cpu_factor == 1.0 {
            cpu
        } else {
            cpu.mul_f64(state.cpu_factor)
        };
        state.busy_until = state.busy_until.max(self.now) + cpu;
    }

    pub(crate) fn disk_append(&mut self, node: NodeId, record: Vec<u8>) -> usize {
        let latency = self.disk_latency.append;
        if !latency.is_zero() {
            self.charge(node, latency);
        }
        self.disks[node.index()].append(record)
    }

    pub(crate) fn disk_fsync(&mut self, node: NodeId) {
        let latency = self.disk_latency.fsync;
        if !latency.is_zero() {
            self.charge(node, latency);
        }
        self.disks[node.index()].fsync();
    }

    pub(crate) fn disk(&self, node: NodeId) -> &Disk {
        &self.disks[node.index()]
    }

    pub(crate) fn disk_mut(&mut self, node: NodeId) -> &mut Disk {
        &mut self.disks[node.index()]
    }
}

impl<M: Wire> Core<M> {
    /// Records traffic and the trace entry for one transmission and returns
    /// the sampled link delay (`None` = lost or blocked).
    fn transmit(&mut self, from: NodeId, to: NodeId, bytes: usize) -> Option<Duration> {
        if from != to {
            // Self-sends bypass the NIC and are not traffic.
            self.traffic.record(from, to, bytes);
        }
        let delay = self.net.sample(&mut self.rng, from, to);
        if let Some(trace) = &mut self.trace {
            trace.push(
                self.now,
                TraceEventKind::Send {
                    from,
                    to,
                    bytes: bytes.min(u32::MAX as usize) as u32,
                    lost: delay.is_none(),
                },
            );
        }
        delay
    }

    pub(crate) fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        // Messages depart once the sender's charged CPU work is done.
        let departure = self.states[from.index()].busy_until.max(self.now);
        let bytes = msg.wire_size() + HEADER_BYTES;
        let Some(delay) = self.transmit(from, to, bytes) else {
            return; // lost or blocked
        };
        let seq = self.next_seq();
        self.stats.arena_messages += 1;
        let msg = Payload::Unique(self.arena.insert(msg, 1));
        self.queue.push(Event {
            time: departure + delay,
            seq,
            kind: EventKind::Deliver { to, from, msg },
        });
    }

    /// Sends one message body to many recipients, storing it once in the
    /// arena instead of cloning it per recipient. Per-link traffic
    /// accounting, loss sampling, seq reservation and hence delivery order
    /// are identical to calling [`send`](Core::send) once per target; only
    /// the payload copies are elided (the last delivery moves the body out,
    /// and copies to crashed or unreachable nodes are never cloned).
    pub(crate) fn multicast(
        &mut self,
        from: NodeId,
        targets: impl IntoIterator<Item = NodeId>,
        msg: M,
    ) where
        M: Clone,
    {
        let departure = self.states[from.index()].busy_until.max(self.now);
        let bytes = msg.wire_size() + HEADER_BYTES;
        // The arena wants the survivor count before the first entry is
        // filed, so the survivors wait in the scratch buffer.
        let mut survivors = mem::take(&mut self.mcast_scratch);
        survivors.clear();
        for to in targets {
            let Some(delay) = self.transmit(from, to, bytes) else {
                continue; // lost or blocked
            };
            survivors.push((departure + delay, self.next_seq(), to));
        }
        if !survivors.is_empty() {
            let n = survivors.len();
            if n > 1 {
                self.stats.multicast_batches += 1;
                self.stats.batched_deliveries += n as u64;
            }
            self.stats.arena_messages += 1;
            let id = self.arena.insert(msg, n as u32);
            let clone: fn(&M) -> M = <M as Clone>::clone;
            for &(time, seq, to) in &survivors {
                self.queue.push(Event {
                    time,
                    seq,
                    kind: EventKind::Deliver {
                        to,
                        from,
                        msg: Payload::Shared { id, clone },
                    },
                });
            }
        }
        self.mcast_scratch = survivors;
    }
}

/// Builds a fresh, state-less instance of a node — the "process image"
/// restarted after an amnesia wipe (see [`Simulation::set_node_factory`]).
pub type NodeFactory<M> = Box<dyn FnMut() -> Box<dyn Node<M>>>;

/// A deterministic discrete-event simulation over message type `M`.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulation<M> {
    core: Core<M>,
    nodes: Vec<Option<Box<dyn Node<M>>>>,
    /// Per-node rebuild factories for the wipe crash mode; `None` means
    /// the node cannot be wiped.
    factories: Vec<Option<NodeFactory<M>>>,
    started: bool,
    /// Materialized wake-ups, kept out of the timing wheel: a tiny
    /// min-heap over `(time, seq, node)`, merged with the global queue in
    /// `(time, seq)` order by the run loop. Its population is bounded by
    /// the number of simultaneously backlogged nodes, so its heap ops are
    /// effectively O(1) — under saturation this is what spares the wheel
    /// millions of per-message wake round-trips.
    wake_lane: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// High-water mark of the *combined* pending-event population
    /// (queue + wake lane), sampled at wake-lane pushes; the queue tracks
    /// its own lane internally.
    wake_high_water: usize,
}

impl<M: Wire + 'static> Simulation<M> {
    /// Creates an empty simulation with the default [`Network`] and the
    /// given RNG seed. The same seed always reproduces the same run.
    pub fn new(seed: u64) -> Simulation<M> {
        Simulation::with_network(seed, Network::default())
    }

    /// Creates an empty simulation with an explicit network model.
    pub fn with_network(seed: u64, net: Network) -> Simulation<M> {
        Simulation {
            core: Core {
                now: SimTime::ZERO,
                rng: SmallRng::seed_from_u64(seed),
                net,
                queue: EventQueue::default(),
                seq: 0,
                states: Vec::new(),
                traffic: Traffic::new(),
                timers: Vec::new(),
                arena: MessageArena::new(),
                mcast_scratch: Vec::new(),
                events_processed: 0,
                stats: EventStats::default(),
                trace: None,
                disks: Vec::new(),
                disk_latency: DiskLatency::default(),
            },
            nodes: Vec::new(),
            factories: Vec::new(),
            started: false,
            wake_lane: BinaryHeap::new(),
            wake_high_water: 0,
        }
    }

    /// Registers a node and returns its id. If the simulation has already
    /// started, the node's [`Node::on_start`] runs immediately at the
    /// current virtual time.
    pub fn add_node(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = self.reserve_node();
        self.install_node(id, node);
        id
    }

    /// Reserves a node id without providing the node yet. This allows
    /// address books to be built before the nodes that need them are
    /// constructed. The node must be supplied via
    /// [`install_node`](Self::install_node) before the simulation runs.
    pub fn reserve_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(None);
        self.factories.push(None);
        self.core.states.push(NodeState::default());
        self.core.disks.push(Disk::new());
        self.core.timers.push(TimerTable::new());
        id
    }

    /// Installs a node into a slot previously created with
    /// [`reserve_node`](Self::reserve_node). If the simulation has already
    /// started, the node's [`Node::on_start`] runs immediately.
    ///
    /// # Panics
    /// Panics if the slot is already occupied.
    pub fn install_node(&mut self, id: NodeId, node: Box<dyn Node<M>>) {
        let slot = &mut self.nodes[id.index()];
        assert!(slot.is_none(), "node {id} already installed");
        *slot = Some(node);
        if self.started {
            self.start_node(id);
        }
    }

    fn start_node(&mut self, id: NodeId) {
        let mut node = self.nodes[id.index()].take().expect("node present");
        let mut ctx = Context::new(&mut self.core, id);
        node.on_start(&mut ctx);
        self.nodes[id.index()] = Some(node);
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Pre-size the event heap for the steady-state event population so
        // the hot loop never reallocates it.
        self.core
            .queue
            .reserve((self.nodes.len() * QUEUE_CAPACITY_PER_NODE).max(MIN_QUEUE_CAPACITY));
        for i in 0..self.nodes.len() {
            self.start_node(NodeId(i as u32));
        }
    }

    /// Runs the simulation until virtual time `limit`, processing every
    /// event scheduled at or before it. Afterwards [`Simulation::now`]
    /// equals `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        self.ensure_started();
        while self.step_before(limit) {}
        self.core.now = self.core.now.max(limit);
    }

    /// Dispatches the earliest pending event or materialized wake-up
    /// scheduled at or before `limit`, leaving [`Core::now`] at its time.
    /// Returns `false` (and does nothing) once none is left.
    #[inline]
    fn step_before(&mut self, limit: SimTime) -> bool {
        // Merge the wake lane with the global queue in (time, seq) order.
        // The common case — no materialized wake pending — falls straight
        // through to a plain queue pop.
        if let Some(&Reverse((wt, ws, nid))) = self.wake_lane.peek() {
            // Peek no further than the wake: anything later loses the
            // comparison anyway, and a bounded peek keeps the wheel's
            // horizon from racing ahead of far-future timers.
            let queue_first = match self.core.queue.next_event_before(wt) {
                Some((qt, qs)) => (qt, qs) < (wt, ws),
                None => false,
            };
            if !queue_first {
                if wt > limit {
                    return false;
                }
                self.wake_lane.pop();
                self.dispatch_lane_wake(NodeId(nid), wt, limit);
                return true;
            }
        }
        match self.core.queue.pop_before(limit) {
            Some(ev) => {
                self.dispatch(ev, limit);
                true
            }
            None => false,
        }
    }

    /// Runs the simulation for `d` of virtual time from the current time.
    pub fn run_for(&mut self, d: Duration) {
        let limit = self.core.now + d;
        self.run_until(limit);
    }

    /// Processes the single earliest pending event, if any. Returns whether
    /// an event was processed. Useful for fine-grained tests. A step may
    /// additionally drain backlog work the event unlocked — exactly the
    /// items that would have run before the next queued event anyway.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.step_before(SimTime::from_nanos(u64::MAX))
    }

    /// Runs one unit of deferred or fresh work on `nid` at the current
    /// virtual time.
    fn process(&mut self, nid: NodeId, work: Deferred<M>) {
        self.core.events_processed += 1;
        match work {
            Deferred::Msg { from, msg } => {
                // Materialize from the arena only now, at the handler
                // boundary: while the delivery was queued it was a handle.
                let msg = msg.into_message(&mut self.core.arena);
                if let Some(trace) = &mut self.core.trace {
                    trace.push(self.core.now, TraceEventKind::Deliver { from, to: nid });
                }
                let mut node = self.nodes[nid.index()].take().expect("node present");
                let mut ctx = Context::new(&mut self.core, nid);
                node.on_message(&mut ctx, from, msg);
                self.nodes[nid.index()] = Some(node);
            }
            Deferred::Timer { id } => {
                // The timer may have been cancelled while it sat in the
                // backlog; consuming the slot tells us, in O(1), and takes
                // the payload the table held onto in the meantime.
                let Some(msg) = self.core.timers[nid.index()].consume(id) else {
                    return;
                };
                if let Some(trace) = &mut self.core.trace {
                    trace.push(self.core.now, TraceEventKind::TimerFired { node: nid });
                }
                let mut node = self.nodes[nid.index()].take().expect("node present");
                let mut ctx = Context::new(&mut self.core, nid);
                node.on_timer(&mut ctx, id, msg);
                self.nodes[nid.index()] = Some(node);
            }
        }
    }

    /// Hands `work` to `nid`: runs it immediately if the node's processor
    /// is free, otherwise appends it to the node's FIFO backlog and
    /// reserves a wake-up slot. The caller must follow up with
    /// [`settle_wake`](Self::settle_wake) before returning to the event
    /// loop, so the reserved slot is either drained inline or parked in
    /// the wake lane.
    fn offer(&mut self, nid: NodeId, work: Deferred<M>, at: SimTime) {
        let state = &mut self.core.states[nid.index()];
        if state.crashed {
            match work {
                Deferred::Timer { id } => {
                    self.core.timers[nid.index()].cancel(id);
                }
                Deferred::Msg { msg, .. } => msg.release(&mut self.core.arena),
            }
            return;
        }
        if state.busy_until > at || !state.backlog.is_empty() {
            state.backlog.push_back(work);
            if state.wake == WakeState::Idle {
                let wake_at = state.busy_until.max(at);
                let seq = self.core.next_seq();
                self.core.states[nid.index()].wake = WakeState::Armed { at: wake_at, seq };
            }
            return;
        }
        self.core.now = at;
        self.process(nid, work);
    }

    /// Drains as much of `nid`'s backlog as fits before the processor goes
    /// busy again, then reserves a fresh wake-up slot if work remains.
    fn drain_backlog(&mut self, nid: NodeId, at: SimTime) {
        self.core.states[nid.index()].wake = WakeState::Idle;
        loop {
            let state = &mut self.core.states[nid.index()];
            if state.crashed {
                self.core.clear_backlog(nid);
                return;
            }
            if state.busy_until > at {
                break;
            }
            let Some(work) = state.backlog.pop_front() else {
                return;
            };
            self.core.now = at;
            self.process(nid, work);
        }
        // Work remains but the processor is busy: wake again when free.
        let state = &mut self.core.states[nid.index()];
        if !state.backlog.is_empty() && state.wake == WakeState::Idle {
            let wake_at = state.busy_until;
            let seq = self.core.next_seq();
            self.core.states[nid.index()].wake = WakeState::Armed { at: wake_at, seq };
        }
    }

    /// Resolves `nid`'s reserved wake slot before control returns to the
    /// event loop: as long as the slot's `(time, seq)` strictly precedes
    /// every other pending event — queued or in the wake lane — and does
    /// not overrun `limit`, the drain runs inline, at exactly its reserved
    /// place in the global `(time, seq)` order. Otherwise the wake parks
    /// in the wake lane (never the timing wheel), carrying the reserved
    /// seq, and the run loop dispatches it at that same place. Each inline
    /// drain may reserve a fresh slot, hence the loop: under saturation a
    /// node runs to completion against the horizon with no queue
    /// round-trips at all.
    fn settle_wake(&mut self, nid: NodeId, limit: SimTime) {
        while let WakeState::Armed { at, seq } = self.core.states[nid.index()].wake {
            let lane_first = match self.wake_lane.peek() {
                Some(&Reverse((wt, ws, _))) => (wt, ws) < (at, seq),
                None => false,
            };
            // Bounded peek: an event after `at` can't beat the wake, and
            // peeking past it would drag the wheel's horizon up to distant
            // timers, degenerating the wheel into a plain binary heap.
            let queue_first = match self.core.queue.next_event_before(at) {
                Some((t, s)) => (t, s) < (at, seq),
                None => false,
            };
            if lane_first || queue_first || at > limit {
                self.core.states[nid.index()].wake = WakeState::Queued;
                self.wake_lane.push(Reverse((at, seq, nid.0)));
                let pending = self.core.queue.len() + self.wake_lane.len();
                self.wake_high_water = self.wake_high_water.max(pending);
                return;
            }
            self.core.stats.inline_wakes += 1;
            self.core.now = at;
            self.drain_backlog(nid, at);
        }
    }

    /// Dispatches a wake-up popped from the wake lane, counted under
    /// [`EventStats::inline_wakes`] like a drain that ran inline.
    fn dispatch_lane_wake(&mut self, nid: NodeId, at: SimTime, limit: SimTime) {
        debug_assert!(at >= self.core.now, "time must not move backwards");
        self.core.now = at;
        self.core.stats.inline_wakes += 1;
        self.drain_backlog(nid, at);
        self.settle_wake(nid, limit);
    }

    fn dispatch(&mut self, ev: Event<M>, limit: SimTime) {
        debug_assert!(ev.time >= self.core.now, "time must not move backwards");
        self.core.now = ev.time;
        match ev.kind {
            EventKind::Deliver { to, from, msg } => {
                self.core.stats.delivers += 1;
                self.offer(to, Deferred::Msg { from, msg }, ev.time);
                self.settle_wake(to, limit);
            }
            EventKind::Timer {
                node: nid,
                id,
                epoch,
            } => {
                // The liveness probe doubles as the staleness check: a
                // cancelled timer's slot was re-stamped, so this entry
                // drops in O(1) — no tombstone set to consult. The payload
                // stays in the table until the handler runs.
                if !self.core.timers[nid.index()].is_live(id) {
                    return;
                }
                // Timers armed by a wiped incarnation must never reach the
                // rebuilt node: free the payload and settle the slot.
                if self.core.states[nid.index()].epoch != epoch {
                    self.core.timers[nid.index()].cancel(id);
                    return;
                }
                self.core.stats.timers += 1;
                self.offer(nid, Deferred::Timer { id }, ev.time);
                self.settle_wake(nid, limit);
            }
            EventKind::Crash { node: nid } => {
                self.core.stats.crashes += 1;
                let state = &mut self.core.states[nid.index()];
                if !state.crashed {
                    state.crashed = true;
                    self.core.clear_backlog(nid);
                    if let Some(trace) = &mut self.core.trace {
                        trace.push(ev.time, TraceEventKind::Crash { node: nid });
                    }
                    if let Some(node) = self.nodes[nid.index()].as_mut() {
                        node.on_crash(ev.time);
                    }
                }
            }
            EventKind::Recover { node: nid } => {
                self.core.stats.crashes += 1;
                self.do_recover(nid);
            }
        }
    }

    /// Brings a crashed node back at the current virtual time (no-op if the
    /// node is up). Memory is intact (crash-recovery model); everything the
    /// simulator had in flight for the node — messages and timers alike —
    /// was dropped while it was down, so [`Node::on_recover`] runs to let
    /// the node re-arm timers and catch up.
    fn do_recover(&mut self, nid: NodeId) {
        let state = &mut self.core.states[nid.index()];
        if !state.crashed {
            return;
        }
        state.crashed = false;
        state.busy_until = self.core.now;
        // A wake the old incarnation parked in the wake lane stays there,
        // stale. When it pops it drains whatever backlog is due by then
        // (never work whose processor is still busy), and a wake that
        // drain arms takes a seq, so dropping the stale one would move
        // seqs.
        state.wake = WakeState::Idle;
        self.core.clear_backlog(nid);
        if let Some(trace) = &mut self.core.trace {
            trace.push(self.core.now, TraceEventKind::Recover { node: nid });
        }
        let mut node = self.nodes[nid.index()].take().expect("node present");
        let mut ctx = Context::new(&mut self.core, nid);
        node.on_recover(&mut ctx);
        self.nodes[nid.index()] = Some(node);
    }

    /// Injects `msg` for delivery to `node` at the current virtual time,
    /// bypassing the network entirely: no traffic accounting, no loss or
    /// partition sampling, no link delay. This is the external-driver
    /// hook — fault campaigns use it to feed control commands (e.g.
    /// membership reconfiguration) into a cluster at exact virtual times
    /// between `run_until` windows, without modelling an extra client
    /// node. Delivery is an ordinary queued event, so it respects the
    /// target's crash state and processor backlog like any real message.
    pub fn post(&mut self, node: NodeId, msg: M) {
        let seq = self.core.next_seq();
        self.core.stats.arena_messages += 1;
        let msg = Payload::Unique(self.core.arena.insert(msg, 1));
        self.core.queue.push(Event {
            time: self.core.now,
            seq,
            kind: EventKind::Deliver {
                to: node,
                from: node,
                msg,
            },
        });
    }

    /// Schedules a crash of `node` at absolute virtual time `at`. Crashed
    /// nodes stop receiving events; messages sent to them vanish.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        let seq = self.core.next_seq();
        self.core.queue.push(Event {
            time: at,
            seq,
            kind: EventKind::Crash { node },
        });
    }

    /// Crashes `node` immediately.
    pub fn crash_now(&mut self, node: NodeId) {
        let now = self.core.now;
        let state = &mut self.core.states[node.index()];
        if !state.crashed {
            state.crashed = true;
            self.core.clear_backlog(node);
            if let Some(n) = self.nodes[node.index()].as_mut() {
                n.on_crash(now);
            }
        }
    }

    /// Schedules a recovery of `node` at absolute virtual time `at`.
    /// Recovering a node that is up at that time is a no-op. Timers that
    /// fired while the node was down are lost, not replayed; see
    /// [`Node::on_recover`].
    pub fn schedule_recovery(&mut self, node: NodeId, at: SimTime) {
        let seq = self.core.next_seq();
        self.core.queue.push(Event {
            time: at,
            seq,
            kind: EventKind::Recover { node },
        });
    }

    /// Recovers `node` immediately (no-op if it is up).
    pub fn recover_now(&mut self, node: NodeId) {
        self.do_recover(node);
    }

    /// Registers the factory that rebuilds `node` after a wipe. A node
    /// without a factory cannot be wiped (the amnesia crash mode needs a
    /// fresh object to reboot into).
    pub fn set_node_factory(&mut self, node: NodeId, factory: NodeFactory<M>) {
        self.factories[node.index()] = Some(factory);
    }

    /// Wipe-crashes `node` immediately: the node loses *all* volatile
    /// state — its object is discarded and rebuilt via the factory
    /// registered with [`set_node_factory`](Self::set_node_factory) — and
    /// reboots at the current virtual time. Its [`Disk`] survives; with
    /// `truncate_to_synced`, records above the last fsync barrier are
    /// destroyed first (power-loss semantics). Timers armed by the wiped
    /// incarnation never fire on the rebuilt one, in-flight messages and
    /// backlog are dropped, and the fresh node's
    /// [`Node::on_recover`] runs so it can replay its disk and rejoin.
    ///
    /// # Panics
    /// Panics if no factory is registered for `node`.
    pub fn wipe_now(&mut self, node: NodeId, truncate_to_synced: bool) {
        let factory = self.factories[node.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no node factory registered for {node}; cannot wipe"));
        let fresh = factory();
        self.core.stats.crashes += 1;
        self.core.clear_backlog(node);
        let state = &mut self.core.states[node.index()];
        state.crashed = false;
        state.busy_until = self.core.now;
        // As in `do_recover`: a wake left in the lane stays there, stale.
        state.wake = WakeState::Idle;
        state.epoch += 1;
        if truncate_to_synced {
            self.core.disks[node.index()].truncate_to_synced();
        }
        if let Some(trace) = &mut self.core.trace {
            trace.push(self.core.now, TraceEventKind::Wipe { node });
        }
        self.nodes[node.index()] = Some(fresh);
        if self.started {
            let mut rebooted = self.nodes[node.index()].take().expect("node present");
            let mut ctx = Context::new(&mut self.core, node);
            rebooted.on_recover(&mut ctx);
            self.nodes[node.index()] = Some(rebooted);
        }
    }

    /// Sets the simulation-wide disk I/O latency model. The default is
    /// zero, which makes disk operations free of CPU charges.
    pub fn set_disk_latency(&mut self, latency: DiskLatency) {
        self.core.disk_latency = latency;
    }

    /// Read access to `node`'s stable-storage device.
    pub fn disk(&self, node: NodeId) -> &Disk {
        self.core.disk(node)
    }

    /// Write access to `node`'s stable-storage device, for fault
    /// injection (see [`Disk::tear`]).
    pub fn disk_mut(&mut self, node: NodeId) -> &mut Disk {
        self.core.disk_mut(node)
    }

    /// Sets the CPU speed degradation factor of `node`: every subsequent
    /// [`Context::charge`] is multiplied by `factor` (1.0 = nominal speed,
    /// 4.0 = four times slower). Work already charged keeps its old cost.
    pub fn set_cpu_factor(&mut self, node: NodeId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "cpu factor must be positive and finite"
        );
        self.core.states[node.index()].cpu_factor = factor;
    }

    /// Whether `node` has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.core.states[node.index()].crashed
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of events processed so far (delivery + timer dispatches).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Number of queue entries still pending (global queue plus
    /// materialized wake-ups in the wake lane); zero means fully quiescent.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len() + self.wake_lane.len()
    }

    /// Number of timers currently armed (including fired-but-unprocessed
    /// ones still deferred behind busy nodes).
    pub fn pending_timers(&self) -> usize {
        self.core.timers.iter().map(|t| t.live()).sum()
    }

    /// Per-kind breakdown of dispatched events and the queue's high-water
    /// mark so far.
    pub fn event_stats(&self) -> EventStats {
        EventStats {
            queue_high_water: self.core.queue.high_water().max(self.wake_high_water) as u64,
            arena_messages: self.core.arena.inserted(),
            arena_high_water: self.core.arena.high_water() as u64,
            ..self.core.stats
        }
    }

    /// Message bodies currently parked in the slab arena (in-flight or
    /// deferred behind busy nodes). Zero at quiescence: a nonzero value
    /// after a drained run would mean a delivery path leaked its arena
    /// reference.
    pub fn pending_messages(&self) -> usize {
        self.core.arena.live()
    }

    /// Read access to the traffic accounting.
    pub fn traffic(&self) -> &Traffic {
        &self.core.traffic
    }

    /// Enables execution tracing with a ring buffer of the given capacity.
    /// Tracing is observational only: it never changes the run.
    pub fn set_trace(&mut self, capacity: usize) {
        self.core.trace = Some(TraceBuffer::new(capacity));
    }

    /// Read access to the trace buffer, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.core.trace.as_ref()
    }

    /// Removes and returns the trace buffer, disabling tracing.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.core.trace.take()
    }

    /// Read access to the network model.
    pub fn network(&self) -> &Network {
        &self.core.net
    }

    /// Mutable access to the network model, e.g. to inject partitions
    /// between [`run_until`](Self::run_until) calls.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.core.net
    }

    /// Downcasts the node with the given id to its concrete type, for state
    /// inspection after (or between) runs.
    ///
    /// Returns `None` if the node is of a different type.
    ///
    /// # Panics
    /// Panics if `id` is unknown.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        // `as_deref` reaches the `dyn Node` itself: `AsAny` is blanket-
        // implemented for the `Box` too, which would downcast to the box.
        self.nodes[id.index()]
            .as_deref()
            .expect("node present")
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable variant of [`node_as`](Self::node_as).
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id.index()]
            .as_deref_mut()
            .expect("node present")
            .as_any_mut()
            .downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::LinkSpec;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Tick,
    }

    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// Replies to every ping with ping+1 and counts received messages.
    struct Echo {
        received: u32,
        charge: Duration,
    }

    impl Node<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.received += 1;
            if !self.charge.is_zero() {
                ctx.charge(self.charge);
            }
            if let Msg::Ping(n) = msg {
                if n < 10 {
                    ctx.send(from, Msg::Ping(n + 1));
                }
            }
        }
    }

    /// Sends the first ping on start, records reply times.
    struct Starter {
        peer: NodeId,
        reply_times: Vec<SimTime>,
    }

    impl Node<Msg> for Starter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping(0));
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.reply_times.push(ctx.now());
            if let Msg::Ping(n) = msg {
                if n < 10 {
                    ctx.send(from, Msg::Ping(n + 1));
                }
            }
        }
    }

    fn fixed_net(latency_us: u64) -> Network {
        Network::new(LinkSpec::new(
            Duration::from_micros(latency_us),
            Duration::ZERO,
        ))
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        sim.add_node(Box::new(Starter {
            peer: echo,
            reply_times: Vec::new(),
        }));
        sim.run_for(Duration::from_secs(1));
        let echo_node = sim.node_as::<Echo>(echo).unwrap();
        // Pings 0,2,4,6,8,10 hit the echo node.
        assert_eq!(echo_node.received, 6);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn latency_is_applied_per_hop() {
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        let starter = sim.add_node(Box::new(Starter {
            peer: echo,
            reply_times: Vec::new(),
        }));
        sim.run_for(Duration::from_millis(10));
        let s = sim.node_as::<Starter>(starter).unwrap();
        // First reply after 2 hops of 100 µs each.
        assert_eq!(s.reply_times[0], SimTime::from_nanos(200_000));
        assert_eq!(s.reply_times[1], SimTime::from_nanos(400_000));
    }

    #[test]
    fn busy_nodes_queue_events_fifo() {
        // Echo charges 1 ms per message; two pings sent together must be
        // served serially.
        struct DoubleSend {
            peer: NodeId,
        }
        impl Node<Msg> for DoubleSend {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.peer, Msg::Ping(100));
                ctx.send(self.peer, Msg::Ping(200));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::from_millis(1),
        }));
        sim.add_node(Box::new(DoubleSend { peer: echo }));
        sim.run_for(Duration::from_micros(500));
        // After 0.5 ms only the first message has been processed; the
        // second is deferred until the 1 ms charge elapses.
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 1);
        sim.run_for(Duration::from_millis(2));
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 2);
    }

    #[test]
    fn charge_delays_outgoing_messages() {
        // A node that charges 1 ms then sends: the message must arrive at
        // charge + latency.
        struct Worker {
            peer: NodeId,
        }
        impl Node<Msg> for Worker {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.charge(Duration::from_millis(1));
                ctx.send(self.peer, Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        struct Sink {
            arrived: Option<SimTime>,
        }
        impl Node<Msg> for Sink {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.arrived = Some(ctx.now());
            }
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let sink = sim.add_node(Box::new(Sink { arrived: None }));
        sim.add_node(Box::new(Worker { peer: sink }));
        sim.run_for(Duration::from_millis(5));
        assert_eq!(
            sim.node_as::<Sink>(sink).unwrap().arrived,
            Some(SimTime::from_nanos(1_100_000))
        );
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct Timed {
            fired: Vec<SimTime>,
            cancel_second: bool,
        }
        impl Node<Msg> for Timed {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(Duration::from_millis(1), Msg::Tick);
                let second = ctx.set_timer(Duration::from_millis(2), Msg::Tick);
                if self.cancel_second {
                    ctx.cancel_timer(second);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                self.fired.push(ctx.now());
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let id = sim.add_node(Box::new(Timed {
            fired: Vec::new(),
            cancel_second: true,
        }));
        sim.run_for(Duration::from_millis(10));
        let t = sim.node_as::<Timed>(id).unwrap();
        assert_eq!(t.fired, vec![SimTime::from_nanos(1_000_000)]);
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        sim.add_node(Box::new(Starter {
            peer: echo,
            reply_times: Vec::new(),
        }));
        sim.schedule_crash(echo, SimTime::from_nanos(250_000));
        sim.run_for(Duration::from_secs(1));
        // Ping(0) arrives at 100 µs; Ping(2) would arrive at 300 µs, after
        // the 250 µs crash, and is dropped.
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 1);
        assert!(sim.is_crashed(echo));
    }

    #[test]
    fn recovered_nodes_receive_messages_again() {
        // Echo crashes at 250 µs and recovers at 600 µs. The ping-pong died
        // with the crash, so a fresh ping after recovery must get through.
        struct Reping {
            peer: NodeId,
        }
        impl Node<Msg> for Reping {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.peer, Msg::Ping(0));
                ctx.set_timer(Duration::from_micros(700), Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                ctx.send(self.peer, Msg::Ping(100));
            }
        }
        struct Recovering {
            received: u32,
            recoveries: u32,
        }
        impl Node<Msg> for Recovering {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.received += 1;
            }
            fn on_recover(&mut self, _: &mut Context<'_, Msg>) {
                self.recoveries += 1;
            }
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let echo = sim.add_node(Box::new(Recovering {
            received: 0,
            recoveries: 0,
        }));
        sim.add_node(Box::new(Reping { peer: echo }));
        sim.schedule_crash(echo, SimTime::from_nanos(250_000));
        sim.schedule_recovery(echo, SimTime::from_nanos(600_000));
        sim.run_for(Duration::from_secs(1));
        let n = sim.node_as::<Recovering>(echo).unwrap();
        // Ping(0) at 100 µs before the crash; Ping(100) at 800 µs after
        // recovery.
        assert_eq!(n.received, 2);
        assert_eq!(n.recoveries, 1);
        assert!(!sim.is_crashed(echo));
    }

    #[test]
    fn recovery_of_live_node_is_noop() {
        struct Plain {
            recoveries: u32,
        }
        impl Node<Msg> for Plain {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_recover(&mut self, _: &mut Context<'_, Msg>) {
                self.recoveries += 1;
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let id = sim.add_node(Box::new(Plain { recoveries: 0 }));
        sim.schedule_recovery(id, SimTime::from_nanos(1_000));
        sim.run_for(Duration::from_millis(1));
        assert_eq!(sim.node_as::<Plain>(id).unwrap().recoveries, 0);
    }

    #[test]
    fn cpu_factor_slows_processing() {
        // Echo charges 1 ms per message at nominal speed; at factor 3 the
        // reply to a ping departs after 3 ms instead.
        let observe = |factor: Option<f64>| {
            let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
            let echo = sim.add_node(Box::new(Echo {
                received: 0,
                charge: Duration::from_millis(1),
            }));
            let starter = sim.add_node(Box::new(Starter {
                peer: echo,
                reply_times: Vec::new(),
            }));
            if let Some(f) = factor {
                sim.set_cpu_factor(echo, f);
            }
            sim.run_for(Duration::from_millis(8));
            sim.node_as::<Starter>(starter).unwrap().reply_times[0]
        };
        // hop (100 µs) + charge + hop (100 µs)
        assert_eq!(observe(None), SimTime::from_nanos(1_200_000));
        assert_eq!(observe(Some(3.0)), SimTime::from_nanos(3_200_000));
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim: Simulation<Msg> = Simulation::new(seed);
            let echo = sim.add_node(Box::new(Echo {
                received: 0,
                charge: Duration::from_micros(3),
            }));
            sim.add_node(Box::new(Starter {
                peer: echo,
                reply_times: Vec::new(),
            }));
            sim.run_for(Duration::from_secs(1));
            (sim.events_processed(), sim.traffic().total_bytes())
        }
        assert_eq!(run(99), run(99));
        // Different seed ⇒ different jitter draws ⇒ same counts here (the
        // exchange is fixed) but deterministic equality must hold per seed.
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn traffic_counts_headers_and_skips_loopback() {
        struct SelfSender;
        impl Node<Msg> for SelfSender {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let me = ctx.id();
                ctx.send(me, Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        sim.add_node(Box::new(SelfSender));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.traffic().total_bytes(), 0);

        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(1));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        struct One {
            peer: NodeId,
        }
        impl Node<Msg> for One {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.peer, Msg::Ping(100));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        sim.add_node(Box::new(One { peer: echo }));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.traffic().total_bytes(), 4 + HEADER_BYTES as u64);
    }

    #[test]
    fn blocked_links_lose_messages_silently() {
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        let starter = sim.add_node(Box::new(Starter {
            peer: echo,
            reply_times: Vec::new(),
        }));
        sim.network_mut().block(starter, echo);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 0);
    }

    #[test]
    fn multicast_reaches_all_targets() {
        struct Caster {
            targets: Vec<NodeId>,
        }
        impl Node<Msg> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.multicast(self.targets.iter().copied(), Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let a = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        let b = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        sim.add_node(Box::new(Caster {
            targets: vec![a, b],
        }));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.node_as::<Echo>(a).unwrap().received, 1);
        assert_eq!(sim.node_as::<Echo>(b).unwrap().received, 1);
    }

    #[test]
    fn multicast_matches_per_target_sends() {
        // A multicast must be observationally identical to a loop of sends:
        // same delivery counts, same delivery times, same traffic bytes.
        struct Caster {
            targets: Vec<NodeId>,
            looped: bool,
        }
        impl Node<Msg> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if self.looped {
                    for to in self.targets.clone() {
                        ctx.send(to, Msg::Ping(100));
                    }
                } else {
                    ctx.multicast(self.targets.iter().copied(), Msg::Ping(100));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let observe = |looped: bool| {
            let mut sim: Simulation<Msg> = Simulation::with_network(7, fixed_net(25));
            let sinks: Vec<NodeId> = (0..3)
                .map(|_| {
                    sim.add_node(Box::new(Sink2 {
                        arrivals: Vec::new(),
                    }))
                })
                .collect();
            sim.add_node(Box::new(Caster {
                targets: sinks.clone(),
                looped,
            }));
            sim.run_for(Duration::from_secs(1));
            let arrivals: Vec<Vec<(SimTime, Msg)>> = sinks
                .iter()
                .map(|&s| sim.node_as::<Sink2>(s).unwrap().arrivals.clone())
                .collect();
            (
                arrivals,
                sim.traffic().total_bytes(),
                sim.traffic().total_messages(),
            )
        };
        struct Sink2 {
            arrivals: Vec<(SimTime, Msg)>,
        }
        impl Node<Msg> for Sink2 {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
                self.arrivals.push((ctx.now(), msg));
            }
        }
        assert_eq!(observe(false), observe(true));
    }

    #[test]
    fn multicast_counts_traffic_per_link() {
        struct Caster {
            targets: Vec<NodeId>,
        }
        impl Node<Msg> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.multicast(self.targets.iter().copied(), Msg::Ping(1));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        struct Silent {
            received: u32,
        }
        impl Node<Msg> for Silent {
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.received += 1;
            }
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let sinks: Vec<NodeId> = (0..4)
            .map(|_| sim.add_node(Box::new(Silent { received: 0 })))
            .collect();
        // One target crashes before delivery: its bytes still count (the
        // sender put them on the wire), but the payload is never cloned for
        // it.
        sim.schedule_crash(sinks[3], SimTime::ZERO);
        sim.add_node(Box::new(Caster {
            targets: sinks.clone(),
        }));
        sim.run_for(Duration::from_secs(1));
        // All four links carried the message (4 + header bytes each).
        assert_eq!(sim.traffic().total_bytes(), 4 * (4 + HEADER_BYTES as u64));
        for &s in &sinks[..3] {
            assert_eq!(sim.node_as::<Silent>(s).unwrap().received, 1);
        }
        assert_eq!(sim.node_as::<Silent>(sinks[3]).unwrap().received, 0);
    }

    #[test]
    fn multicast_shares_payload_instead_of_cloning() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CLONES: AtomicU32 = AtomicU32::new(0);

        #[derive(Debug)]
        struct Counted(#[allow(dead_code)] u32);
        impl Clone for Counted {
            fn clone(&self) -> Counted {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }
        impl Wire for Counted {
            fn wire_size(&self) -> usize {
                4
            }
        }
        struct Caster {
            targets: Vec<NodeId>,
        }
        impl Node<Counted> for Caster {
            fn on_start(&mut self, ctx: &mut Context<'_, Counted>) {
                ctx.multicast(self.targets.iter().copied(), Counted(9));
            }
            fn on_message(&mut self, _: &mut Context<'_, Counted>, _: NodeId, _: Counted) {}
        }
        struct Sink {
            received: u32,
        }
        impl Node<Counted> for Sink {
            fn on_message(&mut self, _: &mut Context<'_, Counted>, _: NodeId, _: Counted) {
                self.received += 1;
            }
        }
        const TARGETS: u32 = 5;
        let mut sim: Simulation<Counted> = Simulation::with_network(1, fixed_net(10));
        let sinks: Vec<NodeId> = (0..TARGETS)
            .map(|_| sim.add_node(Box::new(Sink { received: 0 })))
            .collect();
        sim.add_node(Box::new(Caster {
            targets: sinks.clone(),
        }));
        CLONES.store(0, Ordering::Relaxed);
        sim.run_for(Duration::from_secs(1));
        for &s in &sinks {
            assert_eq!(sim.node_as::<Sink>(s).unwrap().received, 1);
        }
        // Per-recipient cloning would cost TARGETS clones; payload sharing
        // clones at most TARGETS-1 times (the last delivery moves the body).
        assert!(
            CLONES.load(Ordering::Relaxed) < TARGETS,
            "expected < {TARGETS} clones, got {}",
            CLONES.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        sim.run_until(SimTime::from_nanos(5_000));
        assert_eq!(sim.now(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn step_processes_one_event() {
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        sim.add_node(Box::new(Starter {
            peer: echo,
            reply_times: Vec::new(),
        }));
        assert!(sim.step()); // first ping delivered
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 1);
    }

    #[test]
    fn stale_cancel_of_fired_timer_is_noop_and_leaks_nothing() {
        // Cancelling a timer that already fired used to leave a u64 in a
        // tombstone set forever; with generation stamps it must be a pure
        // no-op that poisons nothing.
        struct Staler {
            first: Option<TimerId>,
            fired: u32,
        }
        impl Node<Msg> for Staler {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.first = Some(ctx.set_timer(Duration::from_millis(1), Msg::Tick));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                self.fired += 1;
                if self.fired == 1 {
                    // The second timer recycles the first one's table slot;
                    // cancelling the stale handle must not kill it.
                    ctx.set_timer(Duration::from_millis(1), Msg::Tick);
                    ctx.cancel_timer(self.first.take().unwrap());
                }
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let id = sim.add_node(Box::new(Staler {
            first: None,
            fired: 0,
        }));
        sim.run_for(Duration::from_millis(10));
        assert_eq!(sim.node_as::<Staler>(id).unwrap().fired, 2);
        assert_eq!(sim.pending_timers(), 0, "no timer slots may leak");
    }

    #[test]
    fn cancel_while_deferred_in_backlog_suppresses_fire() {
        // A timer that fires while its node is busy is parked in the
        // backlog; a cancel issued before the backlog drains must still win.
        struct Busy {
            timer: Option<TimerId>,
            msgs: u32,
            fired: u32,
        }
        impl Node<Msg> for Busy {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.timer = Some(ctx.set_timer(Duration::from_micros(500), Msg::Tick));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.msgs += 1;
                if self.msgs == 1 {
                    // Busy until 1.1 ms: the 500 µs timer lands in the
                    // backlog behind the second message.
                    ctx.charge(Duration::from_millis(1));
                } else {
                    ctx.cancel_timer(self.timer.take().unwrap());
                }
            }
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                self.fired += 1;
            }
        }
        struct Feeder {
            peer: NodeId,
        }
        impl Node<Msg> for Feeder {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(self.peer, Msg::Ping(100)); // arrives at 100 µs
                ctx.set_timer(Duration::from_micros(300), Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                ctx.send(self.peer, Msg::Ping(200)); // arrives at 400 µs
            }
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let busy = sim.add_node(Box::new(Busy {
            timer: None,
            msgs: 0,
            fired: 0,
        }));
        sim.add_node(Box::new(Feeder { peer: busy }));
        sim.run_for(Duration::from_millis(10));
        let b = sim.node_as::<Busy>(busy).unwrap();
        assert_eq!(b.msgs, 2);
        assert_eq!(b.fired, 0, "cancelled-in-backlog timer must not fire");
        assert_eq!(sim.pending_timers(), 0, "no timer slots may leak");
    }

    #[test]
    fn crashes_release_timer_slots() {
        struct Armer;
        impl Node<Msg> for Armer {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(Duration::from_millis(1), Msg::Tick);
                ctx.set_timer(Duration::from_millis(2), Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let id = sim.add_node(Box::new(Armer));
        sim.schedule_crash(id, SimTime::from_nanos(500_000));
        sim.run_for(Duration::from_millis(10));
        assert!(sim.is_crashed(id));
        assert_eq!(
            sim.pending_timers(),
            0,
            "timers of crashed nodes must be released when their entries fire"
        );
    }

    #[test]
    fn wipe_rebuilds_node_and_drops_stale_timers() {
        // A node that re-arms a periodic timer; its counter must restart
        // from zero after the wipe and the pre-wipe timer must never fire
        // on the rebuilt incarnation.
        struct Ticker {
            ticks: u32,
            recoveries: u32,
        }
        impl Node<Msg> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(Duration::from_millis(2), Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId, _: Msg) {
                self.ticks += 1;
                ctx.set_timer(Duration::from_millis(2), Msg::Tick);
            }
            fn on_recover(&mut self, _: &mut Context<'_, Msg>) {
                self.recoveries += 1;
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let id = sim.add_node(Box::new(Ticker {
            ticks: 0,
            recoveries: 0,
        }));
        sim.set_node_factory(
            id,
            Box::new(|| {
                Box::new(Ticker {
                    ticks: 0,
                    recoveries: 0,
                })
            }),
        );
        sim.run_for(Duration::from_millis(5)); // ticks at 2 ms and 4 ms
        assert_eq!(sim.node_as::<Ticker>(id).unwrap().ticks, 2);
        sim.wipe_now(id, false);
        let fresh = sim.node_as::<Ticker>(id).unwrap();
        assert_eq!(fresh.ticks, 0, "volatile state must be gone");
        assert_eq!(fresh.recoveries, 1, "on_recover must run on the reboot");
        sim.run_for(Duration::from_millis(10));
        // The pre-wipe timer armed at 4 ms (due 6 ms) must not fire on the
        // fresh node; it never re-armed anything, so ticks stays 0.
        assert_eq!(sim.node_as::<Ticker>(id).unwrap().ticks, 0);
        assert_eq!(sim.pending_timers(), 0, "stale timer slots must be freed");
    }

    #[test]
    fn disk_survives_wipe_and_truncates_at_fsync_barrier() {
        struct Writer;
        impl Node<Msg> for Writer {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.disk_append(vec![1]);
                ctx.disk_fsync();
                ctx.disk_append(vec![2]); // never synced
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let observe = |trunc: bool| {
            let mut sim: Simulation<Msg> = Simulation::new(1);
            let id = sim.add_node(Box::new(Writer));
            sim.set_node_factory(id, Box::new(|| Box::new(Writer)));
            sim.run_for(Duration::from_millis(1));
            sim.wipe_now(id, trunc);
            sim.disk(id).records().to_vec()
        };
        // A plain wipe keeps the whole device cache; power-loss truncation
        // destroys the record above the fsync barrier. (The rebooted
        // Writer's on_start does not run again — only on_recover does — so
        // these are purely the first incarnation's records.)
        assert_eq!(observe(false), vec![vec![1], vec![2]]);
        assert_eq!(observe(true), vec![vec![1]]);
    }

    #[test]
    fn lent_disk_records_come_back_intact() {
        struct Replayer {
            seen: usize,
        }
        impl Node<Msg> for Replayer {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.disk_append(vec![1, 2]);
                ctx.disk_append(vec![3]);
                ctx.disk_fsync();
                self.seen = ctx.with_disk_records(|ctx, records| {
                    // The context stays usable while the records are out.
                    ctx.charge(Duration::from_micros(1));
                    records.iter().map(Vec::len).sum()
                });
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let id = sim.add_node(Box::new(Replayer { seen: 0 }));
        sim.run_for(Duration::from_millis(1));
        assert_eq!(sim.node_as::<Replayer>(id).expect("node type").seen, 3);
        assert_eq!(sim.disk(id).records(), &[vec![1, 2], vec![3]]);
        assert_eq!(sim.disk(id).synced_len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn discarding_a_lent_record_panics() {
        struct Discarder;
        impl Node<Msg> for Discarder {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.disk_append(vec![1]);
                ctx.with_disk_records(|ctx, _| ctx.disk_discard(0));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::new(1);
        sim.add_node(Box::new(Discarder));
        sim.run_for(Duration::from_millis(1));
    }

    #[test]
    fn disk_latency_charges_cpu_only_when_configured() {
        struct Syncer {
            peer: NodeId,
        }
        impl Node<Msg> for Syncer {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.disk_append(vec![7]);
                ctx.disk_fsync();
                ctx.send(self.peer, Msg::Tick);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        struct Sink {
            arrived: Option<SimTime>,
        }
        impl Node<Msg> for Sink {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                self.arrived = Some(ctx.now());
            }
        }
        let observe = |latency: Option<DiskLatency>| {
            let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
            if let Some(l) = latency {
                sim.set_disk_latency(l);
            }
            let sink = sim.add_node(Box::new(Sink { arrived: None }));
            sim.add_node(Box::new(Syncer { peer: sink }));
            sim.run_for(Duration::from_millis(5));
            sim.node_as::<Sink>(sink).unwrap().arrived.unwrap()
        };
        // Zero latency: the message departs immediately (inert disk).
        assert_eq!(observe(None), SimTime::from_nanos(100_000));
        // 10 µs append + 40 µs fsync delay the departure by 50 µs.
        assert_eq!(
            observe(Some(DiskLatency {
                append: Duration::from_micros(10),
                fsync: Duration::from_micros(40),
            })),
            SimTime::from_nanos(150_000)
        );
    }

    #[test]
    fn event_stats_break_down_dispatches() {
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(100));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::ZERO,
        }));
        sim.add_node(Box::new(Starter {
            peer: echo,
            reply_times: Vec::new(),
        }));
        sim.run_for(Duration::from_secs(1));
        let stats = sim.event_stats();
        // Pings 0..=10 cross the wire once each.
        assert_eq!(stats.delivers, 11);
        assert_eq!(stats.timers, 0);
        assert_eq!(stats.wakes, 0);
        assert_eq!(stats.inline_wakes, 0);
        assert_eq!(stats.crashes, 0);
        assert!(stats.queue_high_water >= 1);

        let mut merged = EventStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.delivers, 22);
        assert_eq!(merged.queue_high_water, stats.queue_high_water);

        // Every field, spelled out so a new one cannot be left out of
        // `merge`: the eight counters add, the two high-water marks take
        // the max (from either side).
        let a = EventStats {
            delivers: 1,
            timers: 2,
            wakes: 3,
            inline_wakes: 4,
            crashes: 5,
            queue_high_water: 60,
            arena_messages: 7,
            arena_high_water: 8,
            multicast_batches: 9,
            batched_deliveries: 10,
        };
        let b = EventStats {
            delivers: 100,
            timers: 200,
            wakes: 300,
            inline_wakes: 400,
            crashes: 500,
            queue_high_water: 6,
            arena_messages: 700,
            arena_high_water: 800,
            multicast_batches: 900,
            batched_deliveries: 1000,
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(
            merged,
            EventStats {
                delivers: 101,
                timers: 202,
                wakes: 303,
                inline_wakes: 404,
                crashes: 505,
                queue_high_water: 60,
                arena_messages: 707,
                arena_high_water: 800,
                multicast_batches: 909,
                batched_deliveries: 1010,
            }
        );
    }

    #[test]
    fn saturated_backlog_drains_without_queued_wakes() {
        // 500 messages flood a 1 ms/message sink.
        struct Flood {
            peer: NodeId,
        }
        impl Node<Msg> for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                for _ in 0..500 {
                    ctx.send(self.peer, Msg::Ping(100));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::from_millis(1),
        }));
        sim.add_node(Box::new(Flood { peer: echo }));
        sim.run_for(Duration::from_secs(60));
        let stats = sim.event_stats();
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 500);
        // All 500 messages arrive at the same instant. The first wake is
        // armed while the remaining deliveries still precede it, so it
        // parks in the wake lane, never the timing wheel; every drain
        // after that runs inline against an empty horizon. No wake ever
        // travels through the global queue.
        assert_eq!(stats.wakes, 0);
        assert_eq!(stats.inline_wakes, 499);
    }

    #[test]
    fn run_limit_materializes_pending_wake() {
        // Flood a busy node, then stop the run mid-drain: the wake due
        // past the limit must park in the wake lane, keeping the seq it
        // reserved when it was armed, so a later run resumes at exactly
        // that place in the `(time, seq)` order.
        struct Flood {
            peer: NodeId,
        }
        impl Node<Msg> for Flood {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                for _ in 0..10 {
                    ctx.send(self.peer, Msg::Ping(100));
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        }
        let mut sim: Simulation<Msg> = Simulation::with_network(1, fixed_net(10));
        let echo = sim.add_node(Box::new(Echo {
            received: 0,
            charge: Duration::from_millis(1),
        }));
        sim.add_node(Box::new(Flood { peer: echo }));
        // 10 µs delivery + 1 ms/message: ~3 messages fit before 3.5 ms.
        sim.run_until(SimTime::from_nanos(3_500_000));
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 4);
        assert_eq!(sim.pending_events(), 1, "one materialized wake pending");
        sim.run_for(Duration::from_secs(60));
        assert_eq!(sim.node_as::<Echo>(echo).unwrap().received, 10);
        assert_eq!(sim.pending_events(), 0);
    }
}
