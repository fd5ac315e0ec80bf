//! Aggregate open-loop load engine: one simulation node standing in for
//! up to millions of logical clients.
//!
//! The closed-loop harness simulates every client as its own actor, which
//! caps realistic populations at a few hundred. This engine inverts the
//! representation: arrival is a *rate process* sampled against the timing
//! wheel ([`ArrivalSampler`]), the logical population is one dense array
//! (a state byte, an op counter and a flight-slot index per client),
//! operations on the wire live in a recycled slab addressed through that
//! array, reject-backoff is a count-bucketed [`BackoffWheel`] with one
//! timer per release *bucket*, and retransmission is a deadline-ordered
//! list threaded through the flight slab, scanned by a periodic
//! housekeeping tick. Cost per logical client
//! is 12 bytes of memory and zero standing simulator state, so 10⁶
//! clients are as cheap as 10².
//!
//! Every completed operation still flows through the shared
//! [`Recorder`], so the session-order/exactly-once oracle and the
//! latency histograms are exactly the ones the closed-loop experiments
//! use, and the engine keeps full conservation accounting
//! ([`LoadCounters`]) proving no logical client is ever stranded.
//!
//! Protocol specifics (how to submit, what counts as a reject) are behind
//! the small [`LoadPort`] trait — each protocol crate's one client port,
//! the same one its closed-loop client talks through. The source encodes
//! its internal ticks (arrival, housekeeping, phase change, delayed issue)
//! in the port's client-timer variant, which is sound because it is the
//! only consumer of its own timers.

use std::sync::Arc;
use std::time::Duration;

use idem_common::client::{decode_tick, encode_tick, ClientSetup};
use idem_common::driver::{OperationOutcome, OutcomeKind};
use idem_common::load::{ArrivalSampler, BackoffWheel, LoadCounters};
use idem_common::{
    ClientId, Directory, Membership, OpNumber, PersistMode, QuorumTracker, Request, RequestId,
};
use idem_kv::Workload;
use idem_metrics::Histogram;
use idem_simnet::{Context, Node, NodeId, SimTime, Simulation, TimerId};
use rand::Rng;

use crate::cluster::{experiment_network, install_replicas, Protocol, Wired};
use crate::recorder::{Recorder, RecorderHandle, BIN_WIDTH};
use crate::scenario::LoadScenario;

/// The protocol adapter the source talks through, and what a message it
/// classified means: the very port the closed-loop client uses.
pub use idem_common::client::{ClientEvent as LoadEvent, ClientPort as LoadPort};

// Tick kinds, encoded in the top byte of the timer payload.
const TAG_ARRIVAL: u64 = 0;
const TAG_HOUSEKEEP: u64 = 1;
const TAG_PHASE: u64 = 2;
const TAG_ISSUE: u64 = 3;

/// Housekeeping cadence: retransmit scan + backoff-bucket release. Also
/// the backoff wheel granularity, so a due bucket is released by the next
/// tick.
const HOUSEKEEP_EVERY: Duration = Duration::from_millis(5);

/// Retransmissions per operation before the source just keeps waiting
/// (links are lossless; this bounds duplicate traffic).
const MAX_RETRANSMITS: u8 = 3;

/// Cap on a single sampled arrival gap, so a zero-rate regime arms a
/// bounded timer instead of one ~584 years out.
const MAX_GAP: Duration = Duration::from_secs(3600);

// Logical client states (one byte per client).
const IDLE: u8 = 0;
const IN_FLIGHT: u8 = 1;
const BACKOFF: u8 = 2;
const PENDING: u8 = 3;

/// Slab index naming no flight: either end of the retransmit list.
const NIL: u32 = u32::MAX;

struct Flight {
    client: u32,
    /// When the user's request arrived (straggler delay included in
    /// latency, as the user perceives it).
    arrived_ns: u64,
    command: Arc<[u8]>,
    /// When the next retransmission is due, while the flight is linked.
    due_ns: u64,
    /// Neighbours in the retransmit list; `prev` is `NIL` at the head
    /// and while unlinked.
    prev: u32,
    next: u32,
    retx_left: u8,
    rejects: QuorumTracker,
}

/// One logical client: its state, the number of its latest operation
/// and, while that operation is on the wire, its slot in the flight
/// slab. Everything a reply, reject or retransmit deadline needs to know
/// about its client shares a cache line.
#[derive(Clone, Copy)]
struct ClientSlot {
    next_op: u32,
    flight: u32,
    state: u8,
}

/// The population and its operations on the wire.
///
/// A logical client has at most one operation in flight — its latest —
/// so a [`RequestId`] names a live flight exactly when its client is
/// `IN_FLIGHT` and its op number is the client's current one. That test
/// is two loads from one [`ClientSlot`]; duplicate replies, rejects of
/// abandoned operations and ids outside the population all fail it
/// without touching the slab.
///
/// Flights awaiting a retransmit deadline are linked through the slab,
/// earliest first. Every deadline is `now + retransmit_every` and `now`
/// only moves forward, so linking at the tail keeps the list sorted; a
/// flight leaves it when it is taken or its last deadline is popped, so
/// the list never holds more than the live flights.
struct ClientTable {
    clients: Vec<ClientSlot>,
    flights: Vec<Option<Flight>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl ClientTable {
    fn new(population: u32) -> ClientTable {
        let idle = ClientSlot {
            next_op: 0,
            flight: 0,
            state: IDLE,
        };
        ClientTable {
            clients: vec![idle; population as usize],
            flights: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn state(&self, client: u32) -> u8 {
        self.clients[client as usize].state
    }

    /// Moves a client between the states that hold no flight.
    fn set_state(&mut self, client: u32, state: u8) {
        debug_assert_ne!(state, IN_FLIGHT);
        debug_assert_ne!(self.clients[client as usize].state, IN_FLIGHT);
        self.clients[client as usize].state = state;
    }

    /// Puts the client's next operation on the wire, its retransmission
    /// due at `due_ns`, and names it.
    fn issue(&mut self, client: u32, flight: Flight, due_ns: u64) -> RequestId {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.flights[slot as usize] = Some(flight);
                slot
            }
            None => {
                self.flights.push(Some(flight));
                (self.flights.len() - 1) as u32
            }
        };
        let c = &mut self.clients[client as usize];
        debug_assert_ne!(c.state, IN_FLIGHT);
        c.next_op += 1;
        c.flight = slot;
        c.state = IN_FLIGHT;
        let id = RequestId::new(ClientId(client), OpNumber(u64::from(c.next_op)));
        self.link(slot, due_ns);
        id
    }

    fn flight(&mut self, slot: u32) -> &mut Flight {
        self.flights[slot as usize]
            .as_mut()
            .expect("a linked slot holds a flight")
    }

    /// Links the flight in `slot` at the tail of the retransmit list.
    fn link(&mut self, slot: u32, due_ns: u64) {
        let tail = self.tail;
        let f = self.flight(slot);
        f.due_ns = due_ns;
        f.prev = tail;
        f.next = NIL;
        match tail {
            NIL => self.head = slot,
            tail => {
                debug_assert!(self.flight(tail).due_ns <= due_ns, "deadlines out of order");
                self.flight(tail).next = slot;
            }
        }
        self.tail = slot;
    }

    /// Takes the flight in `slot` off the retransmit list, if it is on it.
    fn unlink(&mut self, slot: u32) {
        let head = self.head;
        let f = self.flight(slot);
        let (prev, next) = (f.prev, f.next);
        if prev == NIL && head != slot {
            return;
        }
        (f.prev, f.next) = (NIL, NIL);
        match prev {
            NIL => self.head = next,
            prev => self.flight(prev).next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.flight(next).prev = prev,
        }
    }

    /// Unlinks the earliest flight whose retransmission is due by
    /// `now_ns` and names it.
    fn pop_due(&mut self, now_ns: u64) -> Option<RequestId> {
        let slot = self.head;
        let f = self.flights.get(slot as usize)?.as_ref()?;
        if f.due_ns > now_ns {
            return None;
        }
        let client = f.client;
        self.unlink(slot);
        let op = self.clients[client as usize].next_op;
        Some(RequestId::new(ClientId(client), OpNumber(u64::from(op))))
    }

    /// Links the live flight `id` names again, due at `due_ns`.
    fn relink(&mut self, id: RequestId, due_ns: u64) {
        let slot = self.live_slot(id).expect("a retransmitted flight is live");
        self.link(slot as u32, due_ns);
    }

    /// Slab slot of the live flight `id` names, if it names one.
    fn live_slot(&self, id: RequestId) -> Option<usize> {
        let c = self.clients.get(id.client.0 as usize)?;
        (c.state == IN_FLIGHT && u64::from(c.next_op) == id.op.0).then_some(c.flight as usize)
    }

    fn get_mut(&mut self, id: RequestId) -> Option<&mut Flight> {
        let slot = self.live_slot(id)?;
        self.flights[slot].as_mut()
    }

    /// Takes the flight off the wire and the retransmit list, leaving its
    /// client `IDLE`.
    fn take(&mut self, id: RequestId) -> Option<Flight> {
        let slot = self.live_slot(id)?;
        self.unlink(slot as u32);
        self.clients[id.client.0 as usize].state = IDLE;
        self.free.push(slot as u32);
        self.flights[slot].take()
    }

    fn live(&self) -> u64 {
        self.flights.iter().filter(|f| f.is_some()).count() as u64
    }

    /// Checks the slab against the client array: every `IN_FLIGHT`
    /// client owns the flight in its slot, the free list is exactly the
    /// empty slots, each once, and the retransmit list links live flights
    /// only, each once, both ways, with deadlines that never decrease.
    fn slab_error(&self) -> Option<String> {
        for (client, c) in self.clients.iter().enumerate() {
            if c.state != IN_FLIGHT {
                continue;
            }
            match self.flights.get(c.flight as usize) {
                Some(Some(f)) if f.client as usize == client => {}
                Some(Some(f)) => {
                    return Some(format!(
                        "client {client} in flight, but slot {} holds client {}'s flight",
                        c.flight, f.client
                    ))
                }
                _ => {
                    return Some(format!(
                        "client {client} in flight, but slot {} holds no flight",
                        c.flight
                    ))
                }
            }
        }
        let mut listed = vec![false; self.flights.len()];
        for &slot in &self.free {
            match self.flights.get(slot as usize) {
                Some(None) if !listed[slot as usize] => listed[slot as usize] = true,
                Some(None) => return Some(format!("slot {slot} is on the free list twice")),
                _ => return Some(format!("free list names slot {slot}, which is not empty")),
            }
        }
        let accounted = self.free.len() as u64 + self.live();
        if accounted != self.flights.len() as u64 {
            return Some(format!(
                "free list + live flights cover {accounted} slots, slab has {}",
                self.flights.len()
            ));
        }
        self.list_error()
    }

    fn list_error(&self) -> Option<String> {
        let mut linked = vec![false; self.flights.len()];
        let (mut prev, mut slot, mut due) = (NIL, self.head, 0);
        while slot != NIL {
            let Some(Some(f)) = self.flights.get(slot as usize) else {
                return Some(format!(
                    "retransmit list links slot {slot}, which holds no flight"
                ));
            };
            if std::mem::replace(&mut linked[slot as usize], true) {
                return Some(format!("slot {slot} is on the retransmit list twice"));
            }
            if f.prev != prev {
                return Some(format!(
                    "slot {slot} follows slot {prev} but names {}",
                    f.prev
                ));
            }
            if f.due_ns < due {
                return Some(format!(
                    "slot {slot} is due at {} ns, before {due} ns",
                    f.due_ns
                ));
            }
            (prev, slot, due) = (slot, f.next, f.due_ns);
        }
        if prev != self.tail {
            return Some(format!(
                "retransmit list ends at slot {prev}, tail is {}",
                self.tail
            ));
        }
        for (slot, f) in self.flights.iter().enumerate() {
            if let Some(f) = f.as_ref().filter(|f| !linked[slot] && f.prev != NIL) {
                return Some(format!("slot {slot} is unlinked but names slot {}", f.prev));
            }
        }
        None
    }
}

/// Per-phase measurement accumulator.
#[derive(Debug)]
struct PhaseAccum {
    offered: u64,
    shed: u64,
    issued: u64,
    completed: u64,
    within_sla: u64,
    rejected: u64,
    rejected_final: u64,
    retransmits: u64,
    latency: Histogram,
}

impl PhaseAccum {
    fn new() -> PhaseAccum {
        PhaseAccum {
            offered: 0,
            shed: 0,
            issued: 0,
            completed: 0,
            within_sla: 0,
            rejected: 0,
            rejected_final: 0,
            retransmits: 0,
            latency: Histogram::new(),
        }
    }

    fn merge(&mut self, other: &PhaseAccum) {
        self.offered += other.offered;
        self.shed += other.shed;
        self.issued += other.issued;
        self.completed += other.completed;
        self.within_sla += other.within_sla;
        self.rejected += other.rejected;
        self.rejected_final += other.rejected_final;
        self.retransmits += other.retransmits;
        self.latency.merge(&other.latency);
    }

    fn metrics(&self, label: String, duration: Duration, sla: Duration) -> PhaseMetrics {
        let q = self.latency.percentiles(&[50.0, 99.0, 99.9]);
        PhaseMetrics {
            label,
            duration,
            sla,
            offered: self.offered,
            shed: self.shed,
            issued: self.issued,
            completed: self.completed,
            within_sla: self.within_sla,
            rejected: self.rejected,
            rejected_final: self.rejected_final,
            retransmits: self.retransmits,
            latency_mean_ms: self.latency.mean() / 1e6,
            latency_p50_ms: q[0] as f64 / 1e6,
            latency_p99_ms: q[1] as f64 / 1e6,
            latency_p999_ms: q[2] as f64 / 1e6,
            latency_max_ms: self.latency.max() as f64 / 1e6,
        }
    }
}

/// Measured numbers of one phase (or of the whole measured window).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetrics {
    /// Phase label ("warmup", "spike", ..., or "total").
    pub label: String,
    /// Phase length in virtual time.
    pub duration: Duration,
    /// The goodput deadline the scenario was run with.
    pub sla: Duration,
    /// Arrivals sampled from the arrival process.
    pub offered: u64,
    /// Arrivals shed at the source (targeted client busy or backing off).
    pub shed: u64,
    /// Requests put on the wire (first transmissions).
    pub issued: u64,
    /// Successfully completed operations.
    pub completed: u64,
    /// Completions within the SLA deadline — the goodput numerator.
    pub within_sla: u64,
    /// Operations abandoned after rejection.
    pub rejected: u64,
    /// Of those, rejections that were final (leader-based).
    pub rejected_final: u64,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Mean success latency (arrival → reply) in milliseconds.
    pub latency_mean_ms: f64,
    /// Median success latency in milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile success latency in milliseconds.
    pub latency_p99_ms: f64,
    /// 99.9th-percentile success latency in milliseconds.
    pub latency_p999_ms: f64,
    /// Worst success latency in milliseconds.
    pub latency_max_ms: f64,
}

impl PhaseMetrics {
    /// Offered arrivals per second.
    pub fn offered_per_s(&self) -> f64 {
        self.offered as f64 / self.duration.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Goodput: completions within the SLA deadline, per second.
    pub fn goodput_per_s(&self) -> f64 {
        self.within_sla as f64 / self.duration.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Share of offered arrivals that ended in rejection.
    pub fn reject_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }

    /// Share of offered arrivals shed at the source (client still busy
    /// or backing off — the open-loop analogue of a user's request dying
    /// in a stuck browser tab).
    pub fn shed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Sampled per-client accounting: every `stride`-th logical client gets
/// exact per-client latency bookkeeping, so per-client fairness (and the
/// straggler/normal split) stays observable without 10⁶ histograms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledSummary {
    /// Number of sampled clients that completed at least one operation.
    pub sampled_clients: u32,
    /// Worst per-client mean latency among sampled clients (ms).
    pub worst_mean_ms: f64,
    /// Worst single latency among sampled clients (ms).
    pub worst_max_ms: f64,
    /// Mean latency over sampled straggler clients (ms; 0 if none).
    pub straggler_mean_ms: f64,
    /// Mean latency over sampled non-straggler clients (ms; 0 if none).
    pub normal_mean_ms: f64,
}

/// Everything measured in one open-loop load run.
#[derive(Debug, Clone)]
pub struct LoadRunResult {
    /// Scenario name.
    pub scenario: String,
    /// Protocol label.
    pub protocol: &'static str,
    /// Logical client population.
    pub population: u32,
    /// Measured window (sum of phase durations, warmup excluded).
    pub measured: Duration,
    /// The warmup window's numbers (excluded from `totals`).
    pub warmup: PhaseMetrics,
    /// Per-phase numbers, in schedule order.
    pub phases: Vec<PhaseMetrics>,
    /// Merged post-warmup numbers.
    pub totals: PhaseMetrics,
    /// Session-order violations seen by the shared recorder (always 0
    /// for a correct protocol/engine).
    pub order_violations: u64,
    /// Conservation check result (`None` = books balance).
    pub conservation: Option<String>,
    /// Raw whole-run conservation counters.
    pub counters: LoadCounters,
    /// Per-client sampled accounting.
    pub sampled: SampledSummary,
    /// Simulator events processed.
    pub events_processed: u64,
    /// Per-kind event dispatch breakdown.
    pub event_stats: idem_simnet::EventStats,
    /// Total messages on the network.
    pub total_messages: u64,
}

/// The aggregate open-loop client node.
///
/// See the [module docs](self) for the representation; the type parameter
/// supplies protocol-specific submit/classify behaviour.
pub struct LoadSource<P: LoadPort> {
    port: P,
    dir: Directory<NodeId>,
    sc: LoadScenario,
    recorder: RecorderHandle,

    sampler: ArrivalSampler,
    workload: Workload,
    rotations: u64,
    rate_mult: f64,
    next_phase: usize,

    table: ClientTable,
    /// Reused encode buffer: the command is built here, then copied into
    /// the one `Arc<[u8]>` the request and its flight share.
    command_buf: Vec<u8>,
    straggler_cut: u32,
    sample_stride: u32,

    backoff: BackoffWheel,
    pending: Vec<Option<(u32, u64)>>,
    pending_free: Vec<usize>,

    counters: LoadCounters,
    accums: Vec<PhaseAccum>,
    /// Cumulative end (ns) of each accumulator window; index 0 is warmup.
    boundaries: Vec<u64>,
    accum_cursor: usize,

    /// `(count, latency sum, latency max)` of every `sample_stride`-th
    /// client, indexed by `client / sample_stride`.
    sampled: Vec<(u64, u64, u64)>,
    release_buf: Vec<u32>,
}

impl<P: LoadPort> LoadSource<P> {
    /// Creates the source for a scenario. `dir` must route every client
    /// id to this node (see [`Directory::with_client_fallback`]).
    pub fn new(
        port: P,
        dir: Directory<NodeId>,
        sc: LoadScenario,
        recorder: RecorderHandle,
    ) -> Self {
        assert!(sc.population > 0, "population must be nonzero");
        assert!(!sc.phases.is_empty(), "schedule needs at least one phase");
        assert!(
            sc.backoff.0 <= sc.backoff.1,
            "backoff range is (min, max), got {:?}",
            sc.backoff
        );
        assert!(
            sc.straggler_delay.0 <= sc.straggler_delay.1,
            "straggler delay range is (min, max), got {:?}",
            sc.straggler_delay
        );
        assert!(
            (0.0..=1.0).contains(&sc.straggler_fraction),
            "straggler fraction must lie in [0, 1], got {}",
            sc.straggler_fraction
        );
        let mut boundaries = Vec::with_capacity(sc.phases.len() + 1);
        let mut end = sc.warmup.as_nanos() as u64;
        boundaries.push(end);
        for ph in &sc.phases {
            end += ph.duration.as_nanos() as u64;
            boundaries.push(end);
        }
        let accums = (0..=sc.phases.len()).map(|_| PhaseAccum::new()).collect();
        let straggler_cut = (sc.straggler_fraction * f64::from(sc.population)) as u32;
        let sample_stride = (sc.population / 1024).max(1);
        LoadSource {
            sampler: ArrivalSampler::new(sc.process.clone()),
            workload: Workload::new(sc.workload, sc.seed),
            rotations: 0,
            rate_mult: sc.phases[0].rate_mult,
            next_phase: 0,
            table: ClientTable::new(sc.population),
            command_buf: Vec::new(),
            straggler_cut,
            sample_stride,
            backoff: BackoffWheel::new(HOUSEKEEP_EVERY),
            pending: Vec::new(),
            pending_free: Vec::new(),
            counters: LoadCounters::default(),
            accums,
            boundaries,
            accum_cursor: 0,
            sampled: vec![(0, 0, 0); sc.population.div_ceil(sample_stride) as usize],
            release_buf: Vec::new(),
            port,
            dir,
            sc,
            recorder,
        }
    }

    /// Index of the accumulator window covering `now_ns` (monotone
    /// cursor: callers only move forward in time).
    fn accum_index(&mut self, now_ns: u64) -> usize {
        while self.accum_cursor + 1 < self.boundaries.len()
            && now_ns >= self.boundaries[self.accum_cursor]
        {
            self.accum_cursor += 1;
        }
        self.accum_cursor
    }

    fn issue(&mut self, ctx: &mut Context<'_, P::Msg>, client: u32, arrived_ns: u64) {
        let now = ctx.now();
        self.workload
            .next_command_into(ctx.rng(), &mut self.command_buf);
        let command: Arc<[u8]> = Arc::from(&self.command_buf[..]);
        self.counters.in_flight += 1;
        let idx = self.accum_index(now.as_nanos());
        self.accums[idx].issued += 1;
        let threshold = self.port.reject_threshold().unwrap_or(1);
        let id = self.table.issue(
            client,
            Flight {
                client,
                arrived_ns,
                command: command.clone(),
                due_ns: 0,
                prev: NIL,
                next: NIL,
                retx_left: MAX_RETRANSMITS,
                rejects: QuorumTracker::new(threshold),
            },
            now.as_nanos() + self.sc.retransmit_every.as_nanos() as u64,
        );
        self.port.submit(ctx, &self.dir, Request::new(id, command));
    }

    fn finish(&mut self, now: SimTime, id: RequestId, flight: Flight, kind: OutcomeKind) {
        let latency = now.saturating_since(SimTime::from_nanos(flight.arrived_ns));
        let latency_ns = latency.as_nanos() as u64;
        self.counters.in_flight -= 1;
        let sla_ns = self.sc.sla.as_nanos() as u64;
        let idx = self.accum_index(now.as_nanos());
        match kind {
            OutcomeKind::Success => {
                self.accums[idx].completed += 1;
                if latency_ns <= sla_ns {
                    self.accums[idx].within_sla += 1;
                }
                self.accums[idx].latency.record(latency_ns);
                self.counters.completed += 1;
                if flight.client.is_multiple_of(self.sample_stride) {
                    let entry = &mut self.sampled[(flight.client / self.sample_stride) as usize];
                    entry.0 += 1;
                    entry.1 += latency_ns;
                    entry.2 = entry.2.max(latency_ns);
                }
            }
            OutcomeKind::RejectedAmbivalent | OutcomeKind::RejectedFinal => {
                self.accums[idx].rejected += 1;
                if kind == OutcomeKind::RejectedFinal {
                    self.accums[idx].rejected_final += 1;
                }
                self.counters.rejected += 1;
            }
        }
        self.recorder.record(&OperationOutcome {
            id,
            kind,
            latency,
            completed_at: now,
            result: None,
        });
        if kind != OutcomeKind::Success {
            // Back off before this client's next arrival is accepted,
            // mirroring the closed-loop clients' post-reject pause.
            self.table.set_state(flight.client, BACKOFF);
            let (min, max) = self.sc.backoff;
            let pause = Duration::from_nanos(
                // rng is unavailable here (no ctx); derive the jitter
                // deterministically from the request id instead.
                min.as_nanos() as u64
                    + id.stable_hash() % (max.as_nanos() as u64 - min.as_nanos() as u64).max(1),
            );
            self.backoff.insert((now + pause).as_nanos(), flight.client);
        }
    }

    fn on_arrival_tick(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let now = ctx.now();
        let now_ns = now.as_nanos();
        self.counters.offered += 1;
        let idx = self.accum_index(now_ns);
        self.accums[idx].offered += 1;
        let client = ctx.rng().gen_range(0u32..self.sc.population);
        if self.table.state(client) != IDLE {
            self.counters.shed += 1;
            self.accums[idx].shed += 1;
        } else if client < self.straggler_cut {
            // Straggler: the request arrives now but leaves the client
            // only after an extra think/network delay.
            let (min, max) = self.sc.straggler_delay;
            let delay_ns = ctx
                .rng()
                .gen_range(min.as_nanos() as u64..=max.as_nanos() as u64);
            self.table.set_state(client, PENDING);
            self.counters.pending_issue += 1;
            let slot = match self.pending_free.pop() {
                Some(slot) => {
                    self.pending[slot] = Some((client, now_ns));
                    slot
                }
                None => {
                    self.pending.push(Some((client, now_ns)));
                    self.pending.len() - 1
                }
            };
            ctx.set_timer(
                Duration::from_nanos(delay_ns),
                P::tick(encode_tick(TAG_ISSUE, slot as u64)),
            );
        } else {
            self.issue(ctx, client, now_ns);
        }
        let rate = self.sc.base_rate * self.rate_mult;
        let gap = self.sampler.next_gap(rate, ctx.rng()).min(MAX_GAP);
        ctx.set_timer(gap, P::tick(encode_tick(TAG_ARRIVAL, 0)));
    }

    fn on_housekeep_tick(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let now = ctx.now();
        let now_ns = now.as_nanos();
        // Release due backoff buckets.
        self.release_buf.clear();
        self.backoff.pop_due(now_ns, &mut self.release_buf);
        for i in 0..self.release_buf.len() {
            let client = self.release_buf[i];
            debug_assert_eq!(self.table.state(client), BACKOFF);
            self.table.set_state(client, IDLE);
        }
        // Retransmit overdue flights.
        while let Some(id) = self.table.pop_due(now_ns) {
            let flight = self.table.get_mut(id).expect("a linked flight is live");
            if flight.retx_left == 0 {
                continue; // cap reached: keep waiting, links are lossless
            }
            flight.retx_left -= 1;
            let command = flight.command.clone();
            let idx = self.accum_index(now_ns);
            self.accums[idx].retransmits += 1;
            self.port.submit(ctx, &self.dir, Request::new(id, command));
            self.table
                .relink(id, now_ns + self.sc.retransmit_every.as_nanos() as u64);
        }
        ctx.set_timer(HOUSEKEEP_EVERY, P::tick(encode_tick(TAG_HOUSEKEEP, 0)));
    }

    fn on_phase_tick(&mut self, ctx: &mut Context<'_, P::Msg>) {
        if self.next_phase < self.sc.phases.len() {
            let ph = self.sc.phases[self.next_phase];
            self.rate_mult = ph.rate_mult;
            if ph.rotate_hotspot {
                self.rotations += 1;
                self.workload = self.workload.with_salt(self.sc.seed ^ self.rotations);
            }
            ctx.set_timer(ph.duration, P::tick(encode_tick(TAG_PHASE, 0)));
            self.next_phase += 1;
        } else {
            // Past the schedule: stop generating load so a longer-running
            // simulation merely drains.
            self.rate_mult = 0.0;
        }
    }

    fn on_issue_tick(&mut self, ctx: &mut Context<'_, P::Msg>, slot: usize) {
        let (client, arrived_ns) = self.pending[slot].take().expect("pending slot occupied");
        self.pending_free.push(slot);
        self.counters.pending_issue -= 1;
        debug_assert_eq!(self.table.state(client), PENDING);
        self.issue(ctx, client, arrived_ns);
    }

    /// Whole-run conservation counters.
    pub fn counters(&self) -> LoadCounters {
        self.counters
    }

    /// Checks counter conservation *and* the client-state books: every
    /// logical client must be exactly where one structure says it is
    /// (idle, on the wire, in a backoff bucket, or in the pending slab),
    /// and the flight slab must agree with the client array slot by slot.
    /// (Live flights equal the in-flight counter by the first two census
    /// rows: both equal the number of `IN_FLIGHT` clients.)
    pub fn conservation_error(&self) -> Option<String> {
        if let Some(err) = self.counters.conservation_error() {
            return Some(err);
        }
        let mut by_state = [0u64; 4];
        for c in &self.table.clients {
            by_state[c.state as usize] += 1;
        }
        let live_flights = self.table.live();
        let pending_live = self.pending.iter().filter(|p| p.is_some()).count() as u64;
        let checks = [
            (
                "in-flight clients vs flights",
                by_state[IN_FLIGHT as usize],
                live_flights,
            ),
            (
                "in-flight clients vs counter",
                by_state[IN_FLIGHT as usize],
                self.counters.in_flight,
            ),
            (
                "backoff clients vs wheel",
                by_state[BACKOFF as usize],
                self.backoff.len() as u64,
            ),
            (
                "pending clients vs slab",
                by_state[PENDING as usize],
                pending_live,
            ),
            (
                "pending clients vs counter",
                by_state[PENDING as usize],
                self.counters.pending_issue,
            ),
        ];
        for (what, a, b) in checks {
            if a != b {
                return Some(format!("{what}: {a} != {b}"));
            }
        }
        let total: u64 = by_state.iter().sum();
        if total != u64::from(self.sc.population) {
            return Some(format!(
                "state array covers {total} clients, population is {}",
                self.sc.population
            ));
        }
        self.table.slab_error()
    }

    fn sampled_summary(&self) -> SampledSummary {
        let mut worst_mean = 0.0f64;
        let mut worst_max = 0.0f64;
        let (mut s_sum, mut s_n, mut n_sum, mut n_n) = (0u64, 0u64, 0u64, 0u64);
        let mut sampled_clients = 0u32;
        for (i, &(count, sum, max)) in self.sampled.iter().enumerate() {
            if count == 0 {
                continue;
            }
            sampled_clients += 1;
            let client = i as u32 * self.sample_stride;
            let mean = sum as f64 / count as f64;
            worst_mean = worst_mean.max(mean);
            worst_max = worst_max.max(max as f64);
            if client < self.straggler_cut {
                s_sum += sum;
                s_n += count;
            } else {
                n_sum += sum;
                n_n += count;
            }
        }
        let mean_ms = |sum: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / 1e6
            }
        };
        SampledSummary {
            sampled_clients,
            worst_mean_ms: worst_mean / 1e6,
            worst_max_ms: worst_max / 1e6,
            straggler_mean_ms: mean_ms(s_sum, s_n),
            normal_mean_ms: mean_ms(n_sum, n_n),
        }
    }

    /// Assembles the per-phase and total metrics. Call after the
    /// simulation has run the full schedule.
    pub fn result(&self, protocol: &'static str) -> LoadRunResult {
        let sla = self.sc.sla;
        let warmup = self.accums[0].metrics("warmup".into(), self.sc.warmup, sla);
        let phases: Vec<PhaseMetrics> = self
            .sc
            .phases
            .iter()
            .zip(&self.accums[1..])
            .map(|(ph, accum)| accum.metrics(ph.label.into(), ph.duration, sla))
            .collect();
        let measured: Duration = self.sc.phases.iter().map(|p| p.duration).sum();
        let mut total_accum = PhaseAccum::new();
        for accum in &self.accums[1..] {
            total_accum.merge(accum);
        }
        let totals = total_accum.metrics("total".into(), measured, sla);
        LoadRunResult {
            scenario: self.sc.name.into(),
            protocol,
            population: self.sc.population,
            measured,
            warmup,
            phases,
            totals,
            order_violations: self.recorder.with(Recorder::order_violations),
            conservation: self.conservation_error(),
            counters: self.counters,
            sampled: self.sampled_summary(),
            events_processed: 0, // filled by the runner
            event_stats: idem_simnet::EventStats::default(),
            total_messages: 0,
        }
    }
}

impl<P: LoadPort> Node<P::Msg> for LoadSource<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        // The first arrival, the housekeeping heartbeat, and the phase
        // schedule (warmup first, then the declared phases).
        let rate = self.sc.base_rate * self.rate_mult;
        let gap = self.sampler.next_gap(rate, ctx.rng()).min(MAX_GAP);
        ctx.set_timer(gap, P::tick(encode_tick(TAG_ARRIVAL, 0)));
        ctx.set_timer(HOUSEKEEP_EVERY, P::tick(encode_tick(TAG_HOUSEKEEP, 0)));
        ctx.set_timer(self.sc.warmup, P::tick(encode_tick(TAG_PHASE, 0)));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: P::Msg) {
        let now = ctx.now();
        match self.port.classify(msg) {
            LoadEvent::Reply(reply) => {
                self.port.note_reply_from(&self.dir, from);
                if let Some(flight) = self.table.take(reply.id) {
                    self.finish(now, reply.id, flight, OutcomeKind::Success);
                }
                // else: duplicate reply (every replica answers, and again
                // per retransmission) or a reply for an operation already
                // abandoned after rejection — dropped, exactly like a
                // closed-loop client ignoring stale replies.
            }
            LoadEvent::Reject(id) => {
                let Some(flight) = self.table.get_mut(id) else {
                    return;
                };
                let decisive = match self.dir.replica_of(from) {
                    Some(r) => flight.rejects.record(r),
                    None => false,
                };
                if decisive {
                    let flight = self.table.take(id).expect("flight present");
                    let kind = if self.port.reject_is_final() {
                        OutcomeKind::RejectedFinal
                    } else {
                        OutcomeKind::RejectedAmbivalent
                    };
                    self.finish(now, id, flight, kind);
                }
            }
            // Load scenarios run a fixed group.
            LoadEvent::Membership(_) | LoadEvent::Other => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, _id: TimerId, msg: P::Msg) {
        let Some((tag, arg)) = P::tick_arg(&msg).map(decode_tick) else {
            return;
        };
        match tag {
            TAG_ARRIVAL => self.on_arrival_tick(ctx),
            TAG_HOUSEKEEP => self.on_housekeep_tick(ctx),
            TAG_PHASE => self.on_phase_tick(ctx),
            TAG_ISSUE => self.on_issue_tick(ctx, arg as usize),
            _ => unreachable!("unknown load tick tag"),
        }
    }
}

/// Builds the cluster for a load scenario and runs the full schedule,
/// returning the per-phase measurements.
pub fn run_load_scenario(protocol: &Protocol, sc: &LoadScenario) -> LoadRunResult {
    let total: Duration = sc.warmup + sc.phases.iter().map(|p| p.duration).sum::<Duration>();
    run_load_scenario_for(protocol, sc, total)
}

/// Same, for `total` of virtual time whatever the schedule's length.
fn run_load_scenario_for(protocol: &Protocol, sc: &LoadScenario, total: Duration) -> LoadRunResult {
    let (name, n) = (protocol.name(), protocol.replica_count());
    match protocol {
        Protocol::Idem { config, client } => drive(config, client, n, sc, name, total),
        Protocol::Paxos { config, client } => drive(config, client, n, sc, name, total),
        Protocol::Smart { config, client } => drive(config, client, n, sc, name, total),
    }
}

/// Wires `n` replicas of one protocol and the aggregate source, talking
/// through the port of the protocol's closed-loop `client`, and runs them
/// for `total`.
fn drive<M: Wired, C: ClientSetup>(
    config: &M::Config,
    client: &C,
    n: u32,
    sc: &LoadScenario,
    protocol: &'static str,
    total: Duration,
) -> LoadRunResult
where
    C::Port: LoadPort<Msg = M>,
{
    let mut sim: Simulation<M> = Simulation::with_network(sc.seed, experiment_network());
    let replicas: Vec<NodeId> = (0..n).map(|_| sim.reserve_node()).collect();
    let source = sim.reserve_node();
    let dir = Directory::with_client_fallback(replicas, Vec::new(), source);
    install_replicas(&mut sim, config, &dir, false, PersistMode::Disabled);
    let port = client.port(&dir, &Membership::bootstrap(n));
    let recorder =
        RecorderHandle::new(Recorder::new(sc.warmup, BIN_WIDTH).with_expected_duration(total));
    sim.install_node(
        source,
        Box::new(LoadSource::new(port, dir, sc.clone(), recorder)),
    );
    sim.run_for(total);
    let src = sim
        .node_as::<LoadSource<C::Port>>(source)
        .expect("load source type");
    let mut result = src.result(protocol);
    result.events_processed = sim.events_processed();
    result.event_stats = sim.event_stats();
    result.total_messages = sim.traffic().total_messages();
    result
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use crate::scenario::LoadScenario;
    use idem_common::load::LoadPhase;
    use idem_common::QuorumSet;
    use idem_core::{ClientConfig, IdemMessage, IdemPort};
    use proptest::prelude::*;

    fn tiny(name: &'static str, rate: f64) -> LoadScenario {
        LoadScenario::new(
            name,
            500,
            rate,
            vec![
                LoadPhase::new("base", Duration::from_millis(600), 1.0),
                LoadPhase::new("spike", Duration::from_millis(600), 2.0),
            ],
        )
        .with_warmup(Duration::from_millis(300))
    }

    #[test]
    fn conserves_and_completes_on_all_protocols() {
        for protocol in [Protocol::idem(), Protocol::paxos(), Protocol::smart()] {
            let result = run_load_scenario(&protocol, &tiny("tiny", 2_000.0));
            assert_eq!(result.order_violations, 0, "{}", result.protocol);
            assert_eq!(result.conservation, None, "{}", result.protocol);
            assert!(
                result.totals.completed > 500,
                "{}: only {} completed",
                result.protocol,
                result.totals.completed
            );
            assert!(result.totals.offered > result.totals.completed / 2);
            assert!(result.events_processed > 0);
        }
    }

    #[test]
    fn mmpp_source_goes_quiet_past_its_last_phase() {
        use idem_common::{ArrivalProcess, MmppState};
        let state = |rate_mult| MmppState {
            rate_mult,
            mean_dwell: Duration::from_millis(20),
        };
        let sc = tiny("mmpp-tail", 2_000.0)
            .with_process(ArrivalProcess::Mmpp(vec![state(0.4), state(1.6)]));
        let scheduled = run_load_scenario(&Protocol::idem(), &sc);
        // Past the schedule the source asks its sampler for a gap at rate
        // zero; an MMPP sampler used to never answer.
        let total = sc.warmup + sc.phases.iter().map(|p| p.duration).sum::<Duration>();
        let drained =
            run_load_scenario_for(&Protocol::idem(), &sc, total + Duration::from_millis(500));
        assert_eq!(drained.conservation, None);
        // At most the one arrival already armed when the schedule ended.
        assert!(drained.totals.offered <= scheduled.totals.offered + 1);
        assert!(drained.totals.completed >= scheduled.totals.completed);
    }

    #[test]
    fn spike_phase_offers_roughly_double() {
        let result = run_load_scenario(&Protocol::idem(), &tiny("double", 4_000.0));
        let base = result.phases[0].offered_per_s();
        let spike = result.phases[1].offered_per_s();
        assert!(
            spike > base * 1.6 && spike < base * 2.4,
            "base {base:.0}/s spike {spike:.0}/s"
        );
    }

    #[test]
    fn same_seed_same_result_different_seed_differs() {
        let a = run_load_scenario(&Protocol::idem(), &tiny("det", 2_000.0));
        let b = run_load_scenario(&Protocol::idem(), &tiny("det", 2_000.0));
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.events_processed, b.events_processed);
        let c = run_load_scenario(&Protocol::idem(), &tiny("det", 2_000.0).with_seed(9));
        assert_ne!(a.totals.offered, c.totals.offered);
    }

    #[test]
    fn stragglers_show_up_in_sampled_split() {
        let sc = tiny("strag", 2_000.0)
            .with_stragglers(0.2, (Duration::from_millis(20), Duration::from_millis(40)));
        let result = run_load_scenario(&Protocol::idem(), &sc);
        assert_eq!(result.conservation, None);
        assert!(
            result.sampled.straggler_mean_ms > result.sampled.normal_mean_ms + 10.0,
            "straggler {} ms vs normal {} ms",
            result.sampled.straggler_mean_ms,
            result.sampled.normal_mean_ms
        );
    }

    #[test]
    fn overload_triggers_rejection_on_idem_but_not_smart() {
        // 500 clients at ~12 k/s against a ~45 k/s cluster is calm; push
        // the rate over capacity instead: a small population at a high
        // rate keeps the test fast while saturating the replicas.
        let sc = LoadScenario::new(
            "overload",
            2_000,
            90_000.0,
            vec![LoadPhase::new("flood", Duration::from_millis(800), 1.0)],
        )
        .with_warmup(Duration::from_millis(200));
        let idem = run_load_scenario(&Protocol::idem(), &sc);
        assert!(
            idem.totals.rejected > 0,
            "IDEM under 2× load must reject ({:?})",
            idem.totals
        );
        assert_eq!(idem.conservation, None);
        let smart = run_load_scenario(&Protocol::smart(), &sc);
        assert_eq!(smart.totals.rejected, 0, "SMaRt has no reject path");
        assert_eq!(smart.conservation, None);
    }

    /// An unwired IDEM source for `sc` (never started).
    fn source(sc: LoadScenario) -> LoadSource<IdemPort> {
        let mut sim: Simulation<IdemMessage> = Simulation::new(1);
        let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
        let dir = Directory::with_client_fallback(replicas, Vec::new(), sim.reserve_node());
        let recorder =
            RecorderHandle::new(Recorder::new(Duration::ZERO, Duration::from_millis(250)));
        let client = ClientConfig::for_quorum(QuorumSet::for_faults(1));
        let port = client.port(&dir, &Membership::bootstrap(3));
        LoadSource::new(port, dir, sc, recorder)
    }

    #[test]
    #[should_panic(expected = "backoff range is (min, max)")]
    fn inverted_backoff_range_is_rejected() {
        let _ = source(LoadScenario {
            backoff: (Duration::from_millis(100), Duration::from_millis(50)),
            ..tiny("bad-backoff", 1_000.0)
        });
    }

    #[test]
    #[should_panic(expected = "straggler delay range is (min, max)")]
    fn inverted_straggler_delay_is_rejected() {
        let delay = (Duration::from_millis(40), Duration::from_millis(20));
        let _ = source(tiny("bad-delay", 1_000.0).with_stragglers(0.2, delay));
    }

    #[test]
    #[should_panic(expected = "straggler fraction must lie in [0, 1], got 1.5")]
    fn straggler_fraction_above_one_is_rejected() {
        let delay = (Duration::from_millis(20), Duration::from_millis(40));
        let _ = source(tiny("bad-fraction", 1_000.0).with_stragglers(1.5, delay));
    }

    #[test]
    #[should_panic(expected = "straggler fraction must lie in [0, 1], got -0.1")]
    fn negative_straggler_fraction_is_rejected() {
        let delay = (Duration::from_millis(20), Duration::from_millis(40));
        let _ = source(tiny("bad-fraction", 1_000.0).with_stragglers(-0.1, delay));
    }

    #[test]
    #[should_panic(expected = "straggler fraction must lie in [0, 1], got NaN")]
    fn nan_straggler_fraction_is_rejected() {
        let delay = (Duration::from_millis(20), Duration::from_millis(40));
        let _ = source(tiny("bad-fraction", 1_000.0).with_stragglers(f64::NAN, delay));
    }

    #[test]
    fn degenerate_but_ordered_ranges_are_accepted() {
        let at = Duration::from_millis(30);
        let src = source(LoadScenario {
            backoff: (at, at),
            ..tiny("point-ranges", 1_000.0).with_stragglers(1.0, (at, at))
        });
        assert_eq!(src.conservation_error(), None);
    }

    fn flight(client: u32, arrived_ns: u64) -> Flight {
        Flight {
            client,
            arrived_ns,
            command: Arc::from(&[][..]),
            due_ns: 0,
            prev: NIL,
            next: NIL,
            retx_left: 3,
            rejects: QuorumTracker::new(2),
        }
    }

    fn rid(client: u32, op: u64) -> RequestId {
        RequestId::new(ClientId(client), OpNumber(op))
    }

    /// The flights on the retransmit list, head to tail.
    fn linked(t: &ClientTable) -> Vec<u32> {
        let mut slots = Vec::new();
        let mut slot = t.head;
        while slot != NIL {
            slots.push(slot);
            slot = t.flights[slot as usize].as_ref().unwrap().next;
        }
        slots
    }

    #[test]
    fn slab_books_catch_each_kind_of_corruption() {
        let table = || {
            let mut t = ClientTable::new(4);
            for client in 0..3 {
                t.issue(client, flight(client, 0), 10 * u64::from(client + 1));
            }
            assert!(t.take(rid(1, 1)).is_some());
            assert_eq!(t.slab_error(), None);
            assert_eq!(linked(&t), [0, 2]);
            t // clients 0 and 2 live and linked in slots 0 and 2; slot 1 free
        };
        let err = |t: ClientTable| t.slab_error().expect("corruption goes unnoticed");

        let mut t = table();
        t.clients[0].flight = 2;
        assert_eq!(
            err(t),
            "client 0 in flight, but slot 2 holds client 2's flight"
        );

        let mut t = table();
        t.clients[2].flight = 1;
        assert_eq!(err(t), "client 2 in flight, but slot 1 holds no flight");

        let mut t = table();
        t.clients[2].flight = 9;
        assert_eq!(err(t), "client 2 in flight, but slot 9 holds no flight");

        let mut t = table();
        t.free.push(1);
        assert_eq!(err(t), "slot 1 is on the free list twice");

        let mut t = table();
        t.free.push(0);
        assert_eq!(err(t), "free list names slot 0, which is not empty");

        let mut t = table();
        t.free.clear();
        assert_eq!(err(t), "free list + live flights cover 2 slots, slab has 3");

        let mut t = table();
        t.head = 1;
        assert_eq!(
            err(t),
            "retransmit list links slot 1, which holds no flight"
        );

        let mut t = table();
        t.flight(2).next = 0;
        assert_eq!(err(t), "slot 0 is on the retransmit list twice");

        let mut t = table();
        t.flight(2).prev = 1;
        assert_eq!(err(t), "slot 2 follows slot 0 but names 1");

        let mut t = table();
        t.flight(2).due_ns = 5;
        assert_eq!(err(t), "slot 2 is due at 5 ns, before 10 ns");

        let mut t = table();
        t.tail = 0;
        assert_eq!(err(t), "retransmit list ends at slot 2, tail is 0");

        let mut t = table();
        t.unlink(2);
        t.flight(2).prev = 0;
        assert_eq!(err(t), "slot 2 is unlinked but names slot 0");
    }

    #[test]
    fn conservation_error_reports_the_slab_books() {
        let mut src = source(tiny("books", 1_000.0));
        assert_eq!(src.conservation_error(), None);
        src.table.flights.push(None);
        assert_eq!(
            src.conservation_error().as_deref(),
            Some("free list + live flights cover 0 slots, slab has 1")
        );
        // The census still runs first, with its messages unchanged.
        src.table.clients[7].state = IN_FLIGHT;
        assert_eq!(
            src.conservation_error().as_deref(),
            Some("in-flight clients vs flights: 1 != 0")
        );
    }

    const MODEL_POPULATION: u32 = 6;

    const MODEL_RETX_EVERY: u64 = 1_000;

    proptest! {
        /// The client-indexed flight table against the map it replaced,
        /// keyed by request id, and its retransmit list against the
        /// deadline queue it replaced, which kept every deadline until it
        /// came due and skipped those of flights gone by then. Ids are
        /// probed the way the wire does it: the live operation, the one
        /// before it (duplicate reply, reject of an abandoned operation),
        /// ones never issued, and clients outside the population.
        #[test]
        fn client_table_matches_request_id_map(
            steps in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u64>()), 1..600)
        ) {
            let mut table = ClientTable::new(MODEL_POPULATION);
            let mut model: BTreeMap<RequestId, (u64, u8)> = BTreeMap::new();
            let mut deadlines: VecDeque<(u64, RequestId)> = VecDeque::new();
            let mut now = 0u64;
            let mut issued = [0u64; MODEL_POPULATION as usize];

            for (sel, raw, val) in steps {
                let client = raw % (MODEL_POPULATION + 2);
                let known = client < MODEL_POPULATION;
                let current = if known { issued[client as usize] } else { 1 };
                let op = match (raw >> 8) % 6 {
                    0..=2 => current,
                    3 => current.saturating_sub(1),
                    4 => current + 1,
                    _ => val,
                };
                let id = rid(client, op);
                match sel % 5 {
                    0 if known && !model.contains_key(&rid(client, current)) => {
                        let due = now + MODEL_RETX_EVERY;
                        let id = table.issue(client, flight(client, val), due);
                        issued[client as usize] += 1;
                        prop_assert_eq!(id, rid(client, issued[client as usize]));
                        prop_assert!(model.insert(id, (val, 3)).is_none());
                        deadlines.push_back((due, id));
                    }
                    // Housekeeping: time moves on and every due flight is
                    // retransmitted and linked again, until its cap.
                    4 => {
                        now += val % (2 * MODEL_RETX_EVERY);
                        let mut want = Vec::new();
                        while let Some(&(due, id)) = deadlines.front() {
                            if due > now {
                                break;
                            }
                            deadlines.pop_front();
                            if let Some((_, left)) = model.get_mut(&id) {
                                want.push(id);
                                if *left > 0 {
                                    *left -= 1;
                                    deadlines.push_back((now + MODEL_RETX_EVERY, id));
                                }
                            }
                        }
                        let mut got = Vec::new();
                        while let Some(id) = table.pop_due(now) {
                            got.push(id);
                            let f = table.get_mut(id).expect("a popped flight is live");
                            if f.retx_left > 0 {
                                f.retx_left -= 1;
                                table.relink(id, now + MODEL_RETX_EVERY);
                            }
                        }
                        prop_assert_eq!(got, want);
                    }
                    // Reply: the first takes the flight, every other misses.
                    0 | 1 => {
                        let got = table.take(id).map(|f| (f.client, f.arrived_ns, f.retx_left));
                        let want = model.remove(&id).map(|(at, left)| (client, at, left));
                        prop_assert_eq!(got, want);
                    }
                    // Reject vote or retransmit deadline: mutate in place.
                    _ => {
                        let got = table.get_mut(id).map(|f| {
                            f.retx_left = f.retx_left.wrapping_sub(1);
                            (f.client, f.arrived_ns, f.retx_left)
                        });
                        let want = model.get_mut(&id).map(|(at, left)| {
                            *left = left.wrapping_sub(1);
                            (client, *at, *left)
                        });
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(table.slab_error(), None);
                prop_assert_eq!(table.live(), model.len() as u64);
                prop_assert!(linked(&table).len() as u64 <= table.live());
                for c in 0..MODEL_POPULATION {
                    let live = model.contains_key(&rid(c, issued[c as usize]));
                    prop_assert_eq!(table.state(c) == IN_FLIGHT, live);
                }
            }
            // Recycling: the slab never outgrows the population.
            prop_assert!(table.flights.len() <= MODEL_POPULATION as usize);
        }
    }
}
