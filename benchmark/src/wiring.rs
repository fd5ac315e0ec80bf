//! The benchmark's own cluster construction.
//!
//! `idem_harness::build_cluster` and `run_load_scenario` build, run and
//! collect in one call, and the harness's load ports keep their fields
//! private. The benchmark needs set-up, warm-up, the measured window, fault
//! injection and the [`Traced`] wrappers under its own control, so it
//! implements the public [`LoadPort`] trait for the three protocols here
//! and assembles `Simulation` + replicas + clients or `LoadSource` directly.
//! Node ids are reserved replicas first, exactly as the harness does.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

use idem_common::driver::{ClientApp, OperationOutcome};
use idem_common::{
    ClientId, Directory, ExecRecord, OpNumber, PersistMode, ReplicaId, Request, StateMachine,
};
use idem_core::{IdemClient, IdemMessage, IdemReplica};
use idem_harness::cluster::{experiment_network, KV_EXEC_COST};
use idem_harness::load::{LoadEvent, LoadPort};
use idem_harness::recorder::RecordingApp;
use idem_harness::{LoadScenario, LoadSource, Recorder, RecorderHandle};
use idem_kv::{KvStore, Workload, WorkloadSpec};
use idem_paxos::{PaxosClient, PaxosMessage, PaxosReplica};
use idem_simnet::{Context, DiskLatency, Node, NodeId, Simulation, Wire};
use idem_smart::{SmartClient, SmartMessage, SmartReplica};
use rand::rngs::SmallRng;

use crate::trace::{Layer, Tagged, Traced, TracedApp, Tracer};

/// Width of the recorder's time-series bins: the resolution of the outage
/// measurement.
pub const OUTAGE_BIN: Duration = Duration::from_millis(5);

/// Storage discipline and logging of one cell's replicas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Durability {
    /// Write-ahead logging mode.
    pub persist: PersistMode,
    /// Latency charged per disk append and fsync.
    pub disk: DiskLatency,
    /// Record per-replica execution logs for the safety checks.
    pub exec_log: bool,
}

/// Replica counters in a protocol-independent shape. Counters a protocol
/// does not have read zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Next slot to execute (instance number for SMaRt).
    pub frontier: u64,
    /// Client requests received.
    pub requests_received: u64,
    /// Requests proactively rejected.
    pub rejected: u64,
    /// Commands executed.
    pub executed: u64,
    /// Requests relayed to peers (IDEM forwards, Paxos leader redirects).
    pub forwards: u64,
    /// View changes completed.
    pub view_changes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Deepest request queue (Paxos) or pending pool (SMaRt).
    pub max_queue: u64,
    /// Batches decided (SMaRt).
    pub batches: u64,
}

/// One replication protocol, as the benchmark wires it: its node types and
/// the three places they differ (construction, client port, counters).
pub trait Proto: Clone + 'static {
    /// The protocol's message type.
    type Msg: Wire + Clone + Tagged + 'static;
    /// The replica node.
    type Replica: Node<Self::Msg>;
    /// The closed-loop client node.
    type Client: Node<Self::Msg>;
    /// The open-loop port.
    type Port: LoadPort<Msg = Self::Msg>;
    /// The ledger layer the replica's handler time belongs to.
    const LAYER: Layer;

    /// Replica group size.
    fn n(&self) -> u32;
    /// Executions between two checkpoints.
    fn checkpoint_interval(&self) -> u64;
    /// Builds replica `me`; `wiped` marks a rebuild after an amnesia wipe.
    fn replica(
        &self,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
        durability: &Durability,
        wiped: bool,
    ) -> Self::Replica;
    /// Builds closed-loop client `id` driven by `app`.
    fn client(&self, id: ClientId, dir: Directory<NodeId>, app: Box<dyn ClientApp>)
        -> Self::Client;
    /// Builds the open-loop port towards `replicas`.
    fn port(&self, replicas: Vec<NodeId>) -> Self::Port;
    /// Reads a replica's counters.
    fn probe(replica: &Self::Replica) -> Probe;
    /// A replica's execution log.
    fn exec_log(replica: &Self::Replica) -> &[ExecRecord];
    /// A replica's state machine.
    fn app(replica: &Self::Replica) -> &dyn StateMachine;
}

/// The set-up calls the three replica types share by name but not by trait.
macro_rules! configure {
    ($replica:ident, $durability:ident, $wiped:ident) => {{
        if $durability.exec_log {
            $replica.enable_exec_log();
        }
        $replica.set_persistence($durability.persist);
        if $wiped {
            $replica.mark_wipe_recovery();
        }
        $replica
    }};
}

/// IDEM: requests multicast to all replicas, rejects counted toward the
/// ambivalence quorum `n - f`.
#[derive(Debug, Clone)]
pub struct Idem {
    /// Replica configuration.
    pub config: idem_core::IdemConfig,
    /// Closed-loop client configuration.
    pub client: idem_core::ClientConfig,
}

/// Open-loop port for [`Idem`].
pub struct IdemPort {
    replicas: Vec<NodeId>,
    ambivalence: u32,
}

impl LoadPort for IdemPort {
    type Msg = IdemMessage;

    fn submit(&mut self, ctx: &mut Context<'_, IdemMessage>, _: &Directory<NodeId>, req: Request) {
        ctx.multicast(self.replicas.iter().copied(), IdemMessage::Request(req));
    }

    fn classify(&self, msg: IdemMessage) -> LoadEvent {
        match msg {
            IdemMessage::Reply(reply) => LoadEvent::Reply(reply),
            IdemMessage::Reject(id) => LoadEvent::Reject(id),
            _ => LoadEvent::Other,
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        Some(self.ambivalence)
    }

    fn reject_is_final(&self) -> bool {
        false
    }

    fn tick(arg: u64) -> IdemMessage {
        IdemMessage::RetransmitTimer(OpNumber(arg))
    }

    fn tick_arg(msg: &IdemMessage) -> Option<u64> {
        match msg {
            IdemMessage::RetransmitTimer(op) => Some(op.0),
            _ => None,
        }
    }
}

impl Proto for Idem {
    type Msg = IdemMessage;
    type Replica = IdemReplica;
    type Client = IdemClient;
    type Port = IdemPort;
    const LAYER: Layer = Layer::CoreReplica;

    fn n(&self) -> u32 {
        self.config.quorum.n()
    }

    fn checkpoint_interval(&self) -> u64 {
        self.config.checkpoint_interval
    }

    fn replica(
        &self,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
        durability: &Durability,
        wiped: bool,
    ) -> IdemReplica {
        let mut replica = IdemReplica::new(self.config.clone(), me, dir, app);
        configure!(replica, durability, wiped)
    }

    fn client(&self, id: ClientId, dir: Directory<NodeId>, app: Box<dyn ClientApp>) -> IdemClient {
        IdemClient::new(self.client, id, dir, app)
    }

    fn port(&self, replicas: Vec<NodeId>) -> IdemPort {
        IdemPort {
            replicas,
            ambivalence: self.config.quorum.ambivalence(),
        }
    }

    fn probe(replica: &IdemReplica) -> Probe {
        let s = replica.stats();
        Probe {
            frontier: replica.next_exec().0,
            requests_received: s.requests_received,
            rejected: s.rejected,
            executed: s.executed,
            forwards: s.forwards_sent,
            view_changes: s.view_changes_completed,
            checkpoints: s.checkpoints_taken,
            max_queue: 0,
            batches: 0,
        }
    }

    fn exec_log(replica: &IdemReplica) -> &[ExecRecord] {
        replica.exec_log()
    }

    fn app(replica: &IdemReplica) -> &dyn StateMachine {
        replica.app()
    }
}

/// Paxos: requests go to the presumed leader, tracked from reply senders.
#[derive(Debug, Clone)]
pub struct Paxos {
    /// Replica configuration.
    pub config: idem_paxos::PaxosConfig,
    /// Closed-loop client configuration.
    pub client: idem_paxos::PaxosClientConfig,
}

/// Open-loop port for [`Paxos`].
pub struct PaxosPort {
    leader: ReplicaId,
}

impl LoadPort for PaxosPort {
    type Msg = PaxosMessage;

    fn submit(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        dir: &Directory<NodeId>,
        req: Request,
    ) {
        ctx.send(dir.replica(self.leader), PaxosMessage::Request(req));
    }

    fn classify(&self, msg: PaxosMessage) -> LoadEvent {
        match msg {
            PaxosMessage::Reply(reply) => LoadEvent::Reply(reply),
            PaxosMessage::Reject(id) => LoadEvent::Reject(id),
            _ => LoadEvent::Other,
        }
    }

    fn note_reply_from(&mut self, dir: &Directory<NodeId>, from: NodeId) {
        if let Some(r) = dir.replica_of(from) {
            self.leader = r;
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        None
    }

    fn reject_is_final(&self) -> bool {
        true
    }

    fn tick(arg: u64) -> PaxosMessage {
        PaxosMessage::ClientTimeout(OpNumber(arg))
    }

    fn tick_arg(msg: &PaxosMessage) -> Option<u64> {
        match msg {
            PaxosMessage::ClientTimeout(op) => Some(op.0),
            _ => None,
        }
    }
}

impl Proto for Paxos {
    type Msg = PaxosMessage;
    type Replica = PaxosReplica;
    type Client = PaxosClient;
    type Port = PaxosPort;
    const LAYER: Layer = Layer::PaxosReplica;

    fn n(&self) -> u32 {
        self.config.quorum.n()
    }

    fn checkpoint_interval(&self) -> u64 {
        self.config.checkpoint_interval
    }

    fn replica(
        &self,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
        durability: &Durability,
        wiped: bool,
    ) -> PaxosReplica {
        let mut replica = PaxosReplica::new(self.config.clone(), me, dir, app);
        configure!(replica, durability, wiped)
    }

    fn client(&self, id: ClientId, dir: Directory<NodeId>, app: Box<dyn ClientApp>) -> PaxosClient {
        PaxosClient::new(self.client, id, dir, app)
    }

    fn port(&self, _replicas: Vec<NodeId>) -> PaxosPort {
        PaxosPort {
            leader: ReplicaId(0),
        }
    }

    fn probe(replica: &PaxosReplica) -> Probe {
        let s = replica.stats();
        Probe {
            frontier: replica.next_exec().0,
            requests_received: s.requests_received,
            rejected: s.rejected,
            executed: s.executed,
            forwards: s.requests_forwarded_to_leader,
            view_changes: s.view_changes_completed,
            checkpoints: s.checkpoints_taken,
            max_queue: s.max_queue_len,
            batches: 0,
        }
    }

    fn exec_log(replica: &PaxosReplica) -> &[ExecRecord] {
        replica.exec_log()
    }

    fn app(replica: &PaxosReplica) -> &dyn StateMachine {
        replica.app()
    }
}

/// The BFT-SMaRt-style baseline: multicast requests, first reply wins, no
/// rejection path.
#[derive(Debug, Clone)]
pub struct Smart {
    /// Replica configuration.
    pub config: idem_smart::SmartConfig,
    /// Closed-loop client configuration.
    pub client: idem_smart::SmartClientConfig,
}

/// Open-loop port for [`Smart`].
pub struct SmartPort {
    replicas: Vec<NodeId>,
}

impl LoadPort for SmartPort {
    type Msg = SmartMessage;

    fn submit(&mut self, ctx: &mut Context<'_, SmartMessage>, _: &Directory<NodeId>, req: Request) {
        ctx.multicast(self.replicas.iter().copied(), SmartMessage::Request(req));
    }

    fn classify(&self, msg: SmartMessage) -> LoadEvent {
        match msg {
            SmartMessage::Reply(reply) => LoadEvent::Reply(reply),
            _ => LoadEvent::Other,
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        None
    }

    fn reject_is_final(&self) -> bool {
        true
    }

    fn tick(arg: u64) -> SmartMessage {
        SmartMessage::ClientTimeout(OpNumber(arg))
    }

    fn tick_arg(msg: &SmartMessage) -> Option<u64> {
        match msg {
            SmartMessage::ClientTimeout(op) => Some(op.0),
            _ => None,
        }
    }
}

impl Proto for Smart {
    type Msg = SmartMessage;
    type Replica = SmartReplica;
    type Client = SmartClient;
    type Port = SmartPort;
    const LAYER: Layer = Layer::SmartReplica;

    fn n(&self) -> u32 {
        self.config.quorum.n()
    }

    fn checkpoint_interval(&self) -> u64 {
        self.config.checkpoint_interval
    }

    fn replica(
        &self,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: Box<dyn StateMachine + Send>,
        durability: &Durability,
        wiped: bool,
    ) -> SmartReplica {
        let mut replica = SmartReplica::new(self.config.clone(), me, dir, app);
        configure!(replica, durability, wiped)
    }

    fn client(&self, id: ClientId, dir: Directory<NodeId>, app: Box<dyn ClientApp>) -> SmartClient {
        SmartClient::new(self.client, id, dir, app)
    }

    fn port(&self, replicas: Vec<NodeId>) -> SmartPort {
        SmartPort { replicas }
    }

    fn probe(replica: &SmartReplica) -> Probe {
        let s = replica.stats();
        Probe {
            frontier: replica.next_sqn().0,
            requests_received: s.requests_received,
            rejected: 0,
            executed: s.executed,
            forwards: 0,
            view_changes: s.view_changes_completed,
            checkpoints: s.checkpoints_taken,
            max_queue: s.max_pending_len,
            batches: s.batches_decided,
        }
    }

    fn exec_log(replica: &SmartReplica) -> &[ExecRecord] {
        replica.exec_log()
    }

    fn app(replica: &SmartReplica) -> &dyn StateMachine {
        replica.app()
    }
}

/// The closed-loop driver app: the harness's [`RecordingApp`] plus the two
/// things the benchmark adds — a within-SLA success count, and a stop flag
/// so the cluster can quiesce before replica states are compared.
struct GatedApp {
    inner: RecordingApp,
    gate: Rc<ClosedGate>,
}

/// State shared by a closed-loop cell's [`GatedApp`]s.
#[derive(Debug)]
pub struct ClosedGate {
    warmup_ns: u64,
    sla: Duration,
    within_sla: Cell<u64>,
    stopped: Cell<bool>,
}

impl ClientApp for GatedApp {
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>> {
        if self.gate.stopped.get() {
            return None;
        }
        self.inner.next_command(rng)
    }

    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        if outcome.kind.is_success()
            && outcome.latency <= self.gate.sla
            && outcome.completed_at.as_nanos() >= self.gate.warmup_ns
        {
            self.gate.within_sla.set(self.gate.within_sla.get() + 1);
        }
        self.inner.on_outcome(outcome);
    }
}

/// Who offers the load of a cell.
pub enum Driver {
    /// Closed-loop clients, one simulator node each.
    Closed(Rc<ClosedGate>),
    /// The aggregate open-loop source at this node.
    Open(NodeId),
}

/// A wired cluster: simulator, node ids, recorder and (on a traced run)
/// the span sink.
pub struct Cluster<P: Proto> {
    /// The simulation.
    pub sim: Simulation<P::Msg>,
    /// Replica node ids, indexed by replica id.
    pub replicas: Vec<NodeId>,
    /// The shared outcome recorder.
    pub recorder: RecorderHandle,
    /// The load driver.
    pub driver: Driver,
    /// The span sink of a traced run.
    pub tracer: Option<Rc<Tracer>>,
}

/// Inputs common to both cluster shapes.
pub struct ClusterSpec<'a, P: Proto> {
    /// The protocol and its configuration.
    pub proto: &'a P,
    /// Simulation seed.
    pub seed: u64,
    /// Outcomes before this are excluded from the recorder's statistics.
    pub warmup: Duration,
    /// Expected total run length, to pre-size the recorder's bins.
    pub total: Duration,
    /// Storage discipline.
    pub durability: Durability,
    /// Whether to wrap every node and app for tracing.
    pub traced: bool,
}

impl<P: Proto> Cluster<P> {
    fn start(spec: &ClusterSpec<'_, P>, driver: Driver) -> Cluster<P> {
        let mut sim = Simulation::with_network(spec.seed, experiment_network());
        sim.set_disk_latency(spec.durability.disk);
        let replicas = (0..spec.proto.n()).map(|_| sim.reserve_node()).collect();
        let recorder = RecorderHandle::new(
            Recorder::new(spec.warmup, OUTAGE_BIN).with_expected_duration(spec.total),
        );
        Cluster {
            sim,
            replicas,
            recorder,
            driver,
            tracer: spec.traced.then(Tracer::new),
        }
    }

    fn install<N: Node<P::Msg> + 'static>(&mut self, id: NodeId, node: N, layer: Layer) {
        match &self.tracer {
            Some(tracer) => self
                .sim
                .install_node(id, Box::new(Traced::new(node, layer, tracer.clone()))),
            None => self.sim.install_node(id, Box::new(node)),
        }
    }

    fn install_replicas(&mut self, spec: &ClusterSpec<'_, P>, dir: &Directory<NodeId>) {
        for (i, &id) in self.replicas.clone().iter().enumerate() {
            let (proto, dir, durability) = (spec.proto.clone(), dir.clone(), spec.durability);
            let clock = self.tracer.as_ref().map(|t| t.app_clock());
            let make = move |wiped: bool| {
                let store: Box<dyn StateMachine + Send> =
                    Box::new(KvStore::with_costs(KV_EXEC_COST, Duration::ZERO));
                let app: Box<dyn StateMachine + Send> = match &clock {
                    Some(clock) => Box::new(TracedApp::new(store, clock.clone())),
                    None => store,
                };
                proto.replica(ReplicaId(i as u32), dir.clone(), app, &durability, wiped)
            };
            self.install(id, make(false), P::LAYER);
            let tracer = self.tracer.clone();
            self.sim.set_node_factory(
                id,
                Box::new(move || -> Box<dyn Node<P::Msg>> {
                    match &tracer {
                        Some(tracer) => Box::new(Traced::new(make(true), P::LAYER, tracer.clone())),
                        None => Box::new(make(true)),
                    }
                }),
            );
        }
    }

    /// Wires `clients` closed-loop clients issuing `workload`, each with
    /// the harness's per-client workload salt and command stream seed.
    pub fn closed(
        spec: &ClusterSpec<'_, P>,
        clients: u32,
        workload: WorkloadSpec,
        sla: Duration,
    ) -> Cluster<P> {
        let gate = Rc::new(ClosedGate {
            warmup_ns: spec.warmup.as_nanos() as u64,
            sla,
            within_sla: Cell::new(0),
            stopped: Cell::new(false),
        });
        let mut cluster = Cluster::start(spec, Driver::Closed(gate.clone()));
        let nodes: Vec<NodeId> = (0..clients).map(|_| cluster.sim.reserve_node()).collect();
        let dir = Directory::new(cluster.replicas.clone(), nodes.clone());
        cluster.install_replicas(spec, &dir);
        for (i, &id) in nodes.iter().enumerate() {
            let app = GatedApp {
                inner: RecordingApp::new(
                    Workload::new(workload, i as u64),
                    cluster.recorder.clone(),
                    spec.seed.wrapping_mul(1000).wrapping_add(i as u64),
                ),
                gate: gate.clone(),
            };
            let client = spec
                .proto
                .client(ClientId(i as u32), dir.clone(), Box::new(app));
            cluster.install(id, client, Layer::Client);
        }
        cluster
    }

    /// Wires one aggregate `LoadSource` running `scenario`.
    pub fn open(spec: &ClusterSpec<'_, P>, scenario: &LoadScenario) -> Cluster<P> {
        // Node ids are dense in reservation order: the source follows the
        // replicas.
        let mut cluster = Cluster::start(spec, Driver::Open(NodeId(spec.proto.n())));
        let source = cluster.sim.reserve_node();
        assert!(matches!(cluster.driver, Driver::Open(id) if id == source));
        let dir = Directory::with_client_fallback(cluster.replicas.clone(), Vec::new(), source);
        cluster.install_replicas(spec, &dir);
        let load = LoadSource::new(
            spec.proto.port(cluster.replicas.clone()),
            dir,
            scenario.clone(),
            cluster.recorder.clone(),
        );
        cluster.install(source, load, Layer::Load);
        cluster
    }

    fn node<N: 'static>(&self, id: NodeId) -> &N {
        self.sim
            .node_as::<N>(id)
            .or_else(|| self.sim.node_as::<Traced<N>>(id).map(Traced::inner))
            .expect("node has the type it was installed with")
    }

    /// The replica at `index`.
    pub fn replica(&self, index: usize) -> &P::Replica {
        self.node(self.replicas[index])
    }

    /// The open-loop source, if this cell has one.
    pub fn source(&self) -> Option<&LoadSource<P::Port>> {
        match self.driver {
            Driver::Open(id) => Some(self.node(id)),
            Driver::Closed(_) => None,
        }
    }

    /// Counters of the replica at `index`.
    pub fn probe(&self, index: usize) -> Probe {
        P::probe(self.replica(index))
    }

    /// Digest of the key-value store of the replica at `index`.
    pub fn app_digest(&self, index: usize) -> u64 {
        let mut kv = KvStore::new();
        kv.restore(&P::app(self.replica(index)).snapshot());
        kv.digest()
    }

    /// Stops the load so the replicas can settle. Closed-loop clients issue
    /// nothing further. The open-loop source is crashed rather than left to
    /// idle past its schedule: `LoadSource` then samples gaps at rate zero,
    /// and `ArrivalSampler::next_gap` never returns for an MMPP process at
    /// rate zero.
    pub fn stop_load(&mut self) {
        match &self.driver {
            Driver::Closed(gate) => gate.stopped.set(true),
            Driver::Open(source) => self.sim.crash_now(*source),
        }
    }

    /// Within-SLA successes counted by the closed-loop gate.
    pub fn closed_within_sla(&self) -> Option<u64> {
        match &self.driver {
            Driver::Closed(gate) => Some(gate.within_sla.get()),
            Driver::Open(_) => None,
        }
    }
}
