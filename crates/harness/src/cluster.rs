//! Protocol-generic cluster construction on top of the simulator.

use std::ops::DerefMut;
use std::time::Duration;

use idem_common::{
    Client, ClientId, ClientPort, ClientSetup, Directory, OpNumber, PersistMode, ReconfigCommand,
    ReplicaBase, ReplicaId, ReplicaWire, Request, RequestId, StateMachine, RECONFIG_CLIENT,
};
use idem_core::{IdemMessage, IdemReplica};
use idem_kv::{KvStore, Workload, WorkloadSpec};
use idem_paxos::{PaxosMessage, PaxosReplica};
use idem_simnet::{DiskLatency, LinkSpec, Network, Node, NodeId, SimTime, Simulation};
use idem_smart::{SmartMessage, SmartReplica};

use crate::recorder::{Recorder, RecorderHandle, RecordingApp, BIN_WIDTH};

/// Per-operation execution cost of the replicated key-value store,
/// calibrated so a three-replica cluster saturates around the paper's
/// ≈43–46 k req/s. The bulk of the CPU cost sits in ordering + execution —
/// the same place as in the paper's Java prototype — so that the
/// accepted-but-unexecuted backlog (what the acceptance test measures)
/// actually grows under overload.
pub const KV_EXEC_COST: Duration = Duration::from_micros(20);

/// Per-message CPU handling cost (ingest, deserialization). Deliberately
/// small relative to [`KV_EXEC_COST`]: request ingest must not be the
/// bottleneck, or requests would queue *before* the acceptance test.
pub const MESSAGE_COST: Duration = Duration::from_nanos(500);

/// The data-center network model used by all experiments: 100 µs base
/// one-way latency plus up to 50 µs jitter, lossless.
pub fn experiment_network() -> Network {
    Network::new(LinkSpec::new(
        Duration::from_micros(100),
        Duration::from_micros(50),
    ))
}

/// The system under test: which protocol, with which configurations.
#[derive(Debug, Clone, PartialEq)]
pub enum Protocol {
    /// IDEM (or one of its ablation variants, via the embedded config).
    Idem {
        /// Replica-side configuration.
        config: idem_core::IdemConfig,
        /// Client-side configuration.
        client: idem_core::ClientConfig,
    },
    /// The Paxos baseline (plain or LBR, via the reject policy).
    Paxos {
        /// Replica-side configuration.
        config: idem_paxos::PaxosConfig,
        /// Client-side configuration.
        client: idem_paxos::PaxosClientConfig,
    },
    /// The BFT-SMaRt-style batching baseline.
    Smart {
        /// Replica-side configuration.
        config: idem_smart::SmartConfig,
        /// Client-side configuration.
        client: idem_smart::SmartClientConfig,
    },
}

impl Protocol {
    /// IDEM with the paper's default setup (`f = 1`, RT = 50, AQM,
    /// optimistic clients).
    pub fn idem() -> Protocol {
        Protocol::Idem {
            config: idem_core::IdemConfig::for_faults(1).with_message_cost(MESSAGE_COST),
            client: idem_core::ClientConfig::for_quorum(idem_common::QuorumSet::for_faults(1)),
        }
    }

    /// IDEM with a non-default reject threshold.
    pub fn idem_with_rt(rt: u32) -> Protocol {
        match Protocol::idem() {
            Protocol::Idem { config, client } => Protocol::Idem {
                config: config.with_reject_threshold(rt),
                client,
            },
            _ => unreachable!(),
        }
    }

    /// `IDEM_noPR`: rejection disabled.
    pub fn idem_no_pr() -> Protocol {
        match Protocol::idem() {
            Protocol::Idem { config, client } => Protocol::Idem {
                config: config.with_acceptance(idem_core::AcceptancePolicy::AlwaysAccept),
                client,
            },
            _ => unreachable!(),
        }
    }

    /// `IDEM_noAQM`: plain tail drop instead of active queue management.
    pub fn idem_no_aqm() -> Protocol {
        match Protocol::idem() {
            Protocol::Idem { config, client } => Protocol::Idem {
                config: config.with_acceptance(idem_core::AcceptancePolicy::TailDrop),
                client,
            },
            _ => unreachable!(),
        }
    }

    /// Plain Paxos (unbounded queues).
    pub fn paxos() -> Protocol {
        Protocol::Paxos {
            config: idem_paxos::PaxosConfig::for_faults(1).with_message_cost(MESSAGE_COST),
            client: idem_paxos::PaxosClientConfig::default(),
        }
    }

    /// Paxos with leader-based rejection at the given threshold.
    pub fn paxos_lbr(threshold: u32) -> Protocol {
        Protocol::Paxos {
            config: idem_paxos::PaxosConfig::for_faults(1)
                .with_message_cost(MESSAGE_COST)
                .with_reject_policy(idem_paxos::RejectPolicy::LeaderBased { threshold }),
            client: idem_paxos::PaxosClientConfig::default(),
        }
    }

    /// The BFT-SMaRt-style baseline.
    pub fn smart() -> Protocol {
        Protocol::Smart {
            config: idem_smart::SmartConfig::for_faults(1).with_message_cost(MESSAGE_COST),
            client: idem_smart::SmartClientConfig::default(),
        }
    }

    /// Human-readable system name as used in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Idem { config, .. } => match config.acceptance {
                idem_core::AcceptancePolicy::AlwaysAccept => "IDEM_noPR",
                idem_core::AcceptancePolicy::TailDrop => "IDEM_noAQM",
                idem_core::AcceptancePolicy::ActiveQueue => "IDEM",
            },
            Protocol::Paxos { config, .. } => match config.reject_policy {
                idem_paxos::RejectPolicy::Never => "Paxos",
                idem_paxos::RejectPolicy::LeaderBased { .. } => "Paxos_LBR",
            },
            Protocol::Smart { .. } => "BFT-SMaRt",
        }
    }

    /// Number of replicas this protocol instance runs with.
    pub fn replica_count(&self) -> u32 {
        match self {
            Protocol::Idem { config, .. } => config.quorum.n(),
            Protocol::Paxos { config, .. } => config.quorum.n(),
            Protocol::Smart { config, .. } => config.quorum.n(),
        }
    }
}

/// A replicated application, as the replica constructors take it.
type App = Box<dyn StateMachine + Send>;

/// One replication protocol as the harness wires it, keyed by its message
/// type: the replica node and its constructor. Everything else about a
/// replica is reached through its [`ReplicaBase`]; clients and load ports
/// come from the protocol's client configuration ([`ClientSetup`]).
pub(crate) trait Wired: ReplicaWire + 'static {
    /// Replica-side configuration.
    type Config: Clone + 'static;
    /// The replica node.
    type Replica: Node<Self> + DerefMut<Target = ReplicaBase>;

    /// Builds replica `me`.
    fn replica(
        cfg: &Self::Config,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: App,
    ) -> Self::Replica;
}

impl Wired for IdemMessage {
    type Config = idem_core::IdemConfig;
    type Replica = IdemReplica;

    fn replica(cfg: &Self::Config, me: ReplicaId, dir: Directory<NodeId>, app: App) -> IdemReplica {
        IdemReplica::new(cfg.clone(), me, dir, app)
    }
}

impl Wired for PaxosMessage {
    type Config = idem_paxos::PaxosConfig;
    type Replica = PaxosReplica;

    fn replica(
        cfg: &Self::Config,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: App,
    ) -> PaxosReplica {
        PaxosReplica::new(cfg.clone(), me, dir, app)
    }
}

impl Wired for SmartMessage {
    type Config = idem_smart::SmartConfig;
    type Replica = SmartReplica;

    fn replica(
        cfg: &Self::Config,
        me: ReplicaId,
        dir: Directory<NodeId>,
        app: App,
    ) -> SmartReplica {
        SmartReplica::new(cfg.clone(), me, dir, app)
    }
}

/// Builds replica `i` of one protocol at the `i`-th replica address of
/// `dir`, over a fresh key-value store, and installs it with a factory
/// that rebuilds it after a wipe, marked to replay its disk first.
/// `record` turns on its exec log; `persist` is its WAL discipline.
pub(crate) fn install_replicas<M: Wired>(
    sim: &mut Simulation<M>,
    config: &M::Config,
    dir: &Directory<NodeId>,
    record: bool,
    persist: PersistMode,
) {
    for (i, &node) in dir.replica_addrs().iter().enumerate() {
        let make = {
            let (config, dir) = (config.clone(), dir.clone());
            move |wiped: bool| {
                let store = KvStore::with_costs(KV_EXEC_COST, Duration::ZERO);
                let me = ReplicaId(i as u32);
                let mut replica = M::replica(&config, me, dir.clone(), Box::new(store));
                if record {
                    replica.enable_exec_log();
                }
                replica.set_persistence(persist);
                if wiped {
                    replica.mark_wipe_recovery();
                }
                replica
            }
        };
        sim.install_node(node, Box::new(make(false)));
        sim.set_node_factory(node, Box::new(move || Box::new(make(true))));
    }
}

enum ClusterSim {
    Idem(Simulation<IdemMessage>),
    Paxos(Simulation<PaxosMessage>),
    Smart(Simulation<SmartMessage>),
}

/// Where [`ClusterHandles`] need not know which protocol it runs (everywhere
/// but the per-protocol stats and the request a reconfiguration travels
/// in): binds the simulation, whatever its message type, to `$sim` and
/// evaluates `$body` — a call that is generic over that type.
macro_rules! on_sim {
    ($cluster_sim:expr, |$sim:ident| $body:expr) => {
        match $cluster_sim {
            ClusterSim::Idem($sim) => $body,
            ClusterSim::Paxos($sim) => $body,
            ClusterSim::Smart($sim) => $body,
        }
    };
}

fn replica_at<M: Wired>(sim: &Simulation<M>, node: NodeId) -> &M::Replica {
    sim.node_as::<M::Replica>(node).expect("replica type")
}

/// A running cluster: simulator, node ids, and the shared recorder.
pub struct ClusterHandles {
    sim: ClusterSim,
    /// Replica node ids, indexed by [`ReplicaId`].
    pub replicas: Vec<NodeId>,
    /// Client node ids, indexed by [`ClientId`].
    pub clients: Vec<NodeId>,
    /// The shared outcome recorder.
    pub recorder: RecorderHandle,
}

/// Cluster construction parameters beyond the protocol choice.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Number of closed-loop clients.
    pub clients: u32,
    /// The YCSB workload each client issues.
    pub workload: WorkloadSpec,
    /// RNG seed (fully determines the run).
    pub seed: u64,
    /// Outcomes completing before this are excluded from metrics.
    pub warmup: Duration,
    /// Per-client cap on issued operations (`None` = unbounded).
    pub ops_per_client: Option<u64>,
    /// Record per-replica execution logs for post-run invariant checking
    /// (off by default: costs memory proportional to the run length).
    pub record_exec_log: bool,
    /// Durable-storage discipline for every replica (disabled by default:
    /// the disk layer stays schedule-inert).
    pub persist: PersistMode,
    /// I/O latency charged per disk operation (zero by default).
    pub disk_latency: DiskLatency,
    /// Expected virtual run length past warmup, used to pre-size the
    /// recorder's time-series bins. A hint only; `None` skips pre-sizing.
    pub expected_duration: Option<Duration>,
    /// Spare replica slots beyond the protocol's base group. Spares are
    /// installed and addressable (the directory covers them) but start
    /// outside the membership: they serve no protocol role until a `Join`
    /// reconfiguration admits them. Zero keeps the cluster byte-identical
    /// to the fixed-membership build.
    pub spares: u32,
}

impl Default for ClusterOptions {
    fn default() -> ClusterOptions {
        ClusterOptions {
            clients: 50,
            workload: WorkloadSpec::update_heavy(),
            seed: 1,
            warmup: Duration::from_secs(1),
            ops_per_client: None,
            record_exec_log: false,
            persist: PersistMode::Disabled,
            disk_latency: DiskLatency::default(),
            expected_duration: None,
            spares: 0,
        }
    }
}

/// Builds a cluster of the given protocol with closed-loop YCSB clients.
pub fn build_cluster(protocol: &Protocol, opts: &ClusterOptions) -> ClusterHandles {
    // Base members plus passive spares: all get directory slots so a later
    // Join can address them, but only the first `n` start as members.
    let n = protocol.replica_count() + opts.spares;
    match protocol {
        Protocol::Idem { config, client } => wire(config, *client, n, opts, ClusterSim::Idem),
        Protocol::Paxos { config, client } => wire(config, *client, n, opts, ClusterSim::Paxos),
        Protocol::Smart { config, client } => wire(config, *client, n, opts, ClusterSim::Smart),
    }
}

/// Wires `n` replicas and `opts.clients` closed-loop clients of one
/// protocol, configured by `client`, into a fresh simulation.
fn wire<M: Wired, C: ClientSetup + Copy>(
    config: &M::Config,
    client: C,
    n: u32,
    opts: &ClusterOptions,
    wrap: fn(Simulation<M>) -> ClusterSim,
) -> ClusterHandles
where
    C::Port: ClientPort<Msg = M>,
{
    let mut recorder = Recorder::new(opts.warmup, BIN_WIDTH);
    if let Some(expected) = opts.expected_duration {
        recorder = recorder.with_expected_duration(expected);
    }
    let recorder = RecorderHandle::new(recorder);
    let mut sim: Simulation<M> = Simulation::with_network(opts.seed, experiment_network());
    sim.set_disk_latency(opts.disk_latency);
    let replicas: Vec<NodeId> = (0..n).map(|_| sim.reserve_node()).collect();
    let clients: Vec<NodeId> = (0..opts.clients).map(|_| sim.reserve_node()).collect();
    let dir = Directory::new(replicas.clone(), clients.clone());
    install_replicas(&mut sim, config, &dir, opts.record_exec_log, opts.persist);
    let workload = Workload::new(opts.workload, 0);
    for (i, &node) in clients.iter().enumerate() {
        let app = RecordingApp::new(
            workload.with_salt(i as u64),
            recorder.clone(),
            opts.seed.wrapping_mul(1000).wrapping_add(i as u64),
        );
        let app = match opts.ops_per_client {
            Some(limit) => app.with_limit(limit),
            None => app,
        };
        let chassis = Client::new(client, ClientId(i as u32), dir.clone(), Box::new(app));
        sim.install_node(node, Box::new(chassis));
    }
    ClusterHandles {
        sim: wrap(sim),
        replicas,
        clients,
        recorder,
    }
}

impl ClusterHandles {
    /// Runs the simulation forward by `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        on_sim!(&mut self.sim, |sim| sim.run_for(d))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        on_sim!(&self.sim, |sim| sim.now())
    }

    /// Crashes the replica with the given index immediately.
    pub fn crash_replica(&mut self, index: usize) {
        let node = self.replicas[index];
        on_sim!(&mut self.sim, |sim| sim.crash_now(node))
    }

    /// Recovers the replica with the given index immediately (no-op if it
    /// is up).
    pub fn recover_replica(&mut self, index: usize) {
        let node = self.replicas[index];
        on_sim!(&mut self.sim, |sim| sim.recover_now(node))
    }

    /// Wipes the replica at `index`: a crash with total amnesia. The
    /// `Node` object is discarded and rebuilt from its factory, losing all
    /// volatile state; the simulated disk survives. With
    /// `truncate_to_synced`, the un-synced tail of the disk is lost too
    /// (power-loss model). The rebuilt replica recovers immediately.
    pub fn wipe_replica(&mut self, index: usize, truncate_to_synced: bool) {
        let node = self.replicas[index];
        on_sim!(&mut self.sim, |sim| sim.wipe_now(node, truncate_to_synced))
    }

    /// The stable-storage device of the replica at `index`.
    pub fn disk(&self, index: usize) -> &idem_simnet::Disk {
        let node = self.replicas[index];
        on_sim!(&self.sim, |sim| sim.disk(node))
    }

    /// Write access to the same device, for fault injection.
    pub fn disk_mut(&mut self, index: usize) -> &mut idem_simnet::Disk {
        let node = self.replicas[index];
        on_sim!(&mut self.sim, |sim| sim.disk_mut(node))
    }

    /// The protocol-independent part of the replica at `index`.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    fn base(&self, index: usize) -> &ReplicaBase {
        let node = self.replicas[index];
        on_sim!(&self.sim, |sim| replica_at(sim, node))
    }

    /// The decision frontier of the replica at `index`, in the protocol's
    /// native slot numbering (next sequence number to execute for IDEM and
    /// Paxos, next batch instance for SMaRt). Comparable across replicas of
    /// one cluster, not across protocols.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn exec_frontier(&self, index: usize) -> u64 {
        self.base(index).next_exec().0
    }

    /// The membership epoch the replica at `index` currently operates in.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn epoch(&self, index: usize) -> u64 {
        self.base(index).membership().epoch().0
    }

    /// Whether the replica at `index` is a member of its own current
    /// membership (spares and departed replicas are not).
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn is_member(&self, index: usize) -> bool {
        self.base(index).is_member()
    }

    /// Injects a reconfiguration command into the cluster, exactly like a
    /// client multicast: the request (identity `RECONFIG_CLIENT`, operation
    /// number `op`) is posted to every replica node at the current virtual
    /// time. Members order it through the protocol; non-members ignore it.
    /// `op` must be unique per command within a run — it is the dedup key.
    pub fn inject_reconfig(&mut self, op: u64, cmd: &ReconfigCommand) {
        let req = Request::new(RequestId::new(RECONFIG_CLIENT, OpNumber(op)), cmd.encode());
        for &node in &self.replicas {
            match &mut self.sim {
                ClusterSim::Idem(sim) => sim.post(node, IdemMessage::Request(req.clone())),
                ClusterSim::Paxos(sim) => sim.post(node, PaxosMessage::Request(req.clone())),
                ClusterSim::Smart(sim) => sim.post(node, SmartMessage::Request(req.clone())),
            }
        }
    }

    /// Sets the CPU degradation factor of the replica at `index` (1.0 =
    /// nominal speed).
    pub fn set_replica_cpu_factor(&mut self, index: usize, factor: f64) {
        let node = self.replicas[index];
        on_sim!(&mut self.sim, |sim| sim.set_cpu_factor(node, factor))
    }

    /// Mutable access to the network model, for partitions, loss bursts,
    /// and link overrides between [`run_for`](Self::run_for) calls.
    pub fn network_mut(&mut self) -> &mut Network {
        on_sim!(&mut self.sim, |sim| sim.network_mut())
    }

    /// Partitions the replicas with indexes in `a` from those in `b`
    /// (both directions). Clients keep reaching every replica.
    pub fn partition_replicas(&mut self, a: &[usize], b: &[usize]) {
        let left: Vec<NodeId> = a.iter().map(|&i| self.replicas[i]).collect();
        let right: Vec<NodeId> = b.iter().map(|&i| self.replicas[i]).collect();
        self.network_mut().partition(&left, &right);
    }

    /// Removes all link blocking, healing any partition.
    pub fn heal_partitions(&mut self) {
        self.network_mut().heal();
    }

    /// Sets the network-wide message drop probability (0.0 disables).
    pub fn set_global_loss(&mut self, p: f64) {
        self.network_mut().set_global_drop(p);
    }

    /// The recorded execution log of the replica at `index` (empty unless
    /// the cluster was built with
    /// [`record_exec_log`](ClusterOptions::record_exec_log)).
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn exec_log(&self, index: usize) -> Vec<idem_common::ExecRecord> {
        self.base(index).exec_log().to_vec()
    }

    /// Total bytes sent on links where at least one endpoint is a client.
    pub fn client_traffic_bytes(&self) -> u64 {
        let replica_max = self.replicas.len() as u32;
        let is_replica = move |n: NodeId| n.0 < replica_max;
        self.traffic()
            .bytes_matching(|f, to| !is_replica(f) || !is_replica(to))
    }

    /// Total bytes sent between replicas.
    pub fn replica_traffic_bytes(&self) -> u64 {
        let replica_max = self.replicas.len() as u32;
        let is_replica = move |n: NodeId| n.0 < replica_max;
        self.traffic()
            .bytes_matching(|f, to| is_replica(f) && is_replica(to))
    }

    /// Total bytes sent on all links.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.traffic().total_bytes()
    }

    /// Total messages sent on all links.
    pub fn total_messages(&self) -> u64 {
        self.traffic().total_messages()
    }

    fn traffic(&self) -> &idem_simnet::Traffic {
        on_sim!(&self.sim, |sim| sim.traffic())
    }

    /// IDEM replica stats (None when running a baseline protocol).
    pub fn idem_stats(&self, index: usize) -> Option<idem_core::ReplicaStats> {
        match &self.sim {
            ClusterSim::Idem(sim) => Some(*replica_at(sim, self.replicas[index]).stats()),
            _ => None,
        }
    }

    /// Paxos replica stats (None when running another protocol).
    pub fn paxos_stats(&self, index: usize) -> Option<idem_paxos::PaxosReplicaStats> {
        match &self.sim {
            ClusterSim::Paxos(sim) => Some(*replica_at(sim, self.replicas[index]).stats()),
            _ => None,
        }
    }

    /// SMaRt replica stats (None when running another protocol).
    pub fn smart_stats(&self, index: usize) -> Option<idem_smart::SmartReplicaStats> {
        match &self.sim {
            ClusterSim::Smart(sim) => Some(*replica_at(sim, self.replicas[index]).stats()),
            _ => None,
        }
    }

    /// Digest of the replicated key-value store of the replica at `index`,
    /// for cross-replica state-equality assertions.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn app_digest(&self, index: usize) -> u64 {
        let mut kv = KvStore::new();
        kv.restore(&self.base(index).app().snapshot());
        kv.digest()
    }

    /// Number of events processed so far (for performance reporting).
    pub fn events_processed(&self) -> u64 {
        on_sim!(&self.sim, |sim| sim.events_processed())
    }

    /// Per-kind dispatch breakdown and queue high-water mark of the
    /// underlying simulation (for performance reporting).
    pub fn event_stats(&self) -> idem_simnet::EventStats {
        on_sim!(&self.sim, |sim| sim.event_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_match_paper_labels() {
        assert_eq!(Protocol::idem().name(), "IDEM");
        assert_eq!(Protocol::idem_no_pr().name(), "IDEM_noPR");
        assert_eq!(Protocol::idem_no_aqm().name(), "IDEM_noAQM");
        assert_eq!(Protocol::paxos().name(), "Paxos");
        assert_eq!(Protocol::paxos_lbr(50).name(), "Paxos_LBR");
        assert_eq!(Protocol::smart().name(), "BFT-SMaRt");
    }

    #[test]
    fn idem_with_rt_adjusts_threshold() {
        match Protocol::idem_with_rt(75) {
            Protocol::Idem { config, .. } => assert_eq!(config.reject_threshold, 75),
            _ => panic!("wrong protocol"),
        }
    }

    #[test]
    fn small_cluster_runs_and_records() {
        let opts = ClusterOptions {
            clients: 2,
            warmup: Duration::ZERO,
            ops_per_client: Some(10),
            ..ClusterOptions::default()
        };
        for protocol in [Protocol::idem(), Protocol::paxos(), Protocol::smart()] {
            let mut cluster = build_cluster(&protocol, &opts);
            cluster.run_for(Duration::from_secs(3));
            let successes = cluster.recorder.with(Recorder::successes);
            assert_eq!(successes, 20, "{} lost operations", protocol.name());
            assert!(cluster.total_traffic_bytes() > 0);
        }
    }

    #[test]
    fn traffic_split_covers_total() {
        let opts = ClusterOptions {
            clients: 2,
            warmup: Duration::ZERO,
            ops_per_client: Some(5),
            ..ClusterOptions::default()
        };
        let mut cluster = build_cluster(&Protocol::idem(), &opts);
        cluster.run_for(Duration::from_secs(2));
        assert_eq!(
            cluster.client_traffic_bytes() + cluster.replica_traffic_bytes(),
            cluster.total_traffic_bytes()
        );
    }
}
