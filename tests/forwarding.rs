//! Tests of IDEM's forwarding mechanism and Property 5.1 (server-side
//! liveness) under partitions, loss, and pathological client placement.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use idem_common::app::NullApp;
use idem_common::driver::{ClientApp, OperationOutcome, OutcomeKind};
use idem_common::{ClientId, Directory, QuorumSet, ReplicaId};
use idem_core::{ClientConfig, IdemClient, IdemConfig, IdemMessage, IdemReplica};
use idem_harness::scenario::{clients_for_factor, Scenario};
use idem_harness::Protocol;
use idem_kv::{KvStore, Workload, WorkloadSpec};
use idem_simnet::{LinkSpec, Network, NodeId, Simulation};
use rand::rngs::SmallRng;

type Outcomes = Rc<RefCell<Vec<OperationOutcome>>>;

struct App {
    workload: Workload,
    outcomes: Outcomes,
    remaining: u64,
}

impl ClientApp for App {
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.workload.next_command(rng))
    }
    fn on_outcome(&mut self, outcome: &OperationOutcome) {
        self.outcomes.borrow_mut().push(outcome.clone());
    }
}

struct Setup {
    sim: Simulation<IdemMessage>,
    replicas: Vec<NodeId>,
    clients: Vec<NodeId>,
    outcomes: Outcomes,
}

fn setup(cfg: IdemConfig, n_clients: u32, ops: u64, seed: u64, net: Network) -> Setup {
    let mut sim: Simulation<IdemMessage> = Simulation::with_network(seed, net);
    let n = cfg.quorum.n();
    let replicas: Vec<NodeId> = (0..n).map(|_| sim.reserve_node()).collect();
    let clients: Vec<NodeId> = (0..n_clients).map(|_| sim.reserve_node()).collect();
    let dir = Directory::new(replicas.clone(), clients.clone());
    for (i, &node) in replicas.iter().enumerate() {
        sim.install_node(
            node,
            Box::new(IdemReplica::new(
                cfg.clone(),
                ReplicaId(i as u32),
                dir.clone(),
                Box::new(KvStore::new()),
            )),
        );
    }
    let outcomes: Outcomes = Rc::new(RefCell::new(Vec::new()));
    for (i, &node) in clients.iter().enumerate() {
        sim.install_node(
            node,
            Box::new(IdemClient::new(
                ClientConfig::for_quorum(cfg.quorum),
                ClientId(i as u32),
                dir.clone(),
                Box::new(App {
                    workload: Workload::new(WorkloadSpec::update_heavy(), i as u64),
                    outcomes: outcomes.clone(),
                    remaining: ops,
                }),
            )),
        );
    }
    Setup {
        sim,
        replicas,
        clients,
        outcomes,
    }
}

fn successes(outcomes: &Outcomes) -> usize {
    outcomes
        .borrow()
        .iter()
        .filter(|o| o.kind == OutcomeKind::Success)
        .count()
}

#[test]
fn client_partitioned_from_one_replica_still_completes() {
    // Property 5.1: accepted by ≥1 correct replica ⇒ executed everywhere.
    let mut s = setup(IdemConfig::for_faults(1), 2, 50, 1, Network::default());
    // Client 0 can only reach replica 0.
    s.sim.network_mut().block(s.clients[0], s.replicas[1]);
    s.sim.network_mut().block(s.clients[0], s.replicas[2]);
    s.sim.run_for(Duration::from_secs(30));
    assert_eq!(successes(&s.outcomes), 100);
    // Replicas 1 and 2 executed everything despite never hearing from
    // client 0 directly — the forwarding mechanism at work.
    for idx in [1usize, 2] {
        let replica = s.sim.node_as::<IdemReplica>(s.replicas[idx]).unwrap();
        assert_eq!(replica.stats().executed, 100);
    }
    let forwarder = s.sim.node_as::<IdemReplica>(s.replicas[0]).unwrap();
    assert!(
        forwarder.stats().forwards_sent > 0 || forwarder.stats().fetches_served > 0,
        "replica 0 must have relayed the partitioned client's requests"
    );
}

#[test]
fn fetch_recovers_bodies_for_committed_unknown_ids() {
    // Block client→replica2 so replica 2 regularly commits ids before
    // (or without) owning the body.
    let mut s = setup(IdemConfig::for_faults(1), 3, 80, 2, Network::default());
    s.sim.network_mut().block(s.clients[0], s.replicas[2]);
    s.sim.network_mut().block(s.clients[1], s.replicas[2]);
    s.sim.run_for(Duration::from_secs(30));
    assert_eq!(successes(&s.outcomes), 240);
    let r2 = s.sim.node_as::<IdemReplica>(s.replicas[2]).unwrap();
    assert_eq!(r2.stats().executed, 240);
    assert!(
        r2.stats().fetches_sent + r2.stats().accepted_forward > 0,
        "replica 2 must have pulled bodies via fetch/forward"
    );
}

#[test]
fn rejected_cache_serves_bodies_for_requests_rejected_locally() {
    // Tiny threshold: replicas frequently reject requests that other
    // replicas accept; the rejected-request cache should then satisfy the
    // later commit without a forward.
    let cfg = IdemConfig::for_faults(1).with_reject_threshold(3);
    let mut s = setup(cfg, 20, 40, 3, Network::default());
    s.sim.run_for(Duration::from_secs(60));
    let cache_hits: u64 = s
        .replicas
        .iter()
        .map(|&r| {
            s.sim
                .node_as::<IdemReplica>(r)
                .unwrap()
                .stats()
                .rejected_cache_hits
        })
        .sum();
    assert!(
        cache_hits > 0,
        "divergent accept/reject decisions should hit the rejected cache"
    );
}

/// Forwards, fetches and rejected-cache hits, summed over the replicas, of
/// the 2x cell at RT = 10 with `tweak` applied to its replica configuration.
fn body_traffic(tweak: impl FnOnce(IdemConfig) -> IdemConfig) -> (u64, u64, u64) {
    let protocol = match Protocol::idem_with_rt(10) {
        Protocol::Idem { config, client } => Protocol::Idem {
            config: tweak(config),
            client,
        },
        _ => unreachable!(),
    };
    let mut cell = Scenario::new(
        protocol,
        clients_for_factor(2.0),
        Duration::from_millis(300),
    );
    cell.warmup = Duration::from_millis(100);
    let stats = cell.run().idem_stats;
    let forwards: u64 = stats.iter().map(|s| s.forwards_sent).sum();
    let fetches: u64 = stats.iter().map(|s| s.fetches_sent).sum();
    let hits: u64 = stats.iter().map(|s| s.rejected_cache_hits).sum();
    (forwards, fetches, hits)
}

/// DESIGN.md §6, "rejected-request cache on/off": at 2x load with RT = 10
/// replicas often reject what their peers accept, so a commit regularly
/// arrives for a body the replica turned away. With the cache it still
/// holds that body; without it the body has to come by forward or fetch.
#[test]
fn rejected_cache_off_moves_more_bodies_between_replicas() {
    let on = body_traffic(|config| config);
    let off = body_traffic(|mut config| {
        config.rejected_cache_capacity = 0;
        config
    });
    println!(
        "cache default: forwards {} fetches {} cache hits {}",
        on.0, on.1, on.2
    );
    println!(
        "cache off:     forwards {} fetches {} cache hits {}",
        off.0, off.1, off.2
    );
    assert_eq!(off.2, 0, "a cache of capacity 0 cannot hit");
    assert!(
        off.0 + off.1 > on.0 + on.1,
        "cache off moved no more bodies ({off:?}) than cache on ({on:?})"
    );
}

/// DESIGN.md §6, "delayed forwarding timeout": a replica forwards a body
/// only once the request has sat accepted and unexecuted for the forward
/// timeout, so a shorter timeout catches more requests still waiting.
#[test]
fn shorter_forward_timeout_forwards_more_request_bodies() {
    let default = body_traffic(|config| config);
    let short = body_traffic(|config| config.with_forward_timeout(Duration::from_millis(1)));
    println!("forward timeout 10 ms: forwards {}", default.0);
    println!("forward timeout  1 ms: forwards {}", short.0);
    assert!(
        short.0 > default.0,
        "1 ms forwarded no more bodies ({short:?}) than 10 ms ({default:?})"
    );
}

#[test]
fn forward_volume_is_negligible_in_healthy_runs() {
    // Table 1's mechanism-level explanation: delayed forwarding means
    // almost no forwards when requests execute promptly.
    let mut s = setup(IdemConfig::for_faults(1), 5, 200, 4, Network::default());
    s.sim.run_for(Duration::from_secs(30));
    assert_eq!(successes(&s.outcomes), 1000);
    let total_forwards: u64 = s
        .replicas
        .iter()
        .map(|&r| {
            s.sim
                .node_as::<IdemReplica>(r)
                .unwrap()
                .stats()
                .forwards_sent
        })
        .sum();
    assert!(
        total_forwards * 100 < 1000,
        "forwards should be <1% of requests, got {total_forwards} for 1000 ops"
    );
}

#[test]
fn heavy_loss_is_survived_by_forwarding_and_retransmission() {
    let net = Network::new(
        LinkSpec::new(Duration::from_micros(100), Duration::from_micros(50)).with_drop_prob(0.10),
    );
    let mut s = setup(IdemConfig::for_faults(1), 2, 40, 5, net);
    s.sim.run_for(Duration::from_secs(60));
    assert_eq!(successes(&s.outcomes), 80, "10% loss must be masked");
}

#[test]
fn temporary_replica_isolation_heals_via_checkpoint_or_forward() {
    let mut s = setup(IdemConfig::for_faults(1), 4, 300, 6, Network::default());
    // Run healthy for a while.
    s.sim.run_for(Duration::from_secs(2));
    // Isolate replica 2 from everyone.
    let r2 = s.replicas[2];
    let others: Vec<NodeId> = s
        .replicas
        .iter()
        .chain(s.clients.iter())
        .copied()
        .filter(|&n| n != r2)
        .collect();
    s.sim.network_mut().partition(&[r2], &others);
    s.sim.run_for(Duration::from_secs(3));
    // Heal and let it catch up.
    s.sim.network_mut().heal();
    s.sim.run_for(Duration::from_secs(40));
    assert_eq!(successes(&s.outcomes), 1200);
    let lagger = s.sim.node_as::<IdemReplica>(r2).unwrap();
    let healthy = s.sim.node_as::<IdemReplica>(s.replicas[0]).unwrap();
    // The isolated replica must have caught up to the same execution
    // frontier (either by replay or checkpoint transfer).
    assert_eq!(
        lagger.next_exec(),
        healthy.next_exec(),
        "isolated replica failed to catch up"
    );
    let digest = |r: NodeId| {
        let snap = s.sim.node_as::<IdemReplica>(r).unwrap().app().snapshot();
        let mut kv = KvStore::new();
        idem_common::StateMachine::restore(&mut kv, &snap);
        kv.digest()
    };
    assert_eq!(digest(r2), digest(s.replicas[0]));
}

#[test]
fn null_app_cluster_is_protocol_only_sanity() {
    // The protocol must not depend on KvStore specifics: replicate NullApp.
    let mut sim: Simulation<IdemMessage> = Simulation::new(9);
    let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
    let clients = vec![sim.reserve_node()];
    let dir = Directory::new(replicas.clone(), clients.clone());
    for (i, &node) in replicas.iter().enumerate() {
        sim.install_node(
            node,
            Box::new(IdemReplica::new(
                IdemConfig::for_faults(1),
                ReplicaId(i as u32),
                dir.clone(),
                Box::new(NullApp::default()),
            )),
        );
    }
    let outcomes: Outcomes = Rc::new(RefCell::new(Vec::new()));
    sim.install_node(
        clients[0],
        Box::new(IdemClient::new(
            ClientConfig::for_quorum(QuorumSet::for_faults(1)),
            ClientId(0),
            dir,
            Box::new(App {
                workload: Workload::new(WorkloadSpec::update_heavy(), 0),
                outcomes: outcomes.clone(),
                remaining: 25,
            }),
        )),
    );
    sim.run_for(Duration::from_secs(5));
    assert_eq!(successes(&outcomes), 25);
}
