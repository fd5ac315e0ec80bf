//! Full-run differential for the open-loop client path.
//!
//! `LoadSource`'s client-indexed flight slab and `Recorder`'s dense
//! session-order oracle are pure representation changes: they must not
//! move a single arrival, reply, rejection, retransmission or simulator
//! event. These tests pin a digest of everything a tiny open-loop run
//! reports — captured from the `BTreeMap<RequestId, Flight>` /
//! `BTreeMap<u32, u64>` build — and assert the current build reproduces
//! it bit for bit. Each scenario also asserts that it really drives the
//! path it is here for, so a retuned default cannot quietly turn it into
//! a calm run.

use std::time::Duration;

use idem_common::load::LoadPhase;
use idem_common::{Client, ClientId, ClientSetup, Directory, Membership, ReplicaId, StateMachine};
use idem_core::IdemReplica;
use idem_harness::cluster::{experiment_network, KV_EXEC_COST};
use idem_harness::load::LoadPort;
use idem_harness::recorder::RecordingApp;
use idem_harness::{
    run_load_scenario, LoadRunResult, LoadScenario, LoadSource, PhaseMetrics, Protocol, Recorder,
    RecorderHandle,
};
use idem_kv::{KvStore, Workload, WorkloadSpec};
use idem_paxos::PaxosReplica;
use idem_simnet::{Node, NodeId, Simulation};
use idem_smart::SmartReplica;

/// SplitMix64 folding, as in `protocol_state_differential.rs`.
fn mix(state: &mut u64, value: u64) {
    *state = state
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(value);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

fn mix_phase(h: &mut u64, p: &PhaseMetrics) {
    for v in [
        p.duration.as_nanos() as u64,
        p.offered,
        p.shed,
        p.issued,
        p.completed,
        p.within_sla,
        p.rejected,
        p.rejected_final,
        p.retransmits,
        p.latency_mean_ms.to_bits(),
        p.latency_p50_ms.to_bits(),
        p.latency_p99_ms.to_bits(),
        p.latency_p999_ms.to_bits(),
        p.latency_max_ms.to_bits(),
    ] {
        mix(h, v);
    }
}

/// Digests every deterministic observable of a load run.
fn digest(r: &LoadRunResult) -> u64 {
    let mut h = 0u64;
    mix_phase(&mut h, &r.warmup);
    for p in &r.phases {
        mix_phase(&mut h, p);
    }
    mix_phase(&mut h, &r.totals);
    let c = r.counters;
    for v in [
        c.offered,
        c.shed,
        c.completed,
        c.rejected,
        c.in_flight,
        c.pending_issue,
        u64::from(r.sampled.sampled_clients),
        r.sampled.worst_mean_ms.to_bits(),
        r.sampled.worst_max_ms.to_bits(),
        r.sampled.straggler_mean_ms.to_bits(),
        r.sampled.normal_mean_ms.to_bits(),
        r.order_violations,
        r.events_processed,
        r.total_messages,
    ] {
        mix(&mut h, v);
    }
    h
}

fn run(protocol: Protocol, sc: &LoadScenario) -> LoadRunResult {
    let r = run_load_scenario(&protocol, sc);
    assert_eq!(r.conservation, None, "{}", r.protocol);
    assert_eq!(r.order_violations, 0, "{}", r.protocol);
    r
}

fn two_phases(ms: u64) -> Vec<LoadPhase> {
    vec![
        LoadPhase::new("flood", Duration::from_millis(ms), 1.0),
        LoadPhase::new("ebb", Duration::from_millis(ms), 0.4),
    ]
}

/// Goldens captured from the tree-based build (the parent of the commit
/// that introduced the slab ran this very file).
const GOLDEN_IDEM_REJECT_BACKOFF_STRAGGLERS: u64 = 0xacd6_7e35_f9c5_b535;
const GOLDEN_PAXOS_LBR_FINAL_REJECT: u64 = 0xd65b_9594_7564_8e6d;
const GOLDEN_SMART_STALE_RETRANSMIT: u64 = 0x580d_b2f5_eff5_8931;

/// 2× overload on IDEM with a fifth of the clients straggling and a
/// backoff short enough that rejected clients are released and issue
/// again inside the run: pending slab, quorum rejection (the reject
/// tracker needs `n - f` distinct replicas, so the first reject of every
/// abandoned operation only counts), backoff wheel release.
#[test]
fn idem_quorum_rejection_backoff_and_stragglers_match_golden() {
    let sc = LoadScenario::new("gold-idem", 1_500, 90_000.0, two_phases(300))
        .with_warmup(Duration::from_millis(100))
        .with_stragglers(0.2, (Duration::from_millis(2), Duration::from_millis(9)))
        .with_seed(11);
    let sc = LoadScenario {
        backoff: (Duration::from_millis(10), Duration::from_millis(30)),
        ..sc
    };
    let r = run(Protocol::idem(), &sc);
    assert!(r.totals.rejected > 1_000, "{:?}", r.totals);
    assert_eq!(r.totals.rejected_final, 0);
    // More rejections than clients: backoff released them to try again.
    assert!(r.counters.rejected > u64::from(sc.population));
    assert!(r.sampled.straggler_mean_ms > r.sampled.normal_mean_ms);
    assert_eq!(
        digest(&r),
        GOLDEN_IDEM_REJECT_BACKOFF_STRAGGLERS,
        "IDEM load digest diverged from the tree-based baseline: {:#018x}",
        digest(&r)
    );
}

/// Overloaded Paxos with leader-based rejection: one reject is final.
#[test]
fn paxos_lbr_final_rejection_matches_golden() {
    let sc = LoadScenario::new("gold-lbr", 1_500, 120_000.0, two_phases(300))
        .with_warmup(Duration::from_millis(100))
        .with_seed(12);
    let r = run(Protocol::paxos_lbr(50), &sc);
    assert!(r.totals.rejected_final > 1_000, "{:?}", r.totals);
    assert_eq!(r.totals.rejected_final, r.totals.rejected);
    assert_eq!(
        digest(&r),
        GOLDEN_PAXOS_LBR_FINAL_REJECT,
        "Paxos_LBR load digest diverged from the tree-based baseline: {:#018x}",
        digest(&r)
    );
}

/// A small population flooding SMaRt with a 5 ms retransmit interval:
/// queueing delay exceeds the interval, so operations are retransmitted,
/// every transmission draws a reply from each replica of which all but
/// the first are duplicates, and the deadline queue still holds entries
/// of operations that completed and whose client has since issued its
/// next one (6 266 such entries fire in this run).
#[test]
fn smart_stale_retransmit_entries_match_golden() {
    let sc = LoadScenario::new("gold-smart", 600, 90_000.0, two_phases(300))
        .with_warmup(Duration::from_millis(100))
        .with_seed(13);
    let sc = LoadScenario {
        retransmit_every: Duration::from_millis(5),
        ..sc
    };
    let r = run(Protocol::smart(), &sc);
    assert!(r.totals.retransmits > 100, "{:?}", r.totals);
    // Every client is re-targeted about every 7 ms, inside the 20 ms its
    // last operation's deadline entries stay queued.
    assert!(r.totals.completed > 20 * u64::from(sc.population));
    assert_eq!(
        digest(&r),
        GOLDEN_SMART_STALE_RETRANSMIT,
        "SMaRt load digest diverged from the tree-based baseline: {:#018x}",
        digest(&r)
    );
}

/// Runs three replicas built by `replica` twice for 400 ms — under eight
/// closed-loop [`Client`]s, then under one [`LoadSource`] — both talking
/// through the port `client` builds, and returns how many operations each
/// driver completed. The two drivers share the type parameter, so a
/// protocol that passes here has one port and both drivers use it.
fn drive_both<C, R>(client: C, replica: impl Fn(ReplicaId, Directory<NodeId>) -> R) -> (u64, u64)
where
    C: ClientSetup + Copy,
    R: Node<<C::Port as LoadPort>::Msg> + 'static,
{
    let run = |closed_loop: bool| {
        let mut sim = Simulation::with_network(5, experiment_network());
        let replicas: Vec<NodeId> = (0..3).map(|_| sim.reserve_node()).collect();
        let drivers = if closed_loop { 8 } else { 1 };
        let clients: Vec<NodeId> = (0..drivers).map(|_| sim.reserve_node()).collect();
        let dir = if closed_loop {
            Directory::new(replicas.clone(), clients.clone())
        } else {
            Directory::with_client_fallback(replicas.clone(), Vec::new(), clients[0])
        };
        for (i, &node) in replicas.iter().enumerate() {
            sim.install_node(node, Box::new(replica(ReplicaId(i as u32), dir.clone())));
        }
        let recorder =
            RecorderHandle::new(Recorder::new(Duration::ZERO, Duration::from_millis(250)));
        if closed_loop {
            for (i, &node) in clients.iter().enumerate() {
                let workload = Workload::new(WorkloadSpec::update_heavy(), i as u64);
                let app = RecordingApp::new(workload, recorder.clone(), i as u64);
                let id = ClientId(i as u32);
                sim.install_node(
                    node,
                    Box::new(Client::new(client, id, dir.clone(), Box::new(app))),
                );
            }
        } else {
            let phases = vec![LoadPhase::new("steady", Duration::from_millis(400), 1.0)];
            let sc = LoadScenario::new("both", 500, 4_000.0, phases).with_warmup(Duration::ZERO);
            let port = client.port(&dir, &Membership::bootstrap(3));
            sim.install_node(
                clients[0],
                Box::new(LoadSource::new(port, dir, sc, recorder.clone())),
            );
        }
        sim.run_for(Duration::from_millis(400));
        assert_eq!(recorder.with(Recorder::order_violations), 0);
        recorder.with(Recorder::successes)
    };
    (run(true), run(false))
}

fn store() -> Box<dyn StateMachine + Send> {
    Box::new(KvStore::with_costs(KV_EXEC_COST, Duration::ZERO))
}

#[test]
fn one_port_per_protocol_drives_both_the_closed_loop_client_and_the_load_source() {
    let Protocol::Idem { config, client } = Protocol::idem() else {
        unreachable!()
    };
    let idem = drive_both(client, |me, dir| {
        IdemReplica::new(config.clone(), me, dir, store())
    });
    let Protocol::Paxos { config, client } = Protocol::paxos_lbr(50) else {
        unreachable!()
    };
    let paxos = drive_both(client, |me, dir| {
        PaxosReplica::new(config.clone(), me, dir, store())
    });
    let Protocol::Smart { config, client } = Protocol::smart() else {
        unreachable!()
    };
    let smart = drive_both(client, |me, dir| {
        SmartReplica::new(config.clone(), me, dir, store())
    });
    for (protocol, (closed, open)) in [("IDEM", idem), ("Paxos_LBR", paxos), ("SMaRt", smart)] {
        // Eight clients at ~1.5–2.5 ms per operation; 4 000 arrivals/s.
        assert!(closed > 1_000, "{protocol}: closed loop completed {closed}");
        assert!(open > 1_000, "{protocol}: open loop completed {open}");
    }
}
