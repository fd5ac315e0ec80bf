//! Full-cell differential for the dense protocol-state refactor.
//!
//! The dense slab/session-table rewrite of the three replicas is a pure
//! representation change: it must not move a single message, reply,
//! rejection, or simulator event. These tests pin a digest of everything
//! a saturated 3-replica cell of each protocol observably produces —
//! captured from the tree/hash-map implementation — and assert the
//! current build reproduces it bit for bit.
//!
//! If a digest here changes, the change is behavioral, not just
//! representational: either a genuine (intended, rare) semantic change
//! that must be called out in the commit, or a determinism bug in the
//! dense rewiring.

use std::time::Duration;

use idem_common::{ReconfigCommand, ReplicaId};
use idem_core::RejectHandling;
use idem_harness::cluster::{build_cluster, ClusterOptions};
use idem_harness::{ClusterHandles, CrashPlan, Protocol, Recorder, RunResult, Scenario};

/// SplitMix64 folding — same mixer the request-id hash uses; good
/// avalanche, no dependencies.
fn mix(state: &mut u64, value: u64) {
    *state = state
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(value);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

/// Digests every deterministic observable of a run: aggregate metrics,
/// the full reply/reject time series, traffic and event totals, and the
/// per-replica protocol counters.
fn digest(r: &RunResult) -> u64 {
    let mut h = 0u64;
    mix(&mut h, r.metrics.successes);
    mix(&mut h, r.metrics.rejections);
    mix(&mut h, r.metrics.rejections_final);
    mix(&mut h, r.metrics.latency_mean_ms.to_bits());
    mix(&mut h, r.metrics.latency_p50_ms.to_bits());
    mix(&mut h, r.metrics.latency_p99_ms.to_bits());
    mix(&mut h, r.metrics.reject_latency_mean_ms.to_bits());
    for (t, bin) in &r.reply_series {
        mix(&mut h, t.as_nanos() as u64);
        mix(&mut h, bin.count);
        mix(&mut h, bin.sum);
    }
    for (t, bin) in &r.reject_series {
        mix(&mut h, t.as_nanos() as u64);
        mix(&mut h, bin.count);
        mix(&mut h, bin.sum);
    }
    mix(&mut h, r.client_traffic_bytes);
    mix(&mut h, r.replica_traffic_bytes);
    mix(&mut h, r.total_messages);
    // Events other than timer fires: how often a timer is re-armed on its
    // way to a deadline is bookkeeping, not behaviour, and moves the fire
    // count alone.
    mix(&mut h, r.events_processed - r.event_stats.timers);
    mix(&mut h, r.event_stats.delivers);
    mix(&mut h, r.order_violations);
    for s in &r.idem_stats {
        mix(&mut h, s.requests_received);
        mix(&mut h, s.duplicates);
        mix(&mut h, s.rejected);
        mix(&mut h, s.accepted_client);
        mix(&mut h, s.accepted_forward);
        mix(&mut h, s.proposals_sent);
        mix(&mut h, s.commits_sent);
        mix(&mut h, s.executed);
        mix(&mut h, s.replies_sent);
        mix(&mut h, s.forwards_sent);
        mix(&mut h, s.fetches_sent);
        mix(&mut h, s.fetches_served);
        mix(&mut h, s.rejected_cache_hits);
        mix(&mut h, s.checkpoints_taken);
        mix(&mut h, s.view_changes_completed);
        mix(&mut h, s.noops_proposed);
        mix(&mut h, s.gc_advances);
        mix(&mut h, s.stalls);
    }
    h
}

/// Goldens captured from the map-based implementation (the commit that
/// introduced this test ran both representations against each other),
/// re-captured under the timer-fire-free event count by running this file
/// against the last build that cancelled and re-armed a timer per
/// executed operation. Any divergence means observable behavior moved.
const GOLDEN_IDEM_SATURATED: u64 = 0xe47641ca71dd609d;
const GOLDEN_IDEM_CRASH: u64 = 0xb15dd6898d3366a4;
const GOLDEN_PAXOS_SATURATED: u64 = 0xf7d2d1ab48d66589;
const GOLDEN_SMART_SATURATED: u64 = 0xcb0a872aeedf5c9c;

/// Most events a saturated 400-client cell may ever hold pending at once:
/// a few per client and replica. Filing a dead progress or retransmission
/// timer per executed operation held 150–190 k.
const SATURATED_QUEUE_BOUND: u64 = 10_000;

fn run(protocol: Protocol, clients: u32, crash: Option<CrashPlan>) -> RunResult {
    let mut scenario = Scenario::new(protocol, clients, Duration::from_secs(2));
    if let Some(c) = crash {
        scenario = scenario.with_crash(c);
    }
    scenario.run()
}

/// The digest of a 2 s, 400-client saturated cell, which must also keep
/// the event queue small.
fn saturated_digest(protocol: Protocol) -> u64 {
    let result = run(protocol, 400, None);
    let high_water = result.event_stats.queue_high_water;
    assert!(
        high_water < SATURATED_QUEUE_BOUND,
        "{}: {high_water} events pending at once",
        result.name
    );
    digest(&result)
}

#[test]
fn idem_saturated_cell_matches_map_based_golden() {
    let got = saturated_digest(Protocol::idem());
    assert_eq!(
        got, GOLDEN_IDEM_SATURATED,
        "IDEM saturated-cell digest diverged from the map-based baseline (got {got:#018x})"
    );
}

#[test]
fn idem_crash_cell_matches_map_based_golden() {
    // A mid-run leader crash exercises the cold paths too: view change,
    // re-endorsement, forward timers, fetches, checkpoint catch-up.
    let crash = CrashPlan {
        replica: 0,
        at: Duration::from_millis(900),
    };
    let got = digest(&run(Protocol::idem(), 300, Some(crash)));
    assert_eq!(
        got, GOLDEN_IDEM_CRASH,
        "IDEM crash-cell digest diverged from the map-based baseline (got {got:#018x})"
    );
}

#[test]
fn paxos_saturated_cell_matches_map_based_golden() {
    let got = saturated_digest(Protocol::paxos());
    assert_eq!(
        got, GOLDEN_PAXOS_SATURATED,
        "Paxos saturated-cell digest diverged from the map-based baseline (got {got:#018x})"
    );
}

#[test]
fn smart_saturated_cell_matches_map_based_golden() {
    let got = saturated_digest(Protocol::smart());
    assert_eq!(
        got, GOLDEN_SMART_SATURATED,
        "SMaRt saturated-cell digest diverged from the map-based baseline (got {got:#018x})"
    );
}

// ----- client paths -----
//
// The four cells above keep every client on its happy path: no client
// timeout fires, IDEM's optimistic grace timer absorbs ambivalence, the
// membership never changes. The cells below pin what they leave out, so a
// change to the closed-loop client is held to every branch it has. Goldens
// captured from commit 8a3bd03 — the last build in which each protocol
// crate carried its own copy of the client — by running this file against
// it, and re-captured like the four above.

const WARMUP: Duration = Duration::from_secs(1);
const BIN_WIDTH: Duration = Duration::from_millis(250);

fn client_path_cluster(protocol: &Protocol, clients: u32, spares: u32) -> ClusterHandles {
    let opts = ClusterOptions {
        clients,
        seed: 7,
        warmup: WARMUP,
        bin_width: BIN_WIDTH,
        spares,
        ..ClusterOptions::default()
    };
    build_cluster(protocol, &opts)
}

/// What `Scenario::run` collects, for a cluster the test drove itself.
fn collect(cluster: &ClusterHandles, protocol: &Protocol, clients: u32) -> RunResult {
    let measured = cluster
        .now()
        .saturating_since(idem_simnet::SimTime::ZERO + WARMUP);
    RunResult {
        name: protocol.name(),
        clients,
        metrics: cluster.recorder.with(|r| r.metrics(measured)),
        measured,
        bin_width: BIN_WIDTH,
        reply_series: cluster.recorder.with(|r| r.reply_series().iter().collect()),
        reject_series: cluster
            .recorder
            .with(|r| r.reject_series().iter().collect()),
        client_traffic_bytes: cluster.client_traffic_bytes(),
        replica_traffic_bytes: cluster.replica_traffic_bytes(),
        total_messages: cluster.total_messages(),
        events_processed: cluster.events_processed(),
        event_stats: cluster.event_stats(),
        idem_stats: (0..cluster.replicas.len())
            .filter_map(|i| cluster.idem_stats(i))
            .collect(),
        order_violations: cluster.recorder.with(Recorder::order_violations),
    }
}

const GOLDEN_PAXOS_FAILOVER_WALK: u64 = 0x6a36e6326e26ee42;
const GOLDEN_IDEM_PESSIMISTIC: u64 = 0xa103d482c86b1d21;
const GOLDEN_IDEM_REPLACE_LEADER: u64 = 0xdaf72de0575fbdc4;
const GOLDEN_PAXOS_REPLACE_LEADER: u64 = 0xc7dde438e3de3879;
const GOLDEN_PAXOS_LBR_REPLACE_LEADER: u64 = 0x757f6ed0b18be332;
const GOLDEN_SMART_REPLACE_LEADER: u64 = 0x63f24e6b9e141933;

#[test]
fn paxos_failover_walk_matches_per_crate_client_golden() {
    // The leader dies and the group needs its 1.5 s progress timeout to
    // replace it; clients give a presumed leader 250 ms, so each walks the
    // member list round-robin about twice, re-arming `ClientTimeout` at
    // every step, before a replica answers again.
    let protocol = match Protocol::paxos() {
        Protocol::Paxos { config, client } => Protocol::Paxos {
            config,
            client: client.with_request_timeout(Duration::from_millis(250)),
        },
        _ => unreachable!(),
    };
    let mut cluster = client_path_cluster(&protocol, 100, 0);
    cluster.run_for(Duration::from_millis(1200));
    let before = cluster.recorder.with(Recorder::successes);
    cluster.crash_replica(0);
    cluster.run_for(Duration::from_millis(1400));
    let stalled = cluster.recorder.with(Recorder::successes);
    cluster.run_for(Duration::from_millis(1200));
    let result = collect(&cluster, &protocol, 100);
    assert!(
        before > 0 && stalled <= before + 100,
        "the crash must stall service"
    );
    assert!(
        cluster
            .paxos_stats(1)
            .expect("paxos")
            .view_changes_completed
            >= 1
            && result.metrics.successes > 0,
        "service must resume under the next leader"
    );
    // 100 clients x >= 5 timeouts each, none of which is a delivery.
    assert!(result.event_stats.timers > 500);
    let got = digest(&result);
    assert_eq!(
        got, GOLDEN_PAXOS_FAILOVER_WALK,
        "Paxos failover-walk digest diverged (got {got:#018x})"
    );
}

#[test]
fn idem_pessimistic_overload_matches_per_crate_client_golden() {
    // 4x the saturating client count, and every client aborts on its
    // `n - f`th reject: ambivalent outcomes and their backoff draws.
    let protocol = match Protocol::idem() {
        Protocol::Idem { config, client } => Protocol::Idem {
            config,
            client: client.with_reject_handling(RejectHandling::Pessimistic),
        },
        _ => unreachable!(),
    };
    let result = Scenario::new(protocol, 200, Duration::from_secs(2)).run();
    assert!(
        result.metrics.rejections > result.metrics.rejections_final
            && result.metrics.rejections > 1_000,
        "the cell must produce ambivalent aborts: {:?}",
        result.metrics
    );
    let got = digest(&result);
    assert_eq!(
        got, GOLDEN_IDEM_PESSIMISTIC,
        "IDEM pessimistic-overload digest diverged (got {got:#018x})"
    );
}

/// The leader is swapped for the spare while every client has an
/// operation in flight: each client adopts the `MembershipUpdate` and
/// re-targets that operation at the new group.
fn replace_leader_digest(protocol: Protocol, clients: u32) -> u64 {
    let mut cluster = client_path_cluster(&protocol, clients, 1);
    cluster.run_for(Duration::from_millis(1300));
    cluster.inject_reconfig(
        1,
        &ReconfigCommand::Replace {
            old: ReplicaId(0),
            new: ReplicaId(3),
        },
    );
    cluster.run_for(Duration::from_millis(200));
    let at_switch = cluster.recorder.with(Recorder::successes);
    cluster.run_for(Duration::from_millis(1500));
    let result = collect(&cluster, &protocol, clients);
    for index in 1..4 {
        assert_eq!(cluster.epoch(index), 1, "{}: replica {index}", result.name);
        assert!(cluster.is_member(index));
    }
    assert!(!cluster.is_member(0), "{}: leader never left", result.name);
    assert!(
        result.metrics.successes > at_switch + 1_000,
        "{}: clients must follow the group to its new members",
        result.name
    );
    assert_eq!(result.order_violations, 0);
    digest(&result)
}

#[test]
fn idem_replace_leader_matches_per_crate_client_golden() {
    // 4x saturation: rejects are in flight when the epoch switches.
    let got = replace_leader_digest(Protocol::idem(), 200);
    assert_eq!(
        got, GOLDEN_IDEM_REPLACE_LEADER,
        "IDEM replace-leader digest diverged (got {got:#018x})"
    );
}

#[test]
fn paxos_replace_leader_matches_per_crate_client_golden() {
    let got = replace_leader_digest(Protocol::paxos(), 100);
    assert_eq!(
        got, GOLDEN_PAXOS_REPLACE_LEADER,
        "Paxos replace-leader digest diverged (got {got:#018x})"
    );
    let got = replace_leader_digest(Protocol::paxos_lbr(50), 200);
    assert_eq!(
        got, GOLDEN_PAXOS_LBR_REPLACE_LEADER,
        "Paxos_LBR replace-leader digest diverged (got {got:#018x})"
    );
}

#[test]
fn smart_replace_leader_matches_per_crate_client_golden() {
    let got = replace_leader_digest(Protocol::smart(), 100);
    assert_eq!(
        got, GOLDEN_SMART_REPLACE_LEADER,
        "SMaRt replace-leader digest diverged (got {got:#018x})"
    );
}
