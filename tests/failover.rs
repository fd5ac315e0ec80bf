//! Crash and view-change tests across protocols. The paper's headline
//! robustness result — collaborative rejection keeps answering during a
//! leader crash, leader-based rejection does not — is Figure 10d's claims
//! (`tests/claims.rs`).

use std::time::Duration;

use idem_harness::cluster::{build_cluster, ClusterOptions, Protocol};
use idem_harness::recorder::Recorder;
use idem_harness::scenario::{CrashPlan, Scenario};

fn crash_scenario(protocol: Protocol, clients: u32, replica: usize) -> Scenario {
    Scenario::new(protocol, clients, Duration::from_secs(10)).with_crash(CrashPlan {
        replica,
        at: Duration::from_secs(3),
    })
}

#[test]
fn idem_leader_crash_service_resumes() {
    let result = crash_scenario(Protocol::idem(), 50, 0).run();
    let tput = result.throughput_series();
    // Service pauses during the view change...
    let gap_bins = tput
        .iter()
        .filter(|(t, v)| *t > 2.0 && *t < 4.5 && *v == 0.0)
        .count();
    assert!(gap_bins > 0, "expected a visible view-change gap");
    // ...and resumes to a healthy rate afterwards.
    let late: Vec<f64> = tput
        .iter()
        .filter(|(t, _)| *t > 6.0)
        .map(|(_, v)| *v)
        .collect();
    let late_avg = late.iter().sum::<f64>() / late.len().max(1) as f64;
    assert!(
        late_avg > 20_000.0,
        "post-view-change throughput too low: {late_avg}"
    );
}

#[test]
fn paxos_leader_crash_service_resumes() {
    let result = crash_scenario(Protocol::paxos(), 25, 0).run();
    let tput = result.throughput_series();
    let late: Vec<f64> = tput
        .iter()
        .filter(|(t, _)| *t > 7.0)
        .map(|(_, v)| *v)
        .collect();
    let late_avg = late.iter().sum::<f64>() / late.len().max(1) as f64;
    assert!(
        late_avg > 10_000.0,
        "paxos did not recover from leader crash: {late_avg}"
    );
}

#[test]
fn smart_leader_crash_service_resumes() {
    let result = crash_scenario(Protocol::smart(), 25, 0).run();
    let tput = result.throughput_series();
    let late: Vec<f64> = tput
        .iter()
        .filter(|(t, _)| *t > 7.0)
        .map(|(_, v)| *v)
        .collect();
    let late_avg = late.iter().sum::<f64>() / late.len().max(1) as f64;
    assert!(
        late_avg > 10_000.0,
        "smart did not recover from leader crash: {late_avg}"
    );
}

#[test]
fn follower_crash_causes_no_interruption() {
    for protocol in [Protocol::idem(), Protocol::paxos(), Protocol::smart()] {
        let name = protocol.name();
        let result = crash_scenario(protocol, 25, 2).run();
        let tput = result.throughput_series();
        let zero_bins = tput.iter().filter(|(t, v)| *t > 3.5 && *v == 0.0).count();
        assert_eq!(
            zero_bins, 0,
            "{name}: follower crash should not interrupt service"
        );
    }
}

#[test]
fn crashed_majority_halts_but_does_not_corrupt() {
    // With 2 of 3 replicas down no progress is possible — but the survivor
    // must not execute unagreed requests.
    let opts = ClusterOptions {
        clients: 5,
        warmup: Duration::ZERO,
        ..Default::default()
    };
    let mut cluster = build_cluster(&Protocol::idem(), &opts);
    cluster.run_for(Duration::from_secs(1));
    let executed_before = cluster.idem_stats(2).unwrap().executed;
    cluster.crash_replica(0);
    cluster.crash_replica(1);
    cluster.run_for(Duration::from_secs(1));
    let executed_soon = cluster.idem_stats(2).unwrap().executed;
    cluster.run_for(Duration::from_secs(5));
    let executed_late = cluster.idem_stats(2).unwrap().executed;
    // Commits already in flight may finish, then nothing more.
    assert!(executed_soon >= executed_before);
    assert_eq!(
        executed_late, executed_soon,
        "no agreement possible without a majority"
    );
    let successes = cluster.recorder.with(Recorder::successes);
    assert!(successes > 0);
}
