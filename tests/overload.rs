//! Overload behaviour of cells that no experiment runs. The experiments'
//! own cells carry their claims (`tests/claims.rs`).

use std::time::Duration;

use idem_harness::scenario::{clients_for_factor, Scenario};
use idem_harness::Protocol;

fn measure(protocol: Protocol, clients: u32) -> idem_harness::RunMetrics {
    let mut s = Scenario::new(protocol, clients, Duration::from_secs(3));
    s.warmup = Duration::from_secs(1);
    s.run().metrics
}

#[test]
fn identical_below_threshold_across_rts() {
    // Figure 8: "below this threshold they all have nearly identical
    // performance".
    let clients = clients_for_factor(0.4);
    let rt20 = measure(Protocol::idem_with_rt(20), clients);
    let rt75 = measure(Protocol::idem_with_rt(75), clients);
    let rel = (rt20.latency_mean_ms - rt75.latency_mean_ms).abs() / rt75.latency_mean_ms;
    assert!(rel < 0.05, "sub-threshold divergence {rel}");
}

#[test]
fn lbr_also_prevents_overload_in_the_normal_case() {
    // Section 7.8: both IDEM and Paxos_LBR prevent the latency explosion —
    // the difference is crash robustness, not normal-case behaviour.
    let m = measure(Protocol::paxos_lbr(30), clients_for_factor(4.0));
    assert!(m.rejections > 0);
    assert!(
        m.latency_mean_ms < 2.5,
        "LBR should bound latency, got {} ms",
        m.latency_mean_ms
    );
}

#[test]
fn smart_batches_grow_under_load() {
    // The batching baseline must show load-adaptive batch growth.
    let opts = idem_harness::cluster::ClusterOptions {
        clients: clients_for_factor(2.0),
        warmup: Duration::from_millis(500),
        ..Default::default()
    };
    let mut cluster = idem_harness::cluster::build_cluster(&Protocol::smart(), &opts);
    cluster.run_for(Duration::from_secs(3));
    let stats = cluster.smart_stats(0).expect("smart cluster");
    assert!(
        stats.max_batch_decided > 5,
        "expected batching under load, max batch {}",
        stats.max_batch_decided
    );
}
