//! Queueing-theory checks of the closed-loop harness: Little's law,
//! N = X · R, on short cells of every protocol.
//!
//! A closed-loop client always has exactly one operation outstanding, so
//! with N clients the population in the system is N at every instant. A
//! client whose operation was rejected spends a backoff before it issues
//! again, so in a rejecting cell the time a rejected operation holds its
//! client is its reject latency plus the mean backoff:
//!
//!   N = X · R + X_rej · (R_rej + B)
//!
//! where X and R are the success throughput and mean latency, X_rej and
//! R_rej the rejection throughput and mean reject latency, and B = 75 ms is
//! the mean of the paper's uniform 50–100 ms backoff (Section 7.1). The
//! terms are the recorder's own counters; the formula shares no code with
//! the simulator.

use std::time::Duration;

use idem_harness::scenario::{clients_for_factor, Scenario};
use idem_harness::Protocol;

/// Mean of the uniform 50–100 ms post-reject backoff, in seconds.
const MEAN_BACKOFF_S: f64 = 0.075;

/// Runs one cell (0.5 s warmup, 1 s measured) at `factor` × the baseline
/// client count and checks Little's law. `rejecting` says whether the cell
/// is expected to reject: a calm cell must reject nothing and meet N = X · R
/// to within 1e-3; a rejecting cell must reject something and meet the
/// backoff-extended form to within 2 %.
fn check_cell(protocol: Protocol, factor: f64, rejecting: bool) {
    let name = protocol.name();
    let clients = clients_for_factor(factor);
    let mut scenario = Scenario::new(protocol, clients, Duration::from_secs(1));
    scenario.warmup = Duration::from_millis(500);
    let m = scenario.run().metrics;

    let n = f64::from(clients);
    let served = m.throughput * m.latency_mean_ms / 1e3;
    if rejecting {
        assert!(m.rejections > 0, "{name} at {factor}x must reject");
        let backing_off = m.reject_throughput * (m.reject_latency_mean_ms / 1e3 + MEAN_BACKOFF_S);
        let ratio = (served + backing_off) / n;
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "{name} at {factor}x: (X·R + X_rej·(R_rej + B)) / N = {ratio}"
        );
    } else {
        assert_eq!(m.rejections, 0, "{name} at {factor}x must not reject");
        let ratio = served / n;
        assert!(
            (ratio - 1.0).abs() < 1e-3,
            "{name} at {factor}x: X·R / N = {ratio}"
        );
    }
}

#[test]
fn littles_law_holds_for_idem() {
    check_cell(Protocol::idem(), 0.5, false);
    check_cell(Protocol::idem(), 4.0, true);
}

#[test]
fn littles_law_holds_for_paxos() {
    check_cell(Protocol::paxos(), 0.5, false);
    check_cell(Protocol::paxos(), 4.0, false);
}

#[test]
fn littles_law_holds_for_paxos_lbr() {
    check_cell(Protocol::paxos_lbr(50), 0.5, false);
    check_cell(Protocol::paxos_lbr(50), 4.0, true);
}

#[test]
fn littles_law_holds_for_bft_smart() {
    check_cell(Protocol::smart(), 0.5, false);
    check_cell(Protocol::smart(), 4.0, false);
}
