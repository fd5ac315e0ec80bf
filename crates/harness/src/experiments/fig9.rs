//! Figure 9: IDEM under disruptive conditions — misconfigured threshold
//! (9a) and extreme load (9b).

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::recorder::RunMetrics;
use crate::report::Bound::{AtLeast, AtMost};
use crate::report::{Claim, Column, ExperimentReport, Table, Value};
use crate::sweep::SweepRunner;

/// Load factors of the misconfiguration experiment (Figure 9a).
pub const MISCONFIG_FACTORS: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];
/// Load factors of the extreme-load experiment (Figure 9b).
pub const EXTREME_FACTORS: [f64; 5] = [2.0, 4.0, 6.0, 10.0, 14.0];
/// The deliberately excessive reject threshold of Figure 9a.
pub const MISCONFIG_RT: u32 = 100;

/// Runs Figure 9a: reject threshold far above what the system can handle.
pub fn run_misconfigured(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let (table, m) = sweep(
        Protocol::idem_with_rt(MISCONFIG_RT),
        &MISCONFIG_FACTORS,
        effort,
        runner,
    );
    // In factor order: 1x, 2x, 4x, 6x, 8x.
    let lat = |i: usize| m[i].latency_mean_ms;
    ExperimentReport {
        title: format!("Figure 9a — misconfigured reject threshold (RT = {MISCONFIG_RT})"),
        claims: vec![
            // Latency climbs into overload before rejection bites...
            Claim::new("latency 2x / 1x", lat(1) / lat(0), AtLeast(1.5)),
            // ...then the climb slows markedly: no explosion.
            Claim::new("latency 8x / 4x", lat(4) / lat(2), AtMost(1.25)),
        ],
        body: table.text(),
        csv: vec![("fig9a_misconfigured.csv".into(), table.csv())],
    }
}

/// Runs Figure 9b: extreme overload up to 14× the baseline client load.
pub fn run_extreme(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let (table, m) = sweep(Protocol::idem(), &EXTREME_FACTORS, effort, runner);
    // 14x against 2x, the first and last factors.
    let lat = m[4].latency_mean_ms / m[0].latency_mean_ms;
    let tput = m[4].throughput / m[0].throughput;
    ExperimentReport {
        title: "Figure 9b — extreme load (up to 14x baseline)".into(),
        claims: vec![
            Claim::new("latency 14x / 2x", lat, AtMost(1.3)),
            Claim::new("throughput 14x / 2x", tput, AtMost(0.6)).deviation(3),
        ],
        body: table.text(),
        csv: vec![("fig9b_extreme.csv".into(), table.csv())],
    }
}

/// Measures `protocol` at each load factor and tabulates throughput and
/// latency; returns the table and the metrics, in `factors` order.
fn sweep(
    protocol: Protocol,
    factors: &[f64],
    effort: Effort,
    runner: &SweepRunner,
) -> (Table, Vec<RunMetrics>) {
    let points: Vec<(Protocol, f64)> = factors.iter().map(|&f| (protocol.clone(), f)).collect();
    let measured = measure_grid(runner, &points, effort);
    let mut table = Table::new(&[
        Column::Both("load", "load_factor"),
        Column::Both("tput [req/s]", "throughput"),
        Column::Both("lat [ms]", "latency_ms"),
        Column::Both("std [ms]", "std_ms"),
    ]);
    for (&factor, m) in factors.iter().zip(&measured) {
        table.push([
            Value::factor(factor),
            Value::kreq(m.throughput),
            Value::ms(m.latency_mean_ms),
            Value::ms(m.latency_std_ms),
        ]);
    }
    (table, measured)
}
