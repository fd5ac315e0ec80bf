//! Figure 9: IDEM under disruptive conditions — misconfigured threshold
//! (9a) and extreme load (9b).

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::report::{Column, ExperimentReport, Table, Value};
use crate::sweep::SweepRunner;

/// Load factors of the misconfiguration experiment (Figure 9a).
pub const MISCONFIG_FACTORS: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];
/// Load factors of the extreme-load experiment (Figure 9b).
pub const EXTREME_FACTORS: [f64; 5] = [2.0, 4.0, 6.0, 10.0, 14.0];
/// The deliberately excessive reject threshold of Figure 9a.
pub const MISCONFIG_RT: u32 = 100;

/// Runs Figure 9a: reject threshold far above what the system can handle.
pub fn run_misconfigured(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    sweep(
        Protocol::idem_with_rt(MISCONFIG_RT),
        &MISCONFIG_FACTORS,
        format!("Figure 9a — misconfigured reject threshold (RT = {MISCONFIG_RT})"),
        "latency rises into overload before rejection engages (~2 ms), then the \
         increase slows markedly; no state-of-the-art-style explosion even at 8x",
        "fig9a_misconfigured.csv",
        effort,
        runner,
    )
}

/// Runs Figure 9b: extreme overload up to 14× the baseline client load.
pub fn run_extreme(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    sweep(
        Protocol::idem(),
        &EXTREME_FACTORS,
        "Figure 9b — extreme load (up to 14x baseline)".into(),
        "throughput stays stable into medium overload, then decreases (≈55% of \
         peak at 14x) as rejected clients back off, while latency stays low \
         (≈0.9–1.3 ms) — no latency explosion",
        "fig9b_extreme.csv",
        effort,
        runner,
    )
}

/// Measures `protocol` at each load factor and tabulates throughput and
/// latency.
fn sweep(
    protocol: Protocol,
    factors: &[f64],
    title: String,
    paper_claim: &str,
    csv_name: &str,
    effort: Effort,
    runner: &SweepRunner,
) -> ExperimentReport {
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
    ExperimentReport {
        title,
        paper_claim: paper_claim.into(),
        body: table.text(),
        csv: vec![(csv_name.into(), table.csv())],
    }
}
