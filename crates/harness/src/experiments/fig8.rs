//! Figure 8: variation of the reject threshold.
//!
//! Sweeps RT ∈ {20, 50, 75}: a low threshold caps throughput (~32 k, 65 %
//! of max) but pins latency below 0.6 ms; RT = 50 gives ~43 k at ≤1.3 ms;
//! RT = 75 gives ~46 k at up to 1.6 ms. Below the threshold all
//! configurations behave identically.

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::report::{Column, ExperimentReport, Table, Value};
use crate::sweep::SweepRunner;

/// The thresholds swept.
pub const THRESHOLDS: [u32; 3] = [20, 50, 75];
/// Client-load factors.
pub const FACTORS: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let grid: Vec<(u32, f64)> = THRESHOLDS
        .iter()
        .flat_map(|&rt| FACTORS.iter().map(move |&f| (rt, f)))
        .collect();
    let points: Vec<(Protocol, f64)> = grid
        .iter()
        .map(|&(rt, f)| (Protocol::idem_with_rt(rt), f))
        .collect();
    let measured = measure_grid(runner, &points, effort);
    let mut table = Table::new(&[
        Column::Both("threshold", "reject_threshold"),
        Column::Both("load", "load_factor"),
        Column::Both("tput [req/s]", "throughput"),
        Column::Both("lat [ms]", "latency_ms"),
        Column::Both("std [ms]", "std_ms"),
    ]);
    for (&(rt, factor), m) in grid.iter().zip(&measured) {
        table.push([
            Value::new(format!("RT={rt}"), rt.to_string()),
            Value::factor(factor),
            Value::kreq(m.throughput),
            Value::ms(m.latency_mean_ms),
            Value::ms(m.latency_std_ms),
        ]);
    }
    ExperimentReport {
        title: "Figure 8 — reject-threshold sweep (RT = 20 / 50 / 75)".into(),
        paper_claim: "RT=20 caps throughput at ~65% of max with latency <0.6 ms; RT=50 gives \
                      ~43k req/s at ≤1.3 ms; RT=75 gives ~46k at ≤1.6 ms; all identical below \
                      the threshold"
            .into(),
        body: table.text(),
        csv: vec![("fig8_thresholds.csv".into(), table.csv())],
    }
}
