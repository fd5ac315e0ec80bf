//! Figure 8: variation of the reject threshold.
//!
//! Sweeps RT ∈ {20, 50, 75}: a low threshold caps throughput (~32 k, 65 %
//! of max) but pins latency below 0.6 ms; RT = 50 gives ~43 k at ≤1.3 ms;
//! RT = 75 gives ~46 k at up to 1.6 ms. Below the threshold all
//! configurations behave identically.

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::report::Bound::{AtLeast, AtMost};
use crate::report::{Claim, Column, ExperimentReport, Table, Value};
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
    // RT=20 and RT=75 against RT=50, at 4x.
    let at = |rt: u32| &measured[grid.iter().position(|&p| p == (rt, 4.0)).unwrap()];
    let tput = |rt: u32| at(rt).throughput / at(50).throughput;
    let lat = |rt: u32| at(rt).latency_mean_ms / at(50).latency_mean_ms;
    let claims = vec![
        Claim::new("RT=20 / RT=50 throughput at 4x", tput(20), AtMost(0.8)),
        Claim::new("RT=20 / RT=50 latency at 4x", lat(20), AtMost(0.6)),
        Claim::new("RT=75 / RT=50 latency at 4x", lat(75), AtLeast(1.1)),
        Claim::new("RT=75 / RT=50 throughput at 4x", tput(75), AtLeast(1.05)).deviation(2),
    ];
    ExperimentReport {
        title: "Figure 8 — reject-threshold sweep (RT = 20 / 50 / 75)".into(),
        claims,
        body: table.text(),
        csv: vec![("fig8_thresholds.csv".into(), table.csv())],
    }
}
