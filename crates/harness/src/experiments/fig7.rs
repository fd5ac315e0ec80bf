//! Figure 7: reject behaviour in IDEM under increasing load.
//!
//! The paper reports stable reject latency (≈1.3–1.5 ms, same range as a
//! timely reply) up to 8× the baseline client load, with the reject share
//! staying low (<3 % in moderate overload, ≈10 % at 8×) because rejected
//! clients back off.

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::report::Bound::AtMost;
use crate::report::{Claim, Column, ExperimentReport, Table, Value};
use crate::sweep::SweepRunner;

/// Client-load factors (1x = 50 clients).
pub const FACTORS: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let points: Vec<(Protocol, f64)> = FACTORS.iter().map(|&f| (Protocol::idem(), f)).collect();
    let measured = measure_grid(runner, &points, effort);
    let mut table = Table::new(&[
        Column::Both("load", "load_factor"),
        Column::Both("tput [req/s]", "throughput"),
        Column::Both("rejects [1/s]", "reject_throughput"),
        Column::Both("share", "reject_share_pct"),
        Column::Both("rej lat [ms]", "reject_latency_ms"),
        Column::Both("rej std [ms]", "reject_latency_std_ms"),
        Column::Both("reply lat [ms]", "reply_latency_ms"),
    ]);
    for (&factor, m) in FACTORS.iter().zip(&measured) {
        table.push([
            Value::factor(factor),
            Value::kreq(m.throughput),
            Value::kreq(m.reject_throughput),
            Value::pct(m.reject_share_percent()),
            Value::ms(m.reject_latency_mean_ms),
            Value::ms(m.reject_latency_std_ms),
            Value::ms(m.latency_mean_ms),
        ]);
    }
    let at = |factor: f64| &measured[FACTORS.iter().position(|&f| f == factor).unwrap()];
    let (m4, m8) = (at(4.0), at(8.0));
    let worst = [2.0, 4.0, 6.0, 8.0].map(|f| at(f).reject_latency_mean_ms);
    let worst = worst.into_iter().fold(0.0, f64::max);
    let (moderate, severe) = (at(2.0).reject_share_percent(), m8.reject_share_percent());
    let as_reply = m8.reject_latency_mean_ms / m8.latency_mean_ms;
    let falling = m8.reject_latency_mean_ms / m4.reject_latency_mean_ms;
    let claims = vec![
        Claim::new("reject share at 2x [%]", moderate, AtMost(3.0)),
        Claim::new("reject share at 8x [%]", severe, AtMost(12.0)),
        Claim::new("reject / reply latency at 8x", as_reply, AtMost(1.5)),
        Claim::new("reject latency 8x / 4x", falling, AtMost(1.0)),
        Claim::new("worst reject latency 2x-8x [ms]", worst, AtMost(1.5)).deviation(1),
    ];
    ExperimentReport {
        title: "Figure 7 — reject behaviour under increasing load".into(),
        claims,
        body: table.text(),
        csv: vec![("fig7_rejects.csv".into(), table.csv())],
    }
}
