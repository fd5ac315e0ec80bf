//! Figure 2: behaviour of existing replication protocols under load.
//!
//! The paper drives Paxos with increasing closed-loop client counts and
//! shows two service tiers: low, stable latency until saturation (the
//! "good tier"), then a latency explosion (the "bad tier") with more than
//! 600 % of the normal latency at 4× overload.

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::report::Bound::AtLeast;
use crate::report::{Claim, Column, ExperimentReport, Table, Value};
use crate::sweep::SweepRunner;

/// The client-load factors swept (1.0 = 50 clients = saturation).
pub const FACTORS: [f64; 7] = [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0];

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let points: Vec<(Protocol, f64)> = FACTORS.iter().map(|&f| (Protocol::paxos(), f)).collect();
    let measured = measure_grid(runner, &points, effort);
    let mut table = Table::new(&[
        Column::Both("load", "load_factor"),
        Column::Both("tput [req/s]", "throughput"),
        Column::Both("lat [ms]", "latency_ms"),
        Column::Both("std [ms]", "std_ms"),
        Column::Both("p99 [ms]", "p99_ms"),
    ]);
    let mut normal_latency = f64::NAN;
    let mut overload_latency = f64::NAN;
    for (&factor, m) in FACTORS.iter().zip(&measured) {
        if factor == 0.5 {
            normal_latency = m.latency_mean_ms;
        }
        if factor == 4.0 {
            overload_latency = m.latency_mean_ms;
        }
        table.push([
            Value::factor(factor),
            Value::kreq(m.throughput),
            Value::ms(m.latency_mean_ms),
            Value::ms(m.latency_std_ms),
            Value::ms(m.latency_p99_ms),
        ]);
    }
    let blowup = 100.0 * overload_latency / normal_latency;
    let ratio = overload_latency / normal_latency;
    let body = format!(
        "{}\nlatency at 4x overload = {:.0}% of normal-case (0.5x) latency (paper: >600%)\n",
        table.text(),
        blowup
    );
    ExperimentReport {
        title: "Figure 2 — Paxos under increasing load (two service tiers)".into(),
        claims: vec![Claim::new("Paxos latency 4x / 0.5x", ratio, AtLeast(6.0))],
        body,
        csv: vec![("fig2_paxos.csv".into(), table.csv())],
    }
}
