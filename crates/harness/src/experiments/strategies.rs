//! Supplementary experiment: the client reject-handling spectrum of paper
//! Section 5.3.
//!
//! Pessimistic clients abort on the `n − f`th reject, minimizing rejection
//! latency; optimistic clients wait a grace period for a late reply,
//! trading rejection latency for operation success rate. The paper
//! describes the trade-off qualitatively; this experiment quantifies it on
//! our substrate across grace periods.

use std::time::Duration;

use idem_core::RejectHandling;

use crate::cluster::Protocol;
use crate::experiments::Effort;
use crate::report::Bound::AtMost;
use crate::report::{Claim, Column, ExperimentReport, Table, Value};
use crate::scenario::{clients_for_factor, Scenario};
use crate::sweep::{Cell, SweepRunner};

/// Overload factor the comparison runs at.
pub const LOAD_FACTOR: f64 = 4.0;

/// The strategies compared: pessimistic, plus optimistic with increasing
/// grace periods (the paper's evaluation uses 5 ms).
pub fn strategies() -> Vec<(&'static str, RejectHandling)> {
    vec![
        ("pessimistic", RejectHandling::Pessimistic),
        (
            "optimistic 2ms",
            RejectHandling::Optimistic(Duration::from_millis(2)),
        ),
        (
            "optimistic 5ms",
            RejectHandling::Optimistic(Duration::from_millis(5)),
        ),
        (
            "optimistic 15ms",
            RejectHandling::Optimistic(Duration::from_millis(15)),
        ),
    ]
}

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let mut cells = Vec::new();
    for (_, handling) in strategies() {
        let protocol = match Protocol::idem() {
            Protocol::Idem { config, client } => Protocol::Idem {
                config,
                client: client.with_reject_handling(handling),
            },
            _ => unreachable!(),
        };
        let mut scenario =
            Scenario::new(protocol, clients_for_factor(LOAD_FACTOR), effort.duration);
        scenario.warmup = effort.warmup;
        cells.push(Cell::timed(scenario));
    }
    let results = runner.run_cells(cells);
    let mut table = Table::new(&[
        Column::Both("strategy", "strategy"),
        Column::Both("tput [req/s]", "throughput"),
        Column::Both("reject share", "reject_share_pct"),
        Column::Both("rej lat [ms]", "reject_latency_ms"),
        Column::Both("reply lat [ms]", "reply_latency_ms"),
    ]);
    for ((label, _), result) in strategies().into_iter().zip(&results) {
        let m = result.metrics;
        table.push([
            Value::plain(label),
            Value::kreq(m.throughput),
            Value::pct(m.reject_share_percent()),
            Value::ms(m.reject_latency_mean_ms),
            Value::ms(m.latency_mean_ms),
        ]);
    }
    // In `strategies()` order: pessimistic, optimistic 2 / 5 / 15 ms.
    let m = |i: usize| results[i].metrics;
    let latency = m(0).reject_latency_mean_ms / m(2).reject_latency_mean_ms;
    let share = m(3).reject_share_percent() / m(0).reject_share_percent();
    let claims = vec![
        Claim::new("pessimistic / 5ms reject latency", latency, AtMost(1.0)),
        Claim::new("15ms / pessimistic reject share", share, AtMost(1.0)),
    ];
    ExperimentReport {
        title: "Extra — client reject-handling spectrum (Section 5.3)".into(),
        claims,
        body: table.text(),
        csv: vec![("extra_strategies.csv".into(), table.csv())],
    }
}
