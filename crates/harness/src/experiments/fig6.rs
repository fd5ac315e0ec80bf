//! Figure 6: performance comparison under increasing request load.
//!
//! IDEM, IDEM_noPR, Paxos and BFT-SMaRt are driven with increasing client
//! counts. The baselines (and IDEM_noPR) show the latency explosion past
//! saturation; IDEM's latency plateaus around 1.3 ms once the rejection
//! mechanism engages (~43 k req/s at RT = 50).

use crate::cluster::Protocol;
use crate::experiments::{measure_grid, Effort};
use crate::report::Bound::{AtLeast, AtMost};
use crate::report::{fmt_ms, Claim, Column, ExperimentReport, Table, Value};
use crate::sweep::SweepRunner;

/// The client-load factors swept.
pub const FACTORS: [f64; 7] = [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0];

/// The systems compared.
pub fn systems() -> Vec<Protocol> {
    vec![
        Protocol::idem(),
        Protocol::idem_no_pr(),
        Protocol::paxos(),
        Protocol::smart(),
    ]
}

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let points: Vec<(Protocol, f64)> = systems()
        .into_iter()
        .flat_map(|p| FACTORS.iter().map(move |&f| (p.clone(), f)))
        .collect();
    let measured = measure_grid(runner, &points, effort);
    let mut table = Table::new(&[
        Column::Both("system", "system"),
        Column::Both("load", "load_factor"),
        Column::Both("tput [req/s]", "throughput"),
        Column::Both("lat [ms]", "latency_ms"),
        Column::Both("std [ms]", "std_ms"),
    ]);
    let mut idem_peak_latency: f64 = 0.0;
    let mut worst_baseline_latency: f64 = 0.0;
    for ((protocol, factor), m) in points.iter().zip(&measured) {
        if protocol.name() == "IDEM" {
            idem_peak_latency = idem_peak_latency.max(m.latency_mean_ms);
        } else if protocol.name() != "IDEM_noPR" {
            worst_baseline_latency = worst_baseline_latency.max(m.latency_mean_ms);
        }
        table.push([
            Value::plain(protocol.name()),
            Value::factor(*factor),
            Value::kreq(m.throughput),
            Value::ms(m.latency_mean_ms),
            Value::ms(m.latency_std_ms),
        ]);
    }
    let body = format!(
        "{}\nIDEM peak latency {} ms vs worst baseline latency {} ms \
         (paper: IDEM plateaus ~1.3 ms, baselines explode)\n",
        table.text(),
        fmt_ms(idem_peak_latency),
        fmt_ms(worst_baseline_latency),
    );
    let at = |name: &str, f: f64| {
        let i = points
            .iter()
            .position(|(p, pf)| p.name() == name && *pf == f);
        &measured[i.expect("a point of the grid")]
    };
    let lat = |name: &str, f: f64| at(name, f).latency_mean_ms;
    let gap_at = |f: f64| (lat("IDEM", f) / lat("IDEM_noPR", f) - 1.0).abs();
    let gap = [0.2, 0.5, 1.0].map(gap_at).into_iter().fold(0.0, f64::max);
    let explosion = worst_baseline_latency / idem_peak_latency;
    let paxos = lat("Paxos", 4.0) / lat("Paxos", 1.0);
    let plateau = lat("IDEM", 4.0) / lat("IDEM", 1.0);
    let held = at("IDEM", 4.0).throughput / at("IDEM", 1.0).throughput;
    let rejected = at("IDEM", 0.5).reject_share_percent();
    let claims = vec![
        Claim::new("baseline / IDEM peak latency", explosion, AtLeast(2.0)),
        Claim::new("Paxos latency 4x / 1x", paxos, AtLeast(3.0)),
        Claim::new("IDEM / IDEM_noPR latency gap <= 1x", gap, AtMost(0.05)),
        Claim::new("IDEM reject share at 0.5x [%]", rejected, AtMost(0.0)),
        Claim::new("IDEM latency 4x / 1x", plateau, AtMost(1.5)),
        Claim::new("IDEM throughput 4x / 1x", held, AtLeast(0.9)),
    ];
    ExperimentReport {
        title: "Figure 6 — protocol comparison under increasing load".into(),
        claims,
        body,
        csv: vec![("fig6_comparison.csv".into(), table.csv())],
    }
}
