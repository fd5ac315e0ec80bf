//! Table 1: network overhead of IDEM's rejection mechanism.
//!
//! The paper issues a fixed number of 1,000,000 completed requests to IDEM
//! and IDEM_noPR at client-load factors 0.5×, 1× and 4× and compares total
//! network traffic: no visible difference (run-to-run variation ±2–3 %).

use std::time::Duration;

use crate::cluster::Protocol;
use crate::experiments::Effort;
use crate::report::Bound::AtMost;
use crate::report::{fmt_gb, render_csv, render_table, Claim, ExperimentReport};
use crate::scenario::{clients_for_factor, Scenario};
use crate::sweep::{Cell, SweepRunner};

/// Load levels of Table 1: medium (0.5×), high (1×), overload (4×).
pub const FACTORS: [(f64, &str); 3] = [(0.5, "Medium Load"), (1.0, "High Load"), (4.0, "Overload")];

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let systems = [Protocol::idem_no_pr(), Protocol::idem()];
    let mut cells = Vec::new();
    for protocol in &systems {
        for &(factor, _) in &FACTORS {
            let mut scenario = Scenario::new(
                protocol.clone(),
                clients_for_factor(factor),
                Duration::from_secs(3600), // bounded by the success target
            );
            scenario.warmup = Duration::ZERO;
            cells.push(Cell::until_successes(
                scenario,
                effort.fixed_requests,
                Duration::from_millis(500),
            ));
        }
    }
    let results = runner.run_cells(cells);
    // rows[system][factor] = total bytes
    let mut bytes = [[0u64; 3]; 2];
    let mut forwards = [[0u64; 3]; 2];
    for (i, result) in results.iter().enumerate() {
        let (si, fi) = (i / FACTORS.len(), i % FACTORS.len());
        bytes[si][fi] = result.total_traffic_bytes();
        forwards[si][fi] = result
            .idem_stats
            .iter()
            .map(|s| s.forwards_sent)
            .sum::<u64>();
    }
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (si, protocol) in systems.iter().enumerate() {
        let mut row = vec![protocol.name().to_string()];
        for &b in &bytes[si] {
            row.push(format!("{} GB", fmt_gb(b)));
        }
        rows.push(row);
        for (fi, &(factor, _)) in FACTORS.iter().enumerate() {
            csv_rows.push(vec![
                protocol.name().to_string(),
                factor.to_string(),
                bytes[si][fi].to_string(),
                forwards[si][fi].to_string(),
            ]);
        }
    }
    let overhead_pct = |fi: usize| {
        let (no_pr, with_pr) = (bytes[0][fi] as f64, bytes[1][fi] as f64);
        100.0 * (with_pr - no_pr) / no_pr
    };
    let overheads: Vec<String> = (0..3)
        .map(|fi| format!("{}: {:+.2}%", FACTORS[fi].1, overhead_pct(fi)))
        .collect();
    // The paper's "no visible difference" is run-to-run variation of ±2–3 %.
    let over = |fi: usize| overhead_pct(fi).abs();
    let claims = vec![
        Claim::new("|traffic overhead| at 0.5x [%]", over(0), AtMost(3.0)),
        Claim::new("|traffic overhead| at 1x [%]", over(1), AtMost(3.0)),
        Claim::new("|traffic overhead| at 4x [%]", over(2), AtMost(3.0)).deviation(5),
    ];
    let body = format!(
        "{}\nrejection-mechanism overhead vs IDEM_noPR: {} (paper: no visible difference, ±2-3%)\n\
         total forwards sent by IDEM (all replicas): medium={} high={} overload={}\n",
        render_table(&["", "Medium Load", "High Load", "Overload"], &rows,),
        overheads.join(", "),
        forwards[1][0],
        forwards[1][1],
        forwards[1][2],
    );
    ExperimentReport {
        title: format!(
            "Table 1 — network traffic for {} completed requests",
            effort.fixed_requests
        ),
        claims,
        body,
        csv: vec![(
            "table1_overhead.csv".into(),
            render_csv(
                &["system", "load_factor", "total_bytes", "forwards_sent"],
                &csv_rows,
            ),
        )],
    }
}
