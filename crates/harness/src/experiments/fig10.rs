//! Figure 10a–c: impact of a replica crash on IDEM and IDEM_noAQM.
//!
//! Timelines of throughput and latency across a leader or follower crash,
//! at normal load (50 clients) and overload (100 clients). The paper's
//! findings: a leader crash costs ≈1.5 s (the view-change timeout), after
//! which IDEM stabilizes (≈9 % lower throughput, ≈45 % higher latency in
//! overload, still <1.7 ms); IDEM_noAQM turns unstable with only `f + 1`
//! replicas, while IDEM with active queue management does not. Here IDEM
//! gains throughput after the crash instead of losing it (EXPERIMENTS.md,
//! deviation 4).

use std::time::Duration;

use crate::cluster::Protocol;
use crate::experiments::{timeline_cell, timeline_csv, window, window_mean, Effort};
use crate::report::Bound::{AtLeast, AtMost};
use crate::report::{fmt_kreq, fmt_ms, render_table, Claim, ExperimentReport};
use crate::sweep::SweepRunner;

/// The client counts: normal load and overload.
pub const CLIENT_COUNTS: [u32; 2] = [50, 100];

/// Coefficient of variation of the series values in `[from, to)` — the
/// instability measure for the noAQM comparison.
fn window_cv(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals = window(series, from, to);
    if vals.len() < 2 {
        return f64::NAN;
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
    var.sqrt() / mean.max(f64::MIN_POSITIVE)
}

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    // Expand the full (clients × crash × protocol) grid into cells first so
    // all eight timelines can run in parallel.
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for &clients in &CLIENT_COUNTS {
        for (crash_name, replica) in [("leader", 0usize), ("follower", 2usize)] {
            for protocol in [Protocol::idem(), Protocol::idem_no_aqm()] {
                let name = protocol.name();
                let runway = Duration::from_secs(8);
                let (cell, crash_s) = timeline_cell(protocol, clients, replica, effort, runway);
                cells.push(cell);
                labels.push((name, clients, crash_name, crash_s));
            }
        }
    }
    let results = runner.run_cells(cells);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    // `(tput post / pre, lat post, cv post)` per timeline, in `labels` order.
    let mut post = Vec::new();
    for (&(name, clients, crash_name, crash_s), result) in labels.iter().zip(&results) {
        let tput = result.throughput_series();
        let lat = result.latency_series_ms();
        let end = result.measured.as_secs_f64();
        // Skip the view-change gap (~2 s) when judging "after".
        let after_from = crash_s + 2.5;
        let before_tput = window_mean(&tput, 0.0, crash_s);
        let after_tput = window_mean(&tput, after_from, end);
        let before_lat = window_mean(&lat, 0.0, crash_s);
        let after_lat = window_mean(&lat, after_from, end);
        let stability = window_cv(&tput, after_from, end);
        rows.push(vec![
            name.to_string(),
            clients.to_string(),
            crash_name.to_string(),
            fmt_kreq(before_tput),
            fmt_kreq(after_tput),
            fmt_ms(before_lat),
            fmt_ms(after_lat),
            format!("{:.2}", stability),
        ]);
        post.push((after_tput / before_tput, after_lat, stability));
        csv.push((
            format!("fig10_{name}_{clients}c_{crash_name}.csv"),
            timeline_csv(&["t_s", "throughput", "latency_ms"], &tput, &lat),
        ));
    }
    let at = |name: &str, clients: u32, crash: &str| {
        let i = labels
            .iter()
            .position(|&(n, c, k, _)| (n, c, k) == (name, clients, crash));
        post[i.expect("a timeline of the grid")]
    };
    let (normal, overload) = (at("IDEM", 50, "leader"), at("IDEM", 100, "leader"));
    let follower = at("IDEM", 100, "follower");
    let calmer = overload.2 / at("IDEM_noAQM", 100, "leader").2;
    let claims = vec![
        Claim::new("IDEM tput post/pre leader 50c", normal.0, AtLeast(0.9)),
        Claim::new("IDEM tput post/pre follower 100c", follower.0, AtLeast(0.9)),
        Claim::new("IDEM lat post leader 100c [ms]", overload.1, AtMost(1.7)),
        Claim::new("cv IDEM / IDEM_noAQM leader 100c", calmer, AtMost(0.5)),
        Claim::new("IDEM tput post/pre leader 100c", overload.0, AtMost(0.95)).deviation(4),
    ];
    let body = format!(
        "{}\n('cv' is the post-crash throughput coefficient of variation: \
         the paper's instability of IDEM_noAQM shows up as a larger cv)\n",
        render_table(
            &[
                "system",
                "clients",
                "crash",
                "tput pre",
                "tput post",
                "lat pre",
                "lat post",
                "cv post",
            ],
            &rows,
        )
    );
    ExperimentReport {
        title: "Figure 10a–c — replica crash timelines (IDEM vs IDEM_noAQM)".into(),
        claims,
        body,
        csv,
    }
}
