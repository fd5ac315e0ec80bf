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
use crate::experiments::Effort;
use crate::report::{fmt_kreq, fmt_ms, render_csv, render_table, ExperimentReport};
use crate::scenario::{CrashPlan, Scenario};
use crate::sweep::{Cell, SweepRunner};

/// The client counts: normal load and overload.
pub const CLIENT_COUNTS: [u32; 2] = [50, 100];

/// Builds one timeline cell; returns it with the crash time (seconds into
/// the measured window).
fn timeline_cell(
    protocol: Protocol,
    clients: u32,
    crash_replica: usize,
    effort: Effort,
) -> (Cell, f64) {
    let duration = effort.duration.max(Duration::from_secs(8)) + Duration::from_secs(8);
    let crash_at = effort.warmup + duration / 4;
    let mut scenario = Scenario::new(protocol, clients, duration).with_crash(CrashPlan {
        replica: crash_replica,
        at: crash_at,
    });
    scenario.warmup = effort.warmup;
    let crash_s = (crash_at - effort.warmup).as_secs_f64();
    (Cell::timed(scenario), crash_s)
}

/// Mean of the series values in `[from, to)` seconds.
fn window_mean(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect();
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Coefficient of variation of the series values in `[from, to)` — the
/// instability measure for the noAQM comparison.
fn window_cv(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect();
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
        for (crash_name, crash_replica) in [("leader", 0usize), ("follower", 2usize)] {
            for protocol in [Protocol::idem(), Protocol::idem_no_aqm()] {
                let name = protocol.name();
                let (cell, crash_s) = timeline_cell(protocol, clients, crash_replica, effort);
                cells.push(cell);
                labels.push((name, clients, crash_name, crash_s));
            }
        }
    }
    let results = runner.run_cells(cells);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
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
        let mut csv_rows = Vec::new();
        for &(t, v) in &tput {
            let l = lat
                .iter()
                .find(|(lt, _)| (*lt - t).abs() < 1e-9)
                .map_or(f64::NAN, |(_, l)| *l);
            csv_rows.push(vec![t.to_string(), v.to_string(), l.to_string()]);
        }
        csv.push((
            format!("fig10_{name}_{clients}c_{crash_name}.csv"),
            render_csv(&["t_s", "throughput", "latency_ms"], &csv_rows),
        ));
    }
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
        paper_claim: "leader crash: ≈1.5 s gap, then stable service (overload: ≈9% lower \
                      throughput, ≈45% higher latency, <1.7 ms); follower crash: no \
                      interruption; IDEM_noAQM is visibly unstable with f+1 replicas"
            .into(),
        body,
        csv,
    }
}
