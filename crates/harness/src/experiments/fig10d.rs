//! Figure 10d: reject latency of IDEM vs Paxos_LBR across replica crashes.
//!
//! Both systems prevent overload, so the comparison is about *rejection
//! availability*: Paxos_LBR stops rejecting for ≈4 s when its leader
//! crashes, while IDEM's collaborative rejection continues through the
//! view change (with only a small latency bump from the optimistic
//! client's 5 ms grace period, since `n` rejects can no longer arrive).

use std::time::Duration;

use crate::cluster::Protocol;
use crate::experiments::{reject_downtime_s, Effort};
use crate::recorder::BIN_WIDTH;
use crate::report::{downsample, fmt_ms, render_csv, render_table, sparkline, ExperimentReport};
use crate::scenario::{clients_for_factor, CrashPlan, Scenario};
use crate::sweep::{Cell, SweepRunner};

/// Overload factor during the runs.
pub const LOAD_FACTOR: f64 = 2.0;
/// LBR leader threshold (comparable to IDEM's system-wide budget).
pub const LBR_THRESHOLD: u32 = 30;

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let duration = effort.duration.max(Duration::from_secs(10)) + Duration::from_secs(8);
    let clients = clients_for_factor(LOAD_FACTOR);
    let crash_at = effort.warmup + duration / 4;
    let crash_s = (crash_at - effort.warmup).as_secs_f64();
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (crash_name, crash_replica) in [("leader", 0usize), ("follower", 2usize)] {
        for protocol in [Protocol::idem(), Protocol::paxos_lbr(LBR_THRESHOLD)] {
            let name = protocol.name();
            let mut scenario = Scenario::new(protocol, clients, duration).with_crash(CrashPlan {
                replica: crash_replica,
                at: crash_at,
            });
            scenario.warmup = effort.warmup;
            cells.push(Cell::timed(scenario));
            labels.push((name, crash_name));
        }
    }
    let results = runner.run_cells(cells);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (&(name, crash_name), result) in labels.iter().zip(&results) {
        let end = result.measured.as_secs_f64();
        let rate = result.reject_throughput_series();
        let lat = result.reject_latency_series_ms();
        let bin_s = BIN_WIDTH.as_secs_f64();
        let downtime = reject_downtime_s(&rate, bin_s, crash_s, end);
        let pre = mean_in(&lat, 0.0, crash_s);
        let post = mean_in(&lat, crash_s + downtime + 0.5, end);
        rows.push(vec![
            name.to_string(),
            crash_name.to_string(),
            fmt_ms(pre),
            fmt_ms(post),
            format!("{downtime:.2}"),
            sparkline(&downsample(&rate, 40)),
        ]);
        let mut csv_rows = Vec::new();
        for &(t, v) in &rate {
            let l = lat
                .iter()
                .find(|(lt, _)| (*lt - t).abs() < 1e-9)
                .map_or(f64::NAN, |(_, l)| *l);
            csv_rows.push(vec![t.to_string(), v.to_string(), l.to_string()]);
        }
        csv.push((
            format!("fig10d_{name}_{crash_name}.csv"),
            render_csv(&["t_s", "reject_rate", "reject_latency_ms"], &csv_rows),
        ));
    }
    let body = render_table(
        &[
            "system",
            "crash",
            "rej lat pre [ms]",
            "rej lat post [ms]",
            "reject downtime [s]",
            "reject rate over time",
        ],
        &rows,
    );
    ExperimentReport {
        title: "Figure 10d — reject latency across crashes (IDEM vs Paxos_LBR)".into(),
        paper_claim: "Paxos_LBR: ≈4 s without any rejections after a leader crash (follower \
                      crash: unaffected); IDEM: continuous rejections through the view change \
                      with only a small latency increase from the optimistic 5 ms wait"
            .into(),
        body,
        csv,
    }
}

fn mean_in(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
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
