//! Figure 10d: reject latency of IDEM vs Paxos_LBR across replica crashes.
//!
//! Both systems prevent overload, so the comparison is about *rejection
//! availability*: Paxos_LBR stops rejecting for ≈4 s when its leader
//! crashes, while IDEM's collaborative rejection continues through the
//! view change (with only a small latency bump from the optimistic
//! client's 5 ms grace period, since `n` rejects can no longer arrive).

use std::time::Duration;

use crate::cluster::Protocol;
use crate::experiments::{reject_downtime_s, timeline_cell, timeline_csv, window_mean, Effort};
use crate::recorder::BIN_WIDTH;
use crate::report::Bound::{AtLeast, AtMost};
use crate::report::{downsample, fmt_ms, render_table, sparkline, Claim, ExperimentReport};
use crate::scenario::clients_for_factor;
use crate::sweep::{Cell, SweepRunner};

/// Overload factor during the runs.
pub const LOAD_FACTOR: f64 = 2.0;
/// LBR leader threshold (comparable to IDEM's system-wide budget).
pub const LBR_THRESHOLD: u32 = 30;

/// One timeline of the figure: `protocol` at [`LOAD_FACTOR`], with
/// `replica` crashing (0 is the leader). Returns the cell and the crash
/// time in seconds into the measured window; Figure 3 reads the Paxos_LBR
/// leader cell.
pub(crate) fn cell(protocol: Protocol, replica: usize, effort: Effort) -> (Cell, f64) {
    let clients = clients_for_factor(LOAD_FACTOR);
    timeline_cell(protocol, clients, replica, effort, Duration::from_secs(10))
}

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (crash_name, crash_replica) in [("leader", 0usize), ("follower", 2usize)] {
        for protocol in [Protocol::idem(), Protocol::paxos_lbr(LBR_THRESHOLD)] {
            let name = protocol.name();
            let (timeline, crash_s) = cell(protocol, crash_replica, effort);
            cells.push(timeline);
            labels.push((name, crash_name, crash_s));
        }
    }
    let results = runner.run_cells(cells);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut downtimes = Vec::new();
    for (&(name, crash_name, crash_s), result) in labels.iter().zip(&results) {
        let end = result.measured.as_secs_f64();
        let rate = result.reject_throughput_series();
        let lat = result.reject_latency_series_ms();
        let bin_s = BIN_WIDTH.as_secs_f64();
        let downtime = reject_downtime_s(&rate, bin_s, crash_s, end);
        let pre = window_mean(&lat, 0.0, crash_s);
        let post = window_mean(&lat, crash_s + downtime + 0.5, end);
        rows.push(vec![
            name.to_string(),
            crash_name.to_string(),
            fmt_ms(pre),
            fmt_ms(post),
            format!("{downtime:.2}"),
            sparkline(&downsample(&rate, 40)),
        ]);
        downtimes.push(downtime);
        csv.push((
            format!("fig10d_{name}_{crash_name}.csv"),
            timeline_csv(&["t_s", "reject_rate", "reject_latency_ms"], &rate, &lat),
        ));
    }
    let downtime = |name: &str, crash: &str| {
        let i = labels.iter().position(|&(n, c, _)| (n, c) == (name, crash));
        downtimes[i.expect("a timeline of the figure")]
    };
    let claims = vec![
        Claim::new(
            "Paxos_LBR reject downtime after leader crash [s]",
            downtime("Paxos_LBR", "leader"),
            AtLeast(3.0),
        ),
        Claim::new(
            "Paxos_LBR reject downtime after follower crash [s]",
            downtime("Paxos_LBR", "follower"),
            AtMost(0.5),
        ),
        Claim::new(
            "IDEM reject downtime after leader crash [s]",
            downtime("IDEM", "leader"),
            AtMost(0.5),
        ),
        Claim::new(
            "IDEM reject downtime after follower crash [s]",
            downtime("IDEM", "follower"),
            AtMost(0.5),
        ),
    ];
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
        claims,
        body,
        csv,
    }
}
