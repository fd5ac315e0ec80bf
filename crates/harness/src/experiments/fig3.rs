//! Figure 3: impact of a leader crash on rejections in Paxos_LBR.
//!
//! Under overload, Paxos_LBR rejects from the leader. Crashing the leader
//! silences rejections entirely until the view change completes *and*
//! clients have failed over to the new leader — a reject downtime of
//! several seconds (the paper reports ≈4 s).
//!
//! The run is Figure 10d's Paxos_LBR leader-crash timeline, so a runner that
//! simulated one serves the other; its downtime claim is declared there.

use crate::cluster::Protocol;
use crate::experiments::{fig10d, join_bins, reject_downtime_s, timeline_csv, Effort};
use crate::recorder::BIN_WIDTH;
use crate::report::{downsample, render_table, sparkline, ExperimentReport};
use crate::sweep::SweepRunner;

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    let protocol = Protocol::paxos_lbr(fig10d::LBR_THRESHOLD);
    let (cell, crash_s) = fig10d::cell(protocol, 0, effort);
    let result = runner.run_cells(vec![cell]).remove(0);

    let series = result.reject_throughput_series();
    let latency_series = result.reject_latency_series_ms();
    let bin_s = BIN_WIDTH.as_secs_f64();
    let downtime = reject_downtime_s(&series, bin_s, crash_s, result.measured.as_secs_f64());

    let mut rows = Vec::new();
    for (i, (t, rate, lat)) in join_bins(&series, &latency_series).into_iter().enumerate() {
        // Keep the text table readable: subsample to ~1 s granularity.
        if i % (1.0 / bin_s).round().max(1.0) as usize == 0 {
            rows.push(vec![
                format!("{t:.2}"),
                format!("{rate:.0}"),
                if lat.is_nan() {
                    "-".into()
                } else {
                    format!("{lat:.2}")
                },
            ]);
        }
    }
    let spark = sparkline(&downsample(&series, 60));
    let body = format!(
        "{}\nreject rate over time: {spark}\nleader crashed at t={crash_s:.1}s; \
         reject downtime = {downtime:.2}s (paper: ≈4s of no rejections)\n",
        render_table(&["t [s]", "rejects [1/s]", "rej lat [ms]"], &rows)
    );
    ExperimentReport {
        title: "Figure 3 — leader crash silences rejections in Paxos_LBR".into(),
        claims: Vec::new(),
        body,
        csv: vec![(
            "fig3_lbr_crash.csv".into(),
            timeline_csv(
                &["t_s", "reject_rate", "reject_latency_ms"],
                &series,
                &latency_series,
            ),
        )],
    }
}
