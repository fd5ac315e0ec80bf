//! Figure 3: impact of a leader crash on rejections in Paxos_LBR.
//!
//! Under overload, Paxos_LBR rejects from the leader. Crashing the leader
//! silences rejections entirely until the view change completes *and*
//! clients have failed over to the new leader — a reject downtime of
//! several seconds (the paper reports ≈4 s).

use std::time::Duration;

use crate::cluster::Protocol;
use crate::experiments::{reject_downtime_s, Effort};
use crate::recorder::BIN_WIDTH;
use crate::report::{downsample, render_csv, render_table, sparkline, ExperimentReport};
use crate::scenario::{clients_for_factor, CrashPlan, Scenario};
use crate::sweep::{Cell, SweepRunner};

/// Overload factor during the run.
pub const LOAD_FACTOR: f64 = 2.0;
/// Leader threshold used for LBR (comparable to IDEM's system-wide
/// `r_max`-scale budget).
pub const LBR_THRESHOLD: u32 = 30;

/// Runs the experiment.
pub fn run(effort: Effort, runner: &SweepRunner) -> ExperimentReport {
    // Timeline experiments need enough runway around the crash.
    let duration = effort.duration.max(Duration::from_secs(10)) + Duration::from_secs(8);
    let warmup = effort.warmup;
    let crash_at = warmup + duration / 4;
    let mut scenario = Scenario::new(
        Protocol::paxos_lbr(LBR_THRESHOLD),
        clients_for_factor(LOAD_FACTOR),
        duration,
    )
    .with_crash(CrashPlan {
        replica: 0,
        at: crash_at,
    });
    scenario.warmup = warmup;
    let mut results = runner.run_cells(vec![Cell::timed(scenario)]);
    let result = results.remove(0);

    let series = result.reject_throughput_series();
    let latency_series = result.reject_latency_series_ms();
    let bin_s = BIN_WIDTH.as_secs_f64();
    let crash_s = (crash_at - warmup).as_secs_f64();
    let downtime = reject_downtime_s(&series, bin_s, crash_s, duration.as_secs_f64());

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (i, &(t, rate)) in series.iter().enumerate() {
        let lat = latency_series
            .iter()
            .find(|(lt, _)| (*lt - t).abs() < 1e-9)
            .map_or(f64::NAN, |(_, l)| *l);
        csv_rows.push(vec![t.to_string(), rate.to_string(), lat.to_string()]);
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
        paper_claim: "with leader-based rejection, a leader crash stops rejection \
                      notifications for ≈4 s (client timeouts + view change + failover)"
            .into(),
        body,
        csv: vec![(
            "fig3_lbr_crash.csv".into(),
            render_csv(&["t_s", "reject_rate", "reject_latency_ms"], &csv_rows),
        )],
    }
}
