//! One reproducible experiment per table/figure of the paper's evaluation.
//!
//! Every experiment returns an [`ExperimentReport`](crate::report::ExperimentReport)
//! holding a paper-style text table plus CSV series for plotting. All
//! experiments accept an [`Effort`] that scales run length: `quick` for CI
//! and iteration, `full` for paper-scale runs. Beyond the paper's own
//! figures, [`strategies`] quantifies the Section 5.3 client spectrum.

pub mod fig10;
pub mod fig10d;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod load;
pub mod strategies;
pub mod table1;

use std::time::Duration;

use crate::recorder::RunMetrics;
use crate::report::render_csv;
use crate::scenario::{clients_for_factor, CrashPlan, Scenario};
use crate::sweep::{Cell, SweepRunner};
use crate::Protocol;

/// Run-length / repetition preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Measured duration per run.
    pub duration: Duration,
    /// Warmup excluded from metrics.
    pub warmup: Duration,
    /// Independent repetitions averaged per data point (the paper uses 3).
    pub repetitions: u32,
    /// Target successful operations for fixed-count experiments (Table 1).
    pub fixed_requests: u64,
}

impl Effort {
    /// Small runs for CI and iteration: 3 s measured, one repetition.
    pub fn quick() -> Effort {
        Effort {
            duration: Duration::from_secs(3),
            warmup: Duration::from_secs(1),
            repetitions: 1,
            fixed_requests: 50_000,
        }
    }

    /// Paper-scale runs: 20 s measured, three repetitions, 1 M requests
    /// for Table 1.
    pub fn full() -> Effort {
        Effort {
            duration: Duration::from_secs(20),
            warmup: Duration::from_secs(2),
            repetitions: 3,
            fixed_requests: 1_000_000,
        }
    }
}

/// Averages metrics across repetitions (throughputs and latencies are
/// arithmetic means; counts summed then divided).
pub(crate) fn average(metrics: &[RunMetrics]) -> RunMetrics {
    let n = metrics.len().max(1) as f64;
    let sum = |f: fn(&RunMetrics) -> f64| metrics.iter().map(f).sum::<f64>() / n;
    RunMetrics {
        successes: (metrics.iter().map(|m| m.successes).sum::<u64>() as f64 / n) as u64,
        rejections: (metrics.iter().map(|m| m.rejections).sum::<u64>() as f64 / n) as u64,
        rejections_final: (metrics.iter().map(|m| m.rejections_final).sum::<u64>() as f64 / n)
            as u64,
        throughput: sum(|m| m.throughput),
        reject_throughput: sum(|m| m.reject_throughput),
        latency_mean_ms: sum(|m| m.latency_mean_ms),
        latency_std_ms: sum(|m| m.latency_std_ms),
        latency_p50_ms: sum(|m| m.latency_p50_ms),
        latency_p99_ms: sum(|m| m.latency_p99_ms),
        reject_latency_mean_ms: sum(|m| m.reject_latency_mean_ms),
        reject_latency_std_ms: sum(|m| m.reject_latency_std_ms),
    }
}

/// Expands `(protocol, client-load factor)` grid points into one cell per
/// repetition, executes them all on `runner` (possibly in parallel), and
/// returns one repetition-averaged [`RunMetrics`] per point, in the order
/// the points were given.
///
/// Cells use the same seeds (`1000 + repetition`) and scenario parameters
/// as the pre-engine sequential harness, so numbers are unchanged.
pub(crate) fn measure_grid(
    runner: &SweepRunner,
    points: &[(Protocol, f64)],
    effort: Effort,
) -> Vec<RunMetrics> {
    let reps = effort.repetitions.max(1) as usize;
    let mut cells = Vec::with_capacity(points.len() * reps);
    for (protocol, factor) in points {
        let clients = clients_for_factor(*factor);
        for rep in 0..reps {
            let mut scenario = Scenario::new(protocol.clone(), clients, effort.duration)
                .with_seed(1000 + rep as u64);
            scenario.warmup = effort.warmup;
            cells.push(Cell::timed(scenario));
        }
    }
    let results = runner.run_cells(cells);
    results
        .chunks(reps)
        .map(|chunk| average(&chunk.iter().map(|r| r.metrics).collect::<Vec<_>>()))
        .collect()
}

/// The shortest measured window of a crash timeline. The crash falls at
/// 1.5 s, so Paxos_LBR's ≈4 s reject outage ends inside it, and Figure 10
/// averages 8 post-crash bins once it skips the 1.5 s view change (2.5 s).
const TIMELINE_FLOOR: Duration = Duration::from_secs(6);

/// A crash timeline (fig3, fig10, fig10d): `protocol` under `clients`
/// clients, with `replica` crashing a quarter of the way into the measured
/// window. Returns the cell and the crash time in seconds into the window.
///
/// The window is the paper's 8 s around the crash after `runway` (or the
/// measured duration, if longer), as at the quick and full presets; a
/// shorter effort shrinks it to six measured durations, down to
/// [`TIMELINE_FLOOR`].
pub(crate) fn timeline_cell(
    protocol: Protocol,
    clients: u32,
    replica: usize,
    effort: Effort,
    runway: Duration,
) -> (Cell, f64) {
    let paper = effort.duration.max(runway) + Duration::from_secs(8);
    let duration = paper.min(6 * effort.duration).max(TIMELINE_FLOOR);
    let crash_at = effort.warmup + duration / 4;
    let mut scenario = Scenario::new(protocol, clients, duration).with_crash(CrashPlan {
        replica,
        at: crash_at,
    });
    scenario.warmup = effort.warmup;
    (Cell::timed(scenario), (duration / 4).as_secs_f64())
}

/// Longest stretch (seconds) without any rejection after `after_s`,
/// computed over a reject time series — the "reject downtime" of
/// Figures 3 and 10d.
pub(crate) fn reject_downtime_s(
    series: &[(f64, f64)],
    bin_s: f64,
    after_s: f64,
    end_s: f64,
) -> f64 {
    // Collect times of bins with at least one rejection.
    let mut last = after_s;
    let mut max_gap: f64 = 0.0;
    for &(t, rate) in series {
        if t < after_s {
            continue;
        }
        if rate > 0.0 {
            max_gap = max_gap.max(t - last);
            last = t + bin_s;
        }
    }
    max_gap.max(end_s - last)
}

/// The series values in `[from, to)` seconds.
pub(crate) fn window(series: &[(f64, f64)], from: f64, to: f64) -> Vec<f64> {
    series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect()
}

/// Mean of the series values in `[from, to)` seconds; NaN if there are none.
pub(crate) fn window_mean(series: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let vals = window(series, from, to);
    if vals.is_empty() {
        f64::NAN
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Joins a per-bin series to a second one over the same bins:
/// `(t, value, other's value at t)`, NaN where `other` has no bin at `t`.
pub(crate) fn join_bins(series: &[(f64, f64)], other: &[(f64, f64)]) -> Vec<(f64, f64, f64)> {
    series
        .iter()
        .map(|&(t, v)| {
            let o = other
                .iter()
                .find(|(ot, _)| (*ot - t).abs() < 1e-9)
                .map_or(f64::NAN, |(_, o)| *o);
            (t, v, o)
        })
        .collect()
}

/// The CSV of a timeline: [`join_bins`] of `series` and `other`, one row
/// per bin, under the three `headers`.
pub(crate) fn timeline_csv(
    headers: &[&str; 3],
    series: &[(f64, f64)],
    other: &[(f64, f64)],
) -> String {
    let rows: Vec<Vec<String>> = join_bins(series, other)
        .into_iter()
        .map(|(t, v, o)| vec![t.to_string(), v.to_string(), o.to_string()])
        .collect();
    render_csv(headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_identical_metrics_is_identity() {
        let m = RunMetrics {
            successes: 10,
            rejections: 2,
            rejections_final: 1,
            throughput: 100.0,
            reject_throughput: 5.0,
            latency_mean_ms: 1.5,
            latency_std_ms: 0.2,
            latency_p50_ms: 1.4,
            latency_p99_ms: 3.0,
            reject_latency_mean_ms: 1.2,
            reject_latency_std_ms: 0.6,
        };
        let avg = average(&[m, m, m]);
        assert_eq!(avg.successes, 10);
        assert_eq!(avg.throughput, 100.0);
        assert_eq!(avg.latency_mean_ms, 1.5);
    }

    #[test]
    fn downtime_detects_gap_after_crash() {
        // Rejections at 0.0–1.0 s, silence 1.0–5.0 s, rejections resume.
        let mut series = Vec::new();
        for i in 0..4 {
            series.push((i as f64 * 0.25, 10.0));
        }
        for i in 4..20 {
            series.push((i as f64 * 0.25, 0.0));
        }
        for i in 20..24 {
            series.push((i as f64 * 0.25, 10.0));
        }
        let downtime = reject_downtime_s(&series, 0.25, 0.5, 6.0);
        assert!((downtime - 4.0).abs() < 0.3, "downtime was {downtime}");
    }

    #[test]
    fn downtime_is_small_for_continuous_rejection() {
        let series: Vec<(f64, f64)> = (0..40).map(|i| (i as f64 * 0.25, 5.0)).collect();
        let downtime = reject_downtime_s(&series, 0.25, 1.0, 10.0);
        assert!(downtime < 0.5, "downtime was {downtime}");
    }

    #[test]
    fn timelines_join_on_bins() {
        let rate = [(0.0, 4.0), (0.25, 0.0), (0.5, 8.0)];
        let lat = [(0.0, 1.5), (0.5, 2.5)];
        assert_eq!(
            timeline_csv(&["t_s", "rate", "lat"], &rate, &lat),
            "t_s,rate,lat\n0,4,1.5\n0.25,0,NaN\n0.5,8,2.5\n"
        );
        assert_eq!(window_mean(&rate, 0.0, 0.5), 2.0);
        assert!(window_mean(&rate, 1.0, 2.0).is_nan());
    }

    #[test]
    fn timeline_windows_keep_the_presets_and_floor_shorter_efforts() {
        let s = Duration::from_secs;
        let tiny = Effort {
            duration: Duration::from_millis(300),
            ..Effort::quick()
        };
        let window = |effort, runway| {
            let (cell, crash_s) = timeline_cell(Protocol::idem(), 1, 0, effort, runway);
            assert_eq!(crash_s, cell.scenario.duration.as_secs_f64() / 4.0);
            cell.scenario.duration
        };
        // fig3 and fig10d, then fig10.
        for (runway, quick) in [(s(10), s(18)), (s(8), s(16))] {
            assert_eq!(window(Effort::quick(), runway), quick);
            assert_eq!(window(Effort::full(), runway), s(28));
            assert_eq!(window(tiny, runway), TIMELINE_FLOOR);
        }
    }

    #[test]
    fn efforts_differ_in_scale() {
        assert!(Effort::full().duration > Effort::quick().duration);
        assert!(Effort::full().fixed_requests > Effort::quick().fixed_requests);
    }
}
