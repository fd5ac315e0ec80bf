//! Determinism regression tests for the parallel sweep engine: the same
//! experiment must produce byte-identical reports and CSVs whether it runs
//! on one worker or many, and across repeated runs at the same seed.

use std::time::Duration;

use idem_harness::experiments::{self, Effort};
use idem_harness::report::ExperimentReport;
use idem_harness::sweep::{Cell, SweepRunner};
use idem_harness::{Protocol, Scenario};

/// Small effort keeping the cross-job comparison affordable: the grids
/// still span protocols, factors, and two repetitions.
fn tiny() -> Effort {
    Effort {
        duration: Duration::from_millis(800),
        warmup: Duration::from_millis(300),
        repetitions: 2,
        fixed_requests: 2_000,
    }
}

/// Renders everything a user can observe from a report into one string.
fn render(report: &ExperimentReport) -> String {
    let mut out = report.to_text();
    for (name, content) in &report.csv {
        out.push_str(name);
        out.push('\n');
        out.push_str(content);
    }
    out
}

#[test]
fn fig2_is_byte_identical_across_job_counts() {
    let sequential = render(&experiments::fig2::run(tiny(), &SweepRunner::new(1)));
    let parallel = render(&experiments::fig2::run(tiny(), &SweepRunner::new(4)));
    assert_eq!(sequential, parallel);
}

#[test]
fn fig7_is_byte_identical_across_job_counts_and_repeats() {
    let jobs1 = render(&experiments::fig7::run(tiny(), &SweepRunner::new(1)));
    let jobs4 = render(&experiments::fig7::run(tiny(), &SweepRunner::new(4)));
    let jobs4_again = render(&experiments::fig7::run(tiny(), &SweepRunner::new(4)));
    assert_eq!(jobs1, jobs4, "jobs=1 vs jobs=4 output diverged");
    assert_eq!(jobs4, jobs4_again, "same-seed rerun diverged");
}

#[test]
fn fig3_served_from_fig10d_renders_like_its_own_simulation() {
    // One cell: the fresh run is the same at every worker count.
    let fresh = render(&experiments::fig3::run(tiny(), &SweepRunner::new(1)));
    for jobs in [1, 4] {
        let runner = SweepRunner::new(jobs);
        experiments::fig10d::run(tiny(), &runner);
        runner.take_stats();
        let served = render(&experiments::fig3::run(tiny(), &runner));
        assert_eq!(runner.take_stats().cells, 0, "fig3 simulated again");
        assert_eq!(fresh, served, "jobs={jobs}");
    }
}

#[test]
fn mixed_protocol_cells_agree_across_job_counts() {
    // A heterogeneous batch (different protocols, loads, seeds, crash
    // plans) exercises out-of-order completion: a 4-worker pool finishes
    // short cells while long ones still run, yet results must come back in
    // declaration order with identical contents.
    fn cells() -> Vec<Cell> {
        let mut out = Vec::new();
        for (i, protocol) in [
            Protocol::idem(),
            Protocol::paxos(),
            Protocol::smart(),
            Protocol::idem_no_pr(),
        ]
        .into_iter()
        .enumerate()
        {
            let mut s = Scenario::new(
                protocol,
                10 + 10 * i as u32,
                Duration::from_millis(400 + 300 * i as u64),
            )
            .with_seed(7 + i as u64);
            s.warmup = Duration::from_millis(200);
            out.push(Cell::timed(s));
        }
        out
    }
    let sequential = SweepRunner::new(1).run_cells(cells());
    let parallel = SweepRunner::new(4).run_cells(cells());
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.clients, p.clients);
        assert_eq!(s.metrics.successes, p.metrics.successes);
        assert_eq!(s.metrics.rejections, p.metrics.rejections);
        assert_eq!(s.metrics.latency_mean_ms, p.metrics.latency_mean_ms);
        assert_eq!(s.total_messages, p.total_messages);
        assert_eq!(s.total_traffic_bytes(), p.total_traffic_bytes());
        assert_eq!(s.events_processed, p.events_processed);
        assert_eq!(s.reply_series.len(), p.reply_series.len());
    }
}
