//! The paper's claims, checked: each experiment that declares claims runs
//! once, at the smallest preset where they come out as declared — each
//! holds, or fails by its numbered EXPERIMENTS.md deviation — and every CSV
//! it writes has data rows. Figure 3 declares none: it reads Figure 10d's
//! Paxos_LBR leader timeline, whose downtime claim fig10d checks.

use std::time::Duration;

use idem_harness::experiments::{self, Effort};
use idem_harness::report::ExperimentReport;
use idem_harness::sweep::SweepRunner;

/// 0.3 s measured after 0.2 s of warmup, one repetition, 2,000 requests
/// for Table 1: the smallest of 2 / 0.9 / 0.5 / 0.2 s runs at which every
/// verdict comes out (at 0.2 s the strategies' reject shares do not). The
/// crash timelines (fig10, fig10d) run for their shortest window, the floor
/// their claims need around the crash.
const TINY: Effort = Effort {
    duration: Duration::from_millis(300),
    warmup: Duration::from_millis(200),
    repetitions: 1,
    fixed_requests: 2_000,
};

/// Runs `experiment` at [`TINY`] on two workers and checks its report.
fn check(experiment: fn(Effort, &SweepRunner) -> ExperimentReport) -> ExperimentReport {
    let report = experiment(TINY, &SweepRunner::new(2));
    assert!(!report.claims.is_empty(), "{}: no claims", report.title);
    let unexpected: Vec<String> = report
        .claims
        .iter()
        .filter(|c| !c.verdict().as_declared())
        .map(|c| format!("{} = {} ({}): {}", c.name, c.measured, c.bound, c.verdict()))
        .collect();
    assert!(unexpected.is_empty(), "{}: {unexpected:#?}", report.title);
    for (name, content) in &report.csv {
        assert!(
            content.lines().count() >= 2,
            "{}: {name} has no data rows",
            report.title
        );
    }
    report
}

#[test]
fn fig2_claims() {
    check(experiments::fig2::run);
}

#[test]
fn fig6_claims() {
    check(experiments::fig6::run);
}

#[test]
fn fig7_claims() {
    check(experiments::fig7::run);
}

#[test]
fn table1_claims() {
    check(experiments::table1::run);
}

#[test]
fn fig8_claims() {
    check(experiments::fig8::run);
}

#[test]
fn fig9a_claims() {
    check(experiments::fig9::run_misconfigured);
}

#[test]
fn fig9b_claims() {
    check(experiments::fig9::run_extreme);
}

#[test]
fn fig10_claims() {
    // 2 systems × 2 crash kinds × 2 loads.
    assert_eq!(check(experiments::fig10::run).csv.len(), 8);
}

#[test]
fn fig10d_claims() {
    // 2 systems × 2 crash kinds.
    assert_eq!(check(experiments::fig10d::run).csv.len(), 4);
}

#[test]
fn strategies_claims() {
    check(experiments::strategies::run);
}
