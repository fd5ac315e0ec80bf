//! Open-loop load scenarios: the cluster under *offered* (not closed-loop)
//! arrival, driven by the aggregate million-client engine in
//! [`crate::load`].
//!
//! Five scenario families probe regimes the paper's 50-client closed loop
//! cannot reach:
//!
//! * **flash_crowd** — calm traffic, then a spike at 2.2× cluster capacity,
//!   then calm again. The family's claim: IDEM's proactive rejection
//!   sustains higher goodput through the spike than the no-rejection
//!   baselines, whose queues blow past the SLA.
//! * **diurnal** — a slow ramp up to just above capacity and back down.
//! * **hotspot** — steady overload while the zipfian key hotspot migrates
//!   between phases.
//! * **stragglers** — moderate load where 10% of the logical clients are
//!   slow to issue (extra 20–50 ms), checking they are served, not starved.
//! * **bursty** — a Markov-modulated arrival process alternating lull and
//!   burst states faster than any phase schedule.
//!
//! Every cell checks the engine's conservation books and the shared
//! recorder's session-order oracle — a failed run exits loudly rather than
//! producing a quietly wrong report.

use std::time::{Duration, Instant};

use idem_common::{ArrivalProcess, LoadPhase, MmppState};

use crate::cluster::Protocol;
use crate::load::{run_load_scenario, LoadRunResult, PhaseMetrics};
use crate::report::{fmt_ms, fmt_pct, Bound, Claim, Column, ExperimentReport, Table, Value};
use crate::scenario::LoadScenario;
use crate::sweep::SweepRunner;

/// Calibrated saturation throughput of the three-replica cluster
/// (see [`crate::cluster::KV_EXEC_COST`]); load scenarios quote arrival
/// rates as multiples of this.
pub const CAPACITY_REQ_S: f64 = 45_000.0;

/// The scenario names in grid order, for `repro --list`.
pub const SCENARIOS: [&str; 5] = ["flash_crowd", "diurnal", "hotspot", "stragglers", "bursty"];

/// Population / run-length preset for the load family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadEffort {
    /// Preset label (appears in the bench summary).
    pub label: &'static str,
    /// Logical client population per cell.
    pub population: u32,
    /// Multiplier on the base phase durations.
    pub stretch: f64,
}

impl LoadEffort {
    /// CI per-PR preset: 100 k logical clients, truncated phases —
    /// bounded to a couple of minutes of wall time on 2 workers.
    pub fn smoke() -> LoadEffort {
        LoadEffort {
            label: "smoke",
            population: 100_000,
            stretch: 0.5,
        }
    }

    /// Default preset for iteration: same population, full-length phases.
    pub fn quick() -> LoadEffort {
        LoadEffort {
            label: "quick",
            population: 100_000,
            stretch: 1.0,
        }
    }

    /// Nightly preset: a million logical clients, stretched phases.
    pub fn full() -> LoadEffort {
        LoadEffort {
            label: "full",
            population: 1_000_000,
            stretch: 2.0,
        }
    }
}

fn secs(base: f64, effort: &LoadEffort) -> Duration {
    Duration::from_secs_f64(base * effort.stretch)
}

/// The full cell grid: `(protocol, scenario)` pairs in report order.
pub fn grid(effort: &LoadEffort) -> Vec<(Protocol, LoadScenario)> {
    let pop = effort.population;
    let mut cells = Vec::new();

    // Flash crowd: the spike runs at 2.2× capacity — firmly in the regime
    // where the paper's proactive rejection is supposed to pay off.
    let flash = |effort: &LoadEffort| {
        LoadScenario::new(
            "flash_crowd",
            pop,
            CAPACITY_REQ_S,
            vec![
                LoadPhase::new("calm", secs(2.0, effort), 0.7),
                LoadPhase::new("spike", secs(3.0, effort), 2.2),
                LoadPhase::new("recover", secs(2.0, effort), 0.7),
            ],
        )
    };
    for protocol in [Protocol::idem(), Protocol::idem_no_pr(), Protocol::paxos()] {
        cells.push((protocol, flash(effort)));
    }

    // Diurnal ramp: up to 1.05× capacity and back down.
    let diurnal = |effort: &LoadEffort| {
        LoadScenario::new(
            "diurnal",
            pop,
            CAPACITY_REQ_S,
            vec![
                LoadPhase::new("night", secs(1.5, effort), 0.4),
                LoadPhase::new("morning", secs(1.5, effort), 0.8),
                LoadPhase::new("peak", secs(1.5, effort), 1.05),
                LoadPhase::new("evening", secs(1.5, effort), 0.8),
                LoadPhase::new("late", secs(1.5, effort), 0.4),
            ],
        )
    };
    for protocol in [Protocol::idem(), Protocol::paxos()] {
        cells.push((protocol, diurnal(effort)));
    }

    // Hotspot migration: steady mild overload, zipf ranking rotated on
    // each phase entry after the first.
    cells.push((
        Protocol::idem(),
        LoadScenario::new(
            "hotspot",
            pop,
            CAPACITY_REQ_S,
            vec![
                LoadPhase::new("hot_a", secs(1.5, effort), 1.1),
                LoadPhase::rotating("hot_b", secs(1.5, effort), 1.1),
                LoadPhase::rotating("hot_c", secs(1.5, effort), 1.1),
            ],
        ),
    ));

    // Slow-client stragglers: 10% of the population issues with an extra
    // 20–50 ms delay; moderate load so starvation would be visible.
    cells.push((
        Protocol::idem(),
        LoadScenario::new(
            "stragglers",
            pop,
            CAPACITY_REQ_S,
            vec![LoadPhase::new("steady", secs(4.0, effort), 0.8)],
        )
        .with_stragglers(0.1, (Duration::from_millis(20), Duration::from_millis(50))),
    ));

    // Bursty MMPP arrivals: lull/burst states alternating every ~100–200 ms
    // of exponential dwell, faster than any phase schedule could express.
    let bursty = |effort: &LoadEffort| {
        LoadScenario::new(
            "bursty",
            pop,
            CAPACITY_REQ_S,
            vec![LoadPhase::new("mmpp", secs(5.0, effort), 1.0)],
        )
        .with_process(ArrivalProcess::Mmpp(vec![
            MmppState {
                rate_mult: 0.4,
                mean_dwell: Duration::from_millis(200),
            },
            MmppState {
                rate_mult: 2.5,
                mean_dwell: Duration::from_millis(100),
            },
        ]))
    };
    for protocol in [Protocol::idem(), Protocol::smart()] {
        cells.push((protocol, bursty(effort)));
    }

    cells
}

/// Everything one load-family run produces: the rendered report plus the
/// raw per-cell results and the `BENCH_load.json` content.
#[derive(Debug, Clone)]
pub struct LoadFamilyRun {
    /// Report (tables + CSVs), deterministic across worker counts.
    pub report: ExperimentReport,
    /// The bench summary (contains wall times — never byte-compared).
    pub bench_json: String,
    /// Raw per-cell results, in [`grid`] order.
    pub results: Vec<LoadRunResult>,
}

/// Runs the whole scenario grid on `runner` and renders the report.
///
/// # Panics
/// Panics if any cell breaks conservation or session order — the
/// correctness gates of the load-smoke CI job.
pub fn run(effort: LoadEffort, runner: &SweepRunner) -> LoadFamilyRun {
    let cells = grid(&effort);
    let timed: Vec<(LoadRunResult, Duration)> = runner.run_tasks(cells, |(protocol, sc)| {
        let start = Instant::now();
        let result = run_load_scenario(protocol, sc);
        runner.note_events(result.events_processed);
        runner.note_event_stats(&result.event_stats);
        (result, start.elapsed())
    });

    for (r, _) in &timed {
        assert_eq!(
            r.order_violations, 0,
            "{}/{}: session-order violations",
            r.scenario, r.protocol
        );
        assert!(
            r.conservation.is_none(),
            "{}/{}: conservation broken: {}",
            r.scenario,
            r.protocol,
            r.conservation.clone().unwrap_or_default()
        );
    }

    let mut totals = Table::new(&[
        Column::Both("scenario", "scenario"),
        Column::Both("system", "system"),
        Column::Csv("population"),
        Column::Both("offered/s", "offered_per_s"),
        Column::Both("goodput/s", "goodput_per_s"),
        Column::Csv("completed"),
        Column::Csv("rejected"),
        Column::Csv("shed"),
        Column::Both("p50", "p50_ms"),
        Column::Both("p99", "p99_ms"),
        Column::Both("p999", "p999_ms"),
        Column::Both("rej", "reject_fraction"),
        Column::Both("shed", "shed_fraction"),
    ]);
    let mut phases = Table::new(&[
        Column::Both("scenario", "scenario"),
        Column::Both("system", "system"),
        Column::Both("phase", "phase"),
        Column::Csv("duration_s"),
        Column::Both("offered/s", "offered_per_s"),
        Column::Both("goodput/s", "goodput_per_s"),
        Column::Csv("completed"),
        Column::Csv("rejected"),
        Column::Csv("shed"),
        Column::Csv("retransmits"),
        Column::Csv("p50_ms"),
        Column::Both("p99", "p99_ms"),
        Column::Csv("p999_ms"),
        Column::Both("rej", "reject_fraction"),
        Column::Both("shed", "shed_fraction"),
    ]);
    let rate = |v: f64| Value::new(format!("{v:.0}"), format!("{v:.1}"));
    let ms = |v: f64| Value::new(fmt_ms(v), format!("{v:.4}"));
    let fraction = |v: f64| Value::new(fmt_pct(100.0 * v), format!("{v:.6}"));
    for (r, _) in &timed {
        let t = &r.totals;
        totals.push([
            Value::plain(&r.scenario),
            Value::plain(r.protocol),
            Value::plain(r.population),
            rate(t.offered_per_s()),
            rate(t.goodput_per_s()),
            Value::plain(t.completed),
            Value::plain(t.rejected),
            Value::plain(t.shed),
            ms(t.latency_p50_ms),
            ms(t.latency_p99_ms),
            ms(t.latency_p999_ms),
            fraction(t.reject_fraction()),
            fraction(t.shed_fraction()),
        ]);
        for p in &r.phases {
            phases.push([
                Value::plain(&r.scenario),
                Value::plain(r.protocol),
                Value::plain(&p.label),
                Value::plain(format!("{:.3}", p.duration.as_secs_f64())),
                rate(p.offered_per_s()),
                rate(p.goodput_per_s()),
                Value::plain(p.completed),
                Value::plain(p.rejected),
                Value::plain(p.shed),
                Value::plain(p.retransmits),
                ms(p.latency_p50_ms),
                ms(p.latency_p99_ms),
                ms(p.latency_p999_ms),
                fraction(p.reject_fraction()),
                fraction(p.shed_fraction()),
            ]);
        }
    }

    let report = ExperimentReport {
        title: format!(
            "Load scenarios — open-loop arrival, {} logical clients per cell ({})",
            effort.population, effort.label
        ),
        claims: vec![flash_crowd_claim(&timed)],
        body: format!("{}\n{}", totals.text(), phases.text()),
        csv: vec![
            ("load_totals.csv".into(), totals.csv()),
            ("load_phases.csv".into(), phases.csv()),
        ],
    };

    let bench_json = render_bench_json(&effort, runner.jobs(), &timed);
    LoadFamilyRun {
        report,
        bench_json,
        results: timed.into_iter().map(|(r, _)| r).collect(),
    }
}

/// The family's claim: through the flash-crowd spike (2.2x capacity),
/// IDEM's goodput — completions within the SLA — against that of the best
/// baseline that cannot reject (IDEM_noPR accepts everything; plain Paxos
/// has no reject path at all).
fn flash_crowd_claim(timed: &[(LoadRunResult, Duration)]) -> Claim {
    let spike = |r: &LoadRunResult| {
        r.phases
            .iter()
            .find(|p| p.label == "spike")
            .map_or(0.0, PhaseMetrics::goodput_per_s)
    };
    let flash = || {
        timed
            .iter()
            .map(|(r, _)| r)
            .filter(|r| r.scenario == "flash_crowd")
    };
    let idem = flash().find(|r| r.protocol == "IDEM").map_or(0.0, spike);
    let best_baseline = flash()
        .filter(|r| r.protocol != "IDEM")
        .map(spike)
        .fold(0.0, f64::max);
    Claim::new(
        "IDEM / best baseline spike goodput",
        idem / best_baseline,
        Bound::AtLeast(1.0),
    )
}

/// Renders `BENCH_load.json`: one flat line per cell so the regression
/// script can grep named fields off a single line, plus a mode header.
fn render_bench_json(
    effort: &LoadEffort,
    jobs: usize,
    timed: &[(LoadRunResult, Duration)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", effort.label));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, (r, wall)) in timed.iter().enumerate() {
        let t = &r.totals;
        let events_per_sec = r.events_processed as f64 / wall.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "    {{\"name\": \"{}/{}\", \"population\": {}, \"offered_per_s\": {:.0}, \
             \"goodput_per_s\": {:.0}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"p999_ms\": {:.3}, \"reject_fraction\": {:.4}, \"shed_fraction\": {:.4}, \
             \"wall_s\": {:.3}, \"events_per_sec\": {:.0}}}{}\n",
            r.scenario,
            r.protocol,
            r.population,
            t.offered_per_s(),
            t.goodput_per_s(),
            t.latency_p50_ms,
            t.latency_p99_ms,
            t.latency_p999_ms,
            t.reject_fraction(),
            t.shed_fraction(),
            wall.as_secs_f64(),
            events_per_sec,
            if i + 1 == timed.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_scenario() {
        let cells = grid(&LoadEffort::smoke());
        for name in SCENARIOS {
            assert!(
                cells.iter().any(|(_, sc)| sc.name == name),
                "scenario {name} missing from grid"
            );
        }
        // Flash crowd carries IDEM plus two no-rejection baselines.
        let flash: Vec<&str> = cells
            .iter()
            .filter(|(_, sc)| sc.name == "flash_crowd")
            .map(|(p, _)| p.name())
            .collect();
        assert_eq!(flash, vec!["IDEM", "IDEM_noPR", "Paxos"]);
    }

    #[test]
    fn efforts_scale_population_and_length() {
        let (smoke, full) = (LoadEffort::smoke(), LoadEffort::full());
        assert!(
            smoke.population >= 100_000,
            "smoke must drive >= 1e5 clients"
        );
        assert!(full.population >= 1_000_000);
        assert!(full.stretch > smoke.stretch);
        let smoke_total = grid(&smoke)[0].1.total_duration();
        let full_total = grid(&full)[0].1.total_duration();
        assert!(full_total > smoke_total);
    }

    #[test]
    fn bench_json_is_flat_per_cell() {
        // Render from a tiny synthetic run so the schema stays covered
        // without simulating: one cell, zeroed metrics.
        let effort = LoadEffort::smoke();
        let sc = &grid(&effort)[0];
        let result = LoadRunResult {
            scenario: sc.1.name.into(),
            protocol: sc.0.name(),
            population: effort.population,
            measured: Duration::from_secs(1),
            warmup: empty_metrics("warmup"),
            phases: vec![empty_metrics("spike")],
            totals: empty_metrics("total"),
            order_violations: 0,
            conservation: None,
            counters: idem_common::LoadCounters::default(),
            sampled: crate::load::SampledSummary {
                sampled_clients: 0,
                worst_mean_ms: 0.0,
                worst_max_ms: 0.0,
                straggler_mean_ms: 0.0,
                normal_mean_ms: 0.0,
            },
            events_processed: 1000,
            event_stats: idem_simnet::EventStats::default(),
            total_messages: 0,
        };
        let json = render_bench_json(&effort, 2, &[(result, Duration::from_secs(2))]);
        assert!(json.contains("\"name\": \"flash_crowd/IDEM\""));
        assert!(json.contains("\"goodput_per_s\""));
        assert!(json.contains("\"p999_ms\""));
        let cell_line = json
            .lines()
            .find(|l| l.contains("\"name\""))
            .expect("cell line");
        for field in [
            "offered_per_s",
            "p50_ms",
            "reject_fraction",
            "events_per_sec",
        ] {
            assert!(
                cell_line.contains(field),
                "{field} must sit on the cell line"
            );
        }
        assert!(!json.contains("\"threads\""), "no threads key: {json}");
        assert!(!json.contains("\"parallel_"), "no parallel_* key: {json}");
    }

    fn empty_metrics(label: &str) -> crate::load::PhaseMetrics {
        crate::load::PhaseMetrics {
            label: label.into(),
            duration: Duration::from_secs(1),
            sla: Duration::from_millis(100),
            offered: 0,
            shed: 0,
            issued: 0,
            completed: 0,
            within_sla: 0,
            rejected: 0,
            rejected_final: 0,
            retransmits: 0,
            latency_mean_ms: 0.0,
            latency_p50_ms: 0.0,
            latency_p99_ms: 0.0,
            latency_p999_ms: 0.0,
            latency_max_ms: 0.0,
        }
    }
}
