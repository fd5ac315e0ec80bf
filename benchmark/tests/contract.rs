//! The benchmark's own contract: names and bounds are well-formed and agree
//! with `BENCHMARK.json`, every workload passes its checks at a fiftieth of
//! its size, and tracing does not change what is simulated.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use idem_benchmark::report::run_workload;
use idem_benchmark::run::run_cell;
use idem_benchmark::spec::{manifest_json, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use idem_benchmark::workloads;

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut seen = BTreeSet::new();
    for (name, why) in WORKLOADS {
        assert!(is_name(name), "workload name {name}");
        assert!(seen.insert(name), "{name} used twice");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    for metric in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(metric.name), "metric name {}", metric.name);
        assert!(is_unit(metric.unit), "unit of {}", metric.name);
        assert!(seen.insert(metric.name), "{} used twice", metric.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.unit, "s");
    for metric in &END_TO_END {
        assert!(
            metric.bound > 0.0 && metric.bound <= setup.bound && setup.bound <= 0.25,
            "bound of {}",
            metric.name
        );
    }
    assert!((1..=60).contains(&RUN_SECONDS));
}

#[test]
fn benchmark_json_is_the_rendered_contract() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with `idem-benchmark manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn every_workload_passes_its_checks_at_a_fiftieth_scale() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, _) in WORKLOADS {
        let start = Instant::now();
        let report = run_workload(name, 2, f64::from(RUN_SECONDS) / 50.0, false, out)
            .expect("known workload");
        let took = start.elapsed();
        assert!(report.correct, "{name}: {:?}", report.failures);
        assert!(report.attempted > 0);
        assert_eq!(report.metrics.len(), END_TO_END.len());
        for (metric, value) in &report.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{name}: {} = {value}",
                metric.name
            );
        }
        assert!(took.as_secs_f64() < 2.0, "{name} took {took:?}");
    }
}

#[test]
fn traced_run_prints_every_layer_and_writes_its_spans() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace");
    let report = run_workload(
        "durable_crash",
        1,
        f64::from(RUN_SECONDS) / 50.0,
        true,
        &out,
    )
    .expect("known workload");
    assert!(report.correct, "{:?}", report.failures);
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    assert_eq!(report.metrics.len(), PER_LAYER.len());
    assert!(value("common.wal.records_per_op") > 0.0);
    assert!(value("simnet.disk.fsyncs_per_op") > 0.0);
    assert!(value("core.replica.handler_ns_per_msg") > 0.0);
    assert!(value("harness.load.share") > 0.0);
    assert_eq!(value("harness.client.share"), 0.0);
    assert_eq!(value("paxos.replica.busy_share"), 0.0);
    let trace = std::fs::read_to_string(out.join("durable_crash.trace.json")).expect("trace file");
    assert!(trace.contains("\"core.replica\"") && trace.contains("\"spans\":["));
}

#[test]
fn tracing_leaves_the_simulation_identical() {
    for (name, _) in WORKLOADS {
        let workload = workloads::build(name, 3, 0.02).expect("known workload");
        for cell in &workload.cells {
            let plain = run_cell(cell, false);
            let traced = run_cell(cell, true);
            assert_eq!(plain.sim, traced.sim, "{name} {}", cell.protocol.name());
            assert_eq!(
                plain.counts,
                traced.counts,
                "{name} {}",
                cell.protocol.name()
            );
            assert!(plain.trace.is_none());
            let totals = traced.trace.expect("traced cell carries totals");
            assert!(totals.handler_ns() > 0);
            assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        }
    }
}
