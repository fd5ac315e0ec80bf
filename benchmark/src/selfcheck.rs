//! The acceptance test the pipeline applies to the benchmark, runnable
//! locally: two sets of runs of the same build, each workload run once per
//! seed in a process of its own, and every (workload, end-to-end metric)
//! pair compared between the sets.

use std::process::Command;

use crate::spec::{Better, END_TO_END, WORKLOADS};

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// which is what the pipeline uses.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    let at = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Median and interquartile range as a share of the median.
fn summarize(mut values: Vec<f64>) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    let median = if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    };
    let spread = if values.len() < 2 {
        0.0
    } else {
        let (q1, q3) = quartiles(&values);
        (q3 - q1) / median
    };
    (median, spread)
}

/// Reads `"<name>": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs one workload in a child process and returns its end-to-end
/// metrics in contract order.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} failed its checks:\n{stdout}"
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            metric_value(line, m.name)
                .ok_or_else(|| format!("{workload} seed {seed} printed no {}", m.name))
        })
        .collect()
}

/// Runs two sets of `runs` runs per workload (seeds `1..=runs`, the same in
/// both sets) and prints, per (workload, metric), both medians, their
/// ratio and each set's spread. Returns whether every pair of medians
/// agrees within the metric's bound and every spread (`setup_s` excepted,
/// as in the pipeline) stays within it.
///
/// # Errors
/// Returns an error when a run cannot be started or fails its own checks.
pub fn selfcheck(runs: usize, seconds: f64) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 0..2 {
        let mut by_workload = Vec::new();
        for (workload, _) in WORKLOADS {
            let mut samples = vec![Vec::new(); END_TO_END.len()];
            for seed in 1..=runs as u64 {
                eprintln!("set {set}: {workload} seed {seed}");
                for (column, value) in samples.iter_mut().zip(child_run(workload, seed, seconds)?) {
                    column.push(value);
                }
            }
            by_workload.push(samples);
        }
        sets.push(by_workload);
    }

    let mut ok = true;
    println!(
        "{:<17} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median_a", "median_b", "b/a", "spread_a", "spread_b", "bound"
    );
    for (w, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (median_a, spread_a) = summarize(sets[0][w][m].clone());
            let (median_b, spread_b) = summarize(sets[1][w][m].clone());
            let ratio = median_b / median_a;
            let worse = match metric.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let steady = metric.name == "setup_s" || spread_a.max(spread_b) <= metric.bound;
            let verdict = if worse.abs() > metric.bound {
                "DISAGREE"
            } else if !steady {
                "NOISY"
            } else {
                ""
            };
            ok &= verdict.is_empty();
            println!(
                "{workload:<17} {:<18} {median_a:>14.6} {median_b:>14.6} {ratio:>8.4} \
                 {spread_a:>8.4} {spread_b:>8.4} {:>6} {verdict}",
                metric.name, metric.bound
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        let (median, spread) = summarize(values);
        assert_eq!(median, 5.5);
        assert_eq!(spread, 1.0);
    }

    #[test]
    fn metric_values_parse_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.31, \"unit\": \"s\"}, \
                    \"host_s\": {\"value\": 5, \"unit\": \"s\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.31));
        assert_eq!(metric_value(line, "host_s"), Some(5.0));
        assert_eq!(metric_value(line, "peak_rss_mb"), None);
    }
}
