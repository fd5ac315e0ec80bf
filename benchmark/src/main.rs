//! `idem-benchmark`: run one workload, print the contract, or check that
//! two sets of runs of the same build agree.

use std::path::PathBuf;
use std::process::ExitCode;

use idem_benchmark::report::run_workload;
use idem_benchmark::selfcheck::selfcheck;
use idem_benchmark::spec::{manifest_json, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage:
  idem-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
  idem-benchmark selfcheck [--runs <n>] [--seconds <s>]
  idem-benchmark manifest
workloads: closed_saturated, open_flash, open_backlog, durable_crash";

/// `--flag value` pairs after the sub-command.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if known.contains(&flag.as_str()) => {
                    pairs.push((flag.clone(), value.clone()));
                }
                [flag, ..] => return Err(format!("unknown or incomplete option '{flag}'")),
                [] => unreachable!("chunks are never empty"),
            }
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(f, _)| f == flag) {
            Some((_, value)) => value
                .parse()
                .map_err(|_| format!("bad value '{value}' for {flag}")),
            None => Ok(default),
        }
    }
}

fn seconds(flags: &Flags) -> Result<f64, String> {
    let seconds = flags.get("--seconds", f64::from(RUN_SECONDS))?;
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 0..=600"))
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest_json());
            Ok(true)
        }
        Some("selfcheck") => {
            let flags = Flags::parse(&args[1..], &["--runs", "--seconds"])?;
            let runs: usize = flags.get("--runs", 10)?;
            if runs == 0 {
                return Err("--runs must be at least 1".into());
            }
            selfcheck(runs, seconds(&flags)?)
        }
        Some(_) => {
            let known = ["--workload", "--seed", "--seconds", "--trace", "--out"];
            let flags = Flags::parse(args, &known)?;
            let workload: String = flags.get("--workload", String::new())?;
            if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
                return Err(format!("unknown workload '{workload}'"));
            }
            let traced = match flags.get("--trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace {other} is neither 0 nor 1")),
            };
            let out: PathBuf = flags.get("--out", PathBuf::from("benchmark/out"))?;
            let report = run_workload(
                &workload,
                flags.get("--seed", 1)?,
                seconds(&flags)?,
                traced,
                &out,
            )?;
            for (metric, value) in &report.metrics {
                println!("{:<40} {value:>18.6} {}", metric.name, metric.unit);
            }
            println!(
                "latency percentiles over {} successes",
                report.latency_samples
            );
            println!("host seconds of each repeat: {:.3?}", report.repeat_host_s);
            for failure in &report.failures {
                println!("FAILED: {failure}");
            }
            println!("{}", report.json());
            Ok(report.correct)
        }
        None => Err("no arguments".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("idem-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
