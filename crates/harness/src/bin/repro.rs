//! Regenerates the tables and figures of the IDEM paper's evaluation.
//!
//! Usage:
//! ```text
//! repro [<experiment>...] [--full] [--out DIR] [--jobs N] [--bench-out FILE]
//! repro chaos [--seeds N] [--seed X] [--schedule 'EPISODES'] [--wipes] [--jobs N]
//! repro churn [--seeds N] [--seed X] [--schedule 'EPISODES'] [--jobs N]
//! repro load [--smoke | --full] [--out DIR] [--jobs N]
//! repro --list
//!
//! experiments: fig2 fig3 fig6 fig7 table1 fig8 fig9a fig9b fig10 fig10d
//!              strategies all calibrate chaos churn load
//! --full            paper-scale run lengths and repetitions (default: quick);
//!                   for load: 10^6 logical clients, stretched phases
//! --out DIR         also write the CSV series under DIR (default: results/)
//! --jobs N          worker threads for the experiment sweep (default: the
//!                   host's available parallelism); results are
//!                   byte-identical for every N
//! --bench-out FILE  where to write the wall-time/events-per-second summary
//!                   (default: BENCH_repro.json)
//! --list            list every experiment and load scenario, one per line
//! --seeds N         chaos: run seeds 1..=N (default 50; must be >= 1)
//! --seed X          chaos: run only seed X (for reproducing a CI failure)
//! --schedule 'S'    chaos: replay this fault schedule instead of generating
//!                   one per seed, e.g. 'crash(0,400,800);loss(0.050,900,1100)'
//! --wipes           chaos: generated schedules include amnesia wipes
//!                   (wipe(R,AT[,trunc])); runs persist through the WAL and
//!                   check the durability and rejoin-liveness invariants
//! --smoke           load: CI preset (100k logical clients, truncated phases)
//! ```
//!
//! Each experiment checks the paper's claims it measures: every report
//! opens with its claims table, and the run writes them all to
//! `claims.csv` under `--out` (`load_claims.csv` for `load`). A claim is
//! declared either to hold or to fail by a numbered EXPERIMENTS.md
//! deviation; `repro` exits 1 if any verdict differs from its declaration.
//!
//! `chaos` exits 1 if any invariant was violated, printing a replayable
//! `--seed X --schedule '...'` line per violation.
//!
//! `churn` is the membership-reconfiguration campaign: per seed it runs
//! one generated schedule per churn family (join, leave, replace, rolling
//! restart) against all three protocols, checks the membership-safety,
//! quorum-availability and joiner-convergence invariants on top of the
//! standard ones, and reports per-run `reconfig_ms` (time from injection
//! to every member adopting the final epoch). Same exit/repro behaviour
//! as `chaos`; `--schedule` may mix churn motions (`join(R,AT)`,
//! `leave(R,AT)`, `replace(OLD,NEW,AT)`, `rolling(AT,GAP)`) with fault
//! episodes.
//!
//! `load` runs the open-loop scenario family (flash crowd, diurnal ramp,
//! hotspot migration, stragglers, bursty MMPP) and writes its
//! offered-vs-goodput summary to `BENCH_load.json` (or `--bench-out` when
//! load is the only thing run). It exits by panic if a scenario breaks
//! conservation or session order.

use std::time::{Duration, Instant};

use idem_harness::chaos::{self, ChaosConfig, Schedule};
use idem_harness::experiments::load::LoadEffort;
use idem_harness::experiments::{self, Effort};
use idem_harness::report::{claims_table, Claim, ExperimentReport};
use idem_harness::sweep::SweepRunner;
use idem_harness::Protocol;
use idem_harness::Scenario;
use idem_simnet::EventStats;

const ALL: [&str; 11] = [
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "table1",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10",
    "fig10d",
    "strategies",
];

/// Subcommands that are valid experiment names but not part of `all`.
const EXTRA: [&str; 4] = ["calibrate", "chaos", "churn", "load"];

/// Parsed command line.
struct Args {
    full: bool,
    out_dir: String,
    jobs: Option<usize>,
    bench_out: String,
    wanted: Vec<String>,
    seeds: Option<u64>,
    seed: Option<u64>,
    schedule: Option<String>,
    wipes: bool,
    bench_out_explicit: bool,
    smoke: bool,
    list: bool,
}

fn usage() -> String {
    format!(
        "usage: repro [<experiment>...] [--full] [--out DIR] [--jobs N] [--bench-out FILE]\n\
         \x20      repro chaos [--seeds N] [--seed X] [--schedule 'EPISODES'] [--wipes] [--jobs N]\n\
         \x20      repro churn [--seeds N] [--seed X] [--schedule 'EPISODES'] [--jobs N]\n\
         \x20      repro load [--smoke | --full] [--out DIR] [--jobs N]\n\
         \x20      repro --list\n\
         experiments: {} all calibrate chaos churn load\n\
         chaos/churn flags:\n\
         \x20            --seeds N      run seeds 1..=N (default 50, must be >= 1)\n\
         \x20            --seed X       run only seed X (reproduce a CI failure)\n\
         \x20            --schedule S   replay a fixed fault schedule, e.g.\n\
         \x20                           'crash(0,400,800);loss(0.050,900,1100)' or\n\
         \x20                           'join(3,500);leave(0,900)' (churn motions)\n\
         \x20            --wipes        chaos only: generated schedules include\n\
         \x20                           amnesia wipes\n\
         load flags:  --smoke        CI preset: 100k logical clients, short phases\n\
         \x20            --full         nightly preset: 10^6 clients, long phases",
        ALL.join(" ")
    )
}

/// Parses the command line strictly: every `--flag` must be known, flags
/// taking a value (`--out`, `--jobs`, `--bench-out`) accept both
/// `--flag VALUE` and `--flag=VALUE`, and positional arguments must name
/// known experiments.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        full: false,
        out_dir: "results".to_string(),
        jobs: None,
        bench_out: "BENCH_repro.json".to_string(),
        wanted: Vec::new(),
        seeds: None,
        seed: None,
        schedule: None,
        wipes: false,
        bench_out_explicit: false,
        smoke: false,
        list: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline_value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let take_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            inline_value
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("flag '{flag}' requires a value"))
        };
        match flag {
            "--full" => {
                if inline_value.is_some() {
                    return Err("flag '--full' takes no value".to_string());
                }
                parsed.full = true;
            }
            "--out" => parsed.out_dir = take_value(&mut it)?,
            "--bench-out" => {
                parsed.bench_out = take_value(&mut it)?;
                parsed.bench_out_explicit = true;
            }
            "--jobs" => {
                let value = take_value(&mut it)?;
                let jobs: usize = value.parse().map_err(|_| {
                    format!("invalid --jobs value '{value}' (expected a positive integer)")
                })?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                parsed.jobs = Some(jobs);
            }
            "--seeds" => {
                let value = take_value(&mut it)?;
                let seeds: u64 = value.parse().map_err(|_| {
                    format!("invalid --seeds value '{value}' (expected a positive integer)")
                })?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".to_string());
                }
                parsed.seeds = Some(seeds);
            }
            "--seed" => {
                let value = take_value(&mut it)?;
                let seed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid --seed value '{value}' (expected an integer)"))?;
                parsed.seed = Some(seed);
            }
            "--schedule" => {
                let value = take_value(&mut it)?;
                // Validate up front so a typo fails fast with exit 2.
                Schedule::parse(&value).map_err(|e| format!("invalid --schedule: {e}"))?;
                parsed.schedule = Some(value);
            }
            "--wipes" => {
                if inline_value.is_some() {
                    return Err("flag '--wipes' takes no value".to_string());
                }
                parsed.wipes = true;
            }
            "--smoke" => {
                if inline_value.is_some() {
                    return Err("flag '--smoke' takes no value".to_string());
                }
                parsed.smoke = true;
            }
            "--list" => {
                if inline_value.is_some() {
                    return Err("flag '--list' takes no value".to_string());
                }
                parsed.list = true;
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'\n{}", usage()));
            }
            name => {
                if name != "all" && !EXTRA.contains(&name) && !ALL.contains(&name) {
                    return Err(format!("unknown experiment '{name}'\n{}", usage()));
                }
                parsed.wanted.push(name.to_string());
            }
        }
    }
    if parsed.list {
        return Ok(parsed); // --list exits before anything below matters
    }
    let is_chaos = parsed.wanted.iter().any(|w| w == "chaos");
    let is_churn = parsed.wanted.iter().any(|w| w == "churn");
    if !(is_chaos || is_churn)
        && (parsed.seeds.is_some()
            || parsed.seed.is_some()
            || parsed.schedule.is_some()
            || parsed.wipes)
    {
        return Err(
            "--seeds/--seed/--schedule/--wipes apply only to the chaos/churn experiments"
                .to_string(),
        );
    }
    if parsed.wipes && !is_chaos {
        return Err("--wipes applies only to the chaos experiment".to_string());
    }
    if parsed.wipes && parsed.schedule.is_some() {
        return Err(
            "--wipes and --schedule are mutually exclusive (put wipe(R,AT[,trunc]) \
                    episodes in the schedule instead)"
                .to_string(),
        );
    }
    if parsed.seeds.is_some() && parsed.seed.is_some() {
        return Err("--seeds and --seed are mutually exclusive".to_string());
    }
    if parsed.smoke && !parsed.wanted.iter().any(|w| w == "load") {
        return Err("--smoke applies only to the load experiment".to_string());
    }
    if parsed.smoke && parsed.full {
        return Err("--smoke and --full are mutually exclusive".to_string());
    }
    if parsed.wanted.is_empty() || parsed.wanted.iter().any(|w| w == "all") {
        parsed.wanted = ALL.iter().map(|s| s.to_string()).collect();
    }
    // A chaos/churn-only run must not clobber BENCH_repro.json: that file
    // is the committed baseline the bench-regression gate compares against,
    // and its entries come from the experiment sweep, not fault campaigns.
    if !parsed.bench_out_explicit && parsed.wanted.iter().all(|w| w == "chaos" || w == "churn") {
        parsed.bench_out = "BENCH_chaos.json".to_string();
    }
    Ok(parsed)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if args.list {
        // Machine-greppable: one `experiment <name>` / `scenario <name>`
        // line each, so CI scripts can enumerate without hardcoding.
        for name in ALL {
            println!("experiment {name}");
        }
        for name in EXTRA {
            println!("experiment {name}");
        }
        for name in experiments::load::SCENARIOS {
            println!("scenario {name}");
        }
        return;
    }
    let runner = match args.jobs {
        Some(jobs) => SweepRunner::new(jobs),
        None => SweepRunner::from_available_parallelism(),
    };
    let effort = if args.full {
        Effort::full()
    } else {
        Effort::quick()
    };
    eprintln!(
        "running {} experiment(s), {} mode, {} worker(s), CSVs under {}/",
        args.wanted.len(),
        if args.full {
            "full (paper-scale)"
        } else {
            "quick"
        },
        runner.jobs(),
        args.out_dir
    );
    let mut bench_entries: Vec<BenchEntry> = Vec::new();
    let mut chaos_violations = 0usize;
    let mut claims: Vec<(&str, Claim)> = Vec::new();
    let mut unexpected_verdicts = 0usize;
    let total_start = Instant::now();
    for name in &args.wanted {
        let start = Instant::now();
        let report = match name.as_str() {
            "fig2" => experiments::fig2::run(effort, &runner),
            "fig3" => experiments::fig3::run(effort, &runner),
            "fig6" => experiments::fig6::run(effort, &runner),
            "fig7" => experiments::fig7::run(effort, &runner),
            "table1" => experiments::table1::run(effort, &runner),
            "fig8" => experiments::fig8::run(effort, &runner),
            "fig9a" => experiments::fig9::run_misconfigured(effort, &runner),
            "fig9b" => experiments::fig9::run_extreme(effort, &runner),
            "fig10" => experiments::fig10::run(effort, &runner),
            "fig10d" => experiments::fig10d::run(effort, &runner),
            "strategies" => experiments::strategies::run(effort, &runner),
            "calibrate" => {
                calibrate();
                continue;
            }
            "chaos" | "churn" => {
                let cfg = ChaosConfig {
                    start_seed: args.seed.unwrap_or(1),
                    seeds: if args.seed.is_some() {
                        1
                    } else {
                        args.seeds.unwrap_or(50)
                    },
                    schedule: args
                        .schedule
                        .as_deref()
                        .map(|s| Schedule::parse(s).expect("schedule validated at parse time")),
                    wipes: args.wipes,
                };
                let report = if name == "churn" {
                    chaos::run_churn_campaign(&cfg, &runner)
                } else {
                    chaos::run_campaign(&cfg, &runner)
                };
                let wall = start.elapsed();
                let stats = runner.take_stats();
                let text = report.render();
                print!("{text}");
                write_out(&args.out_dir, &format!("{name}_report.txt"), &text);
                chaos_violations += report.total_violations();
                let rejoins: Vec<u64> = report.runs.iter().filter_map(|r| r.rejoin_ms).collect();
                let reconfigs: Vec<u64> =
                    report.runs.iter().filter_map(|r| r.reconfig_ms).collect();
                let epochs = report.runs.iter().map(|r| r.epochs_applied).max();
                bench_entries.push(BenchEntry {
                    name: name.clone(),
                    wall,
                    cells: stats.cells,
                    events: stats.events,
                    cell_cpu: stats.busy,
                    kinds: stats.events_by_kind,
                    rejoin: (!rejoins.is_empty())
                        .then(|| (rejoins.len() as u64, rejoins.iter().sum::<u64>())),
                    reconfig: (!reconfigs.is_empty()).then(|| {
                        (
                            reconfigs.len() as u64,
                            reconfigs.iter().sum::<u64>(),
                            epochs.unwrap_or(0),
                        )
                    }),
                });
                eprintln!(
                    "[{name} done in {:.1?}: {} run(s), {} sim events, {:.0} events/s, {} violation(s)]\n",
                    wall,
                    stats.cells,
                    stats.events,
                    stats.events_per_sec(wall),
                    report.total_violations(),
                );
                continue;
            }
            "load" => {
                let load_effort = if args.smoke {
                    LoadEffort::smoke()
                } else if args.full {
                    LoadEffort::full()
                } else {
                    LoadEffort::quick()
                };
                let family = experiments::load::run(load_effort, &runner);
                let wall = start.elapsed();
                let stats = runner.take_stats();
                emit(&family.report, &args.out_dir);
                let claims = family.report.claims.iter().map(|c| ("load", c));
                unexpected_verdicts += write_claims(&args.out_dir, "load_claims.csv", claims);
                write_out(&args.out_dir, "load_report.txt", &family.report.to_text());
                // The goodput summary has its own schema, so it never goes
                // through the generic BenchEntry list. Honour --bench-out
                // only when load is all that runs; otherwise that file
                // carries the generic experiment summary.
                let load_only = args.wanted.iter().all(|w| w == "load");
                let bench_path = if args.bench_out_explicit && load_only {
                    args.bench_out.clone()
                } else {
                    "BENCH_load.json".to_string()
                };
                match std::fs::write(&bench_path, &family.bench_json) {
                    Ok(()) => eprintln!("wrote load bench summary to {bench_path}"),
                    Err(e) => eprintln!("warning: could not write {bench_path}: {e}"),
                }
                eprintln!(
                    "[load done in {:.1?}: {} cell(s), {} sim events, {:.0} events/s]\n",
                    wall,
                    stats.cells,
                    stats.events,
                    stats.events_per_sec(wall),
                );
                continue;
            }
            other => unreachable!("parser admitted unknown experiment '{other}'"),
        };
        let wall = start.elapsed();
        let stats = runner.take_stats();
        emit(&report, &args.out_dir);
        claims.extend(report.claims.into_iter().map(|c| (name.as_str(), c)));
        bench_entries.push(BenchEntry {
            name: name.clone(),
            wall,
            cells: stats.cells,
            events: stats.events,
            cell_cpu: stats.busy,
            kinds: stats.events_by_kind,
            rejoin: None,
            reconfig: None,
        });
        eprintln!(
            "[{name} done in {:.1?}: {} cell(s), {} sim events, {:.0} events/s]\n",
            wall,
            stats.cells,
            stats.events,
            stats.events_per_sec(wall),
        );
    }
    if !claims.is_empty() {
        let claims = claims.iter().map(|(name, c)| (*name, c));
        unexpected_verdicts += write_claims(&args.out_dir, "claims.csv", claims);
    }
    if !bench_entries.is_empty() {
        let json = render_bench_json(
            &bench_entries,
            args.full,
            runner.jobs(),
            peak_rss_mb(),
            total_start.elapsed(),
        );
        match std::fs::write(&args.bench_out, &json) {
            Ok(()) => eprintln!("wrote bench summary to {}", args.bench_out),
            Err(e) => eprintln!("warning: could not write {}: {e}", args.bench_out),
        }
    }
    if chaos_violations > 0 {
        eprintln!("chaos: {chaos_violations} invariant violation(s) — failing");
        std::process::exit(1);
    }
    if unexpected_verdicts > 0 {
        eprintln!(
            "claims: {unexpected_verdicts} verdict(s) differ from their declaration — failing"
        );
        std::process::exit(1);
    }
}

/// Writes `claims` (experiment name, claim) as `file` under `out_dir` and
/// returns how many verdicts differ from their declaration.
fn write_claims<'a>(
    out_dir: &str,
    file: &str,
    claims: impl Iterator<Item = (&'a str, &'a Claim)> + Clone,
) -> usize {
    write_out(out_dir, file, &claims_table(claims.clone()).csv());
    claims.filter(|(_, c)| !c.verdict().as_declared()).count()
}

/// Writes `content` as `file` under `out_dir`, warning when it cannot.
fn write_out(out_dir: &str, file: &str, content: &str) {
    let path = format!("{out_dir}/{file}");
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, content)) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Per-experiment performance record for `BENCH_repro.json`.
struct BenchEntry {
    name: String,
    wall: Duration,
    cells: u64,
    events: u64,
    cell_cpu: Duration,
    kinds: EventStats,
    /// Wipe campaigns only: `(runs that rejoined, summed rejoin ms)` —
    /// rendered as a count and a mean so BENCH_chaos.json tracks
    /// time-to-rejoin across the campaign.
    rejoin: Option<(u64, u64)>,
    /// Churn campaigns only: `(runs that reconfigured, summed reconfig ms,
    /// max epochs applied in any run)` — rendered as a count, a mean and
    /// the epoch high-water so BENCH_chaos.json tracks reconfiguration
    /// latency across the campaign.
    reconfig: Option<(u64, u64, u64)>,
}

/// The process's high-water resident set size in MB (`VmHWM`), where the
/// platform has a `/proc/self/status` to say so.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?;
    Some(kb.trim().parse::<f64>().ok()? / 1024.0)
}

/// Renders the bench summary as JSON (hand-rolled: the workspace has no
/// serde, and the schema is flat).
fn render_bench_json(
    entries: &[BenchEntry],
    full: bool,
    jobs: usize,
    peak_rss_mb: Option<f64>,
    total_wall: Duration,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if full { "full" } else { "quick" }
    ));
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    // Informational, never gated: `--jobs` cells share the process, so the
    // peak is that of the largest cells that happened to overlap.
    if let Some(mb) = peak_rss_mb {
        out.push_str(&format!("  \"peak_rss_mb\": {mb:.1},\n"));
    }
    out.push_str("  \"experiments\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let events_per_sec = e.events as f64 / e.wall.as_secs_f64().max(1e-9);
        // One line per experiment: scripts/check_bench_regression.sh reads
        // "name", "events_per_sec" and the counters it gates off the same
        // line, in this order, so new fields are appended here rather than
        // wrapped or inserted.
        let rejoin = match e.rejoin {
            Some((runs, total_ms)) => format!(
                ", \"rejoin_runs\": {runs}, \"rejoin_ms_mean\": {:.0}",
                total_ms as f64 / runs as f64
            ),
            None => String::new(),
        };
        let reconfig = match e.reconfig {
            Some((runs, total_ms, epochs)) => format!(
                ", \"reconfig_runs\": {runs}, \"reconfig_ms_mean\": {:.0}, \
                 \"epochs_applied\": {epochs}",
                total_ms as f64 / runs as f64
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"cells\": {}, \"sim_events\": {}, \
             \"events_per_sec\": {:.0}, \"cell_cpu_s\": {:.3}, \
             \"delivers\": {}, \"timers\": {}, \"inline_wakes\": {}, \
             \"crashes\": {}, \"queue_high_water\": {}{rejoin}{reconfig}}}{}\n",
            e.name,
            e.wall.as_secs_f64(),
            e.cells,
            e.events,
            events_per_sec,
            e.cell_cpu.as_secs_f64(),
            e.kinds.delivers,
            e.kinds.timers,
            e.kinds.inline_wakes,
            e.kinds.crashes,
            e.kinds.queue_high_water,
            if i + 1 == entries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    let total_events: u64 = entries.iter().map(|e| e.events).sum();
    let total_cells: u64 = entries.iter().map(|e| e.cells).sum();
    out.push_str(&format!(
        "  \"total\": {{\"wall_s\": {:.3}, \"cells\": {total_cells}, \"sim_events\": {total_events}, \
         \"events_per_sec\": {:.0}}}\n",
        total_wall.as_secs_f64(),
        total_events as f64 / total_wall.as_secs_f64().max(1e-9),
    ));
    out.push_str("}\n");
    out
}

fn emit(report: &ExperimentReport, out_dir: &str) {
    println!("{}", report.to_text());
    for (file, content) in &report.csv {
        write_out(out_dir, file, content);
    }
}

/// Prints the raw saturation curve of IDEM_noPR — used to pick cost-model
/// constants so that the cluster saturates in the paper's ballpark.
fn calibrate() {
    println!("calibration: IDEM_noPR saturation curve (and IDEM at RT=50)");
    for protocol in [Protocol::idem_no_pr(), Protocol::idem()] {
        for clients in [5u32, 10, 25, 50, 75, 100, 150, 200] {
            let mut s = Scenario::new(protocol.clone(), clients, Duration::from_secs(3));
            s.warmup = Duration::from_secs(1);
            let r = s.run();
            println!(
                "{:10} clients={:4}  tput={:8.0} req/s  lat={:6.3} ms  std={:6.3}  rejects/s={:7.0}",
                r.name,
                clients,
                r.metrics.throughput,
                r.metrics.latency_mean_ms,
                r.metrics.latency_std_ms,
                r.metrics.reject_throughput,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_schema_has_no_thread_axis() {
        let entry = BenchEntry {
            name: "fig7".to_string(),
            wall: Duration::from_secs(2),
            cells: 3,
            events: 4_000,
            cell_cpu: Duration::from_secs(3),
            kinds: EventStats {
                delivers: 11,
                timers: 12,
                inline_wakes: 14,
                crashes: 15,
                queue_high_water: 16,
                ..EventStats::default()
            },
            rejoin: None,
            reconfig: None,
        };
        let json = render_bench_json(&[entry], false, 2, Some(41.26), Duration::from_secs(2));
        assert!(
            json.contains("  \"jobs\": 2,\n  \"peak_rss_mb\": 41.3,\n  \"experiments\""),
            "peak_rss_mb on its own line after jobs: {json}"
        );
        assert!(!json.contains("\"threads\""), "no threads key: {json}");
        assert!(!json.contains("\"parallel_"), "no parallel_* key: {json}");
        assert!(!json.contains("\"wakes\""), "no wakes key: {json}");
        for field in ["\"inline_wakes\": 14", "\"queue_high_water\": 16"] {
            assert!(json.contains(field), "{field} missing: {json}");
        }
        // check_bench_regression.sh greps both keys off one line.
        let line = json
            .lines()
            .find(|l| l.contains("\"name\": \"fig7\""))
            .expect("experiment line");
        assert!(line.contains("\"events_per_sec\": 2000"), "{line}");
    }
}
