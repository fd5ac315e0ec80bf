#!/usr/bin/env bash
# Compares a fresh `repro` bench summary against a committed baseline and
# fails when the run regressed past the threshold. Two schemas are
# auto-detected from the file contents:
#
#   generic (BENCH_repro.json, written by `repro --bench-out`): one entry
#     per experiment, two gates. Exact: when both files carry the same
#     "mode" (quick / full), sim_events per entry must EQUAL the baseline
#     — the simulator is deterministic and the count is the same at every
#     --jobs, so any difference is a behaviour change, not noise. Loose:
#     events_per_sec must not drop more than threshold_pct below baseline
#     (wall time on a shared runner). Files of different modes run
#     different grids and get the loose gate only.
#
#   load (BENCH_load.json, written by `repro load`): one entry per
#     scenario/system cell, named like "flash_crowd/IDEM"; the gates are
#     goodput_per_s (floor: baseline minus threshold_pct) and p999_ms
#     (ceiling: baseline plus threshold_pct, with 1 ms of absolute slack
#     so sub-millisecond cells don't fail on noise-sized drift). wall_s
#     and events_per_sec vary by machine and are ignored in this mode;
#     the goodput/latency numbers come out of the deterministic
#     simulator, so they only move when the code changes. A cell whose
#     baseline goodput is 0 has no goodput gate at all (any value clears a
#     floor of 0); it prints "vacuous:" instead of "ok:" so the gap stays
#     visible in the CI log.
#
# Campaign summaries (BENCH_chaos.json, written by `repro chaos` /
# `repro churn`) use the generic schema with extra per-entry fields
# appended after events_per_sec: rejoin_runs/rejoin_ms_mean (wipe
# campaigns) and reconfig_runs/reconfig_ms_mean/epochs_applied (churn
# campaigns). The extraction below keys on name + sim_events +
# events_per_sec on one line and ignores anything after, so those fields
# never break the gate (two campaign files are only comparable at the same
# seed count: the exact gate sees the different amount of work);
# when present they are echoed as informational notes so a campaign's
# reconfiguration latency is visible in the CI log next to the
# throughput verdict.
#
# usage: scripts/check_bench_regression.sh <baseline.json> <current.json> [threshold_pct]
#
# Trajectory recording: when BENCH_HISTORY names a file, every run that
# carries a whole-run total appends one JSON line — git SHA, the run's
# total events_per_sec, and the baseline's — regardless of verdict. CI
# persists that file across runs (cache + artifact), so perf PRs get a
# throughput curve to read instead of a single-point threshold check.
#
# Every entry of the CURRENT file must exist in the baseline; an unknown
# name fails loudly (exit 2) with a diff of the two name sets, because a
# silently-skipped entry is exactly how a renamed experiment escapes the
# gate. The reverse is allowed: a quick CI run of a subset (e.g.
# `repro table1 fig3`) checks fine against the full committed baseline.
# The JSON is the flat hand-rolled schema; no jq required.
#
# Note on the `wakes` counter in the generic summaries: since the
# run-to-completion scheduler landed, node backlogs drain inline against
# the event horizon, so `wakes` is 0 by design in every experiment (the
# per-drain backlog work is reported as `inline_wakes` instead). A nonzero
# `wakes` in a new summary means the lazy scheduler stopped covering some
# path — worth investigating even if events_per_sec is still within
# threshold.
#
# Allocation baseline: the deliver hot path is allocation-free in steady
# state (DESIGN.md §6c — slab message arena, one shared body per
# multicast, dense per-node network state). That contract is NOT visible
# in the events/s numbers here; it is enforced directly by the
# counting-allocator regression tests, which any hot-path change should
# re-run:
#
#     cargo test -p idem-harness --features alloc-count --test alloc_regression
#
# Baselines pinned there: a pure-simnet fan-out scenario performs zero
# allocator calls over its measured window; a saturated 3-replica IDEM
# cell stays under one allocation per four simulated events (0.19
# measured since the dense protocol state of DESIGN.md §6e, 0.80 before
# it; the assert allows < 0.25); the WAL path allocates once per record
# whatever the session count; and the open-loop `LoadSource` allocates
# once per issued operation (the command's shared `Arc<[u8]>`). When the
# per-run events/s totals here drift, check those tests first — an
# allocation sneaking back into the deliver path is the usual cause.
#
# The committed BENCH_repro.json totals 4.16M events/s (quick mode,
# --jobs 2, two cores, a quiet day; the parent build measured 4.18M
# minutes apart, and the file committed before this one, from the same
# code path on a busier day, 3.3M). It was regenerated when batched
# multicast delivery was measured and removed (DESIGN.md §6c): sim_events
# per experiment came out identical, queue_high_water 16-40 entries
# higher. On the earlier, slower runs the history was 499k before wake
# elision, 928k after it, 1.45M with the arena + dense network state (and
# the batched multicast of that time), 1.78M with the dense protocol
# state. The committed BENCH_load.json cells (smoke, --jobs 2) run at
# 1.7-2.5M events/s, the deep-backlog flash_crowd/IDEM_noPR cell at
# 1.2M; their wall_s / events_per_sec are informational only (see "load"
# above), and their goodput and latency columns are identical to the
# file before.
set -euo pipefail

baseline="${1:?usage: $0 <baseline.json> <current.json> [threshold_pct]}"
current="${2:?usage: $0 <baseline.json> <current.json> [threshold_pct]}"
threshold="${3:-30}"

for f in "$baseline" "$current"; do
    if [[ ! -f "$f" ]]; then
        echo "error: bench file '$f' not found" >&2
        exit 2
    fi
done

mode_of() {
    if grep -q '"goodput_per_s"' "$1"; then echo load; else echo generic; fi
}
base_mode=$(mode_of "$baseline")
cur_mode=$(mode_of "$current")
if [[ "$base_mode" != "$cur_mode" ]]; then
    echo "error: schema mismatch: '$baseline' is $base_mode but '$current' is $cur_mode" >&2
    exit 2
fi
mode=$cur_mode

# Prints one "name field..." line per entry. Names may contain "/" and
# "-" (load cells are "scenario/System", e.g. "bursty/BFT-SMaRt"), so
# the character class admits both and the sed delimiter is "|".
extract() {
    if [[ "$mode" == load ]]; then
        sed -n 's|.*"name": "\([A-Za-z0-9_/-]*\)".*"goodput_per_s": \([0-9]*\).*"p999_ms": \([0-9.]*\).*|\1 \2 \3|p' "$1"
    else
        sed -n 's|.*"name": "\([A-Za-z0-9_/-]*\)".*"sim_events": \([0-9]*\).*"events_per_sec": \([0-9]*\).*|\1 \3 \2|p' "$1"
    fi
}

extract "$baseline" | sort > /tmp/bench_baseline.$$
extract "$current" | sort > /tmp/bench_current.$$
trap 'rm -f /tmp/bench_baseline.$$ /tmp/bench_current.$$' EXIT

# Every current entry must have a baseline entry; collect the strays and
# fail with a name-set diff instead of silently skipping them.
missing=$(awk 'NR == FNR { seen[$1] = 1; next } !($1 in seen) { print $1 }' \
    /tmp/bench_baseline.$$ /tmp/bench_current.$$)
if [[ -n "$missing" ]]; then
    {
        echo "error: entries in '$current' have no baseline entry in '$baseline':"
        echo "$missing" | sed 's/^/  only in current:  /'
        awk 'NR == FNR { seen[$1] = 1; next } !($1 in seen) { print "  only in baseline: " $1 }' \
            /tmp/bench_current.$$ /tmp/bench_baseline.$$
        echo "If the rename/addition is intentional, refresh and commit the baseline."
    } >&2
    exit 2
fi

fail=0
compared=0
if [[ "$mode" == load ]]; then
    while read -r name cur_good cur_p999; do
        read -r base_good base_p999 < <(awk -v n="$name" '$1 == n { print $2, $3 }' /tmp/bench_baseline.$$)
        compared=$((compared + 1))
        floor=$(awk -v b="$base_good" -v t="$threshold" 'BEGIN { printf "%d", b * (100 - t) / 100 }')
        if (( cur_good < floor )); then
            delta=$(awk -v b="$base_good" -v c="$cur_good" 'BEGIN { printf "%.1f", (b - c) * 100 / b }')
            echo "REGRESSION: $name: goodput $cur_good/s vs baseline $base_good (-$delta%, threshold ${threshold}%)"
            fail=1
        elif [[ $(awk -v b="$base_p999" -v c="$cur_p999" -v t="$threshold" \
                'BEGIN { print (c > b * (100 + t) / 100 + 1.0) ? 1 : 0 }') == 1 ]]; then
            echo "REGRESSION: $name: p999 ${cur_p999}ms vs baseline ${base_p999}ms (ceiling +${threshold}% + 1ms)"
            fail=1
        elif (( base_good == 0 )); then
            echo "vacuous: $name: baseline goodput 0, p999 gate only (p999 ${cur_p999}ms, baseline ${base_p999}ms)"
        else
            echo "ok: $name: goodput $cur_good/s (baseline $base_good), p999 ${cur_p999}ms (baseline ${base_p999}ms)"
        fi
    done < /tmp/bench_current.$$
else
    run_mode_of() {
        sed -n 's|.*"mode": "\([a-z]*\)".*|\1|p' "$1"
    }
    base_run_mode=$(run_mode_of "$baseline")
    same_grid=0
    exact_note=""
    if [[ -n "$base_run_mode" && "$base_run_mode" == "$(run_mode_of "$current")" ]]; then
        same_grid=1
        exact_note=" (exact)"
    fi
    while read -r name cur_eps cur_events; do
        read -r base_eps base_events < <(awk -v n="$name" '$1 == n { print $2, $3 }' /tmp/bench_baseline.$$)
        compared=$((compared + 1))
        floor=$(awk -v b="$base_eps" -v t="$threshold" 'BEGIN { printf "%d", b * (100 - t) / 100 }')
        if (( same_grid )) && [[ "$cur_events" != "$base_events" ]]; then
            echo "BEHAVIOUR CHANGE: $name: sim_events $cur_events vs baseline $base_events (deterministic counter, must be equal)"
            fail=1
        elif (( cur_eps < floor )); then
            delta=$(awk -v b="$base_eps" -v c="$cur_eps" 'BEGIN { printf "%.1f", (b - c) * 100 / b }')
            echo "REGRESSION: $name: $cur_eps events/s vs baseline $base_eps (-$delta%, threshold ${threshold}%)"
            fail=1
        else
            echo "ok: $name: $cur_eps events/s vs baseline $base_eps, sim_events $cur_events$exact_note"
        fi
    done < /tmp/bench_current.$$
fi

if (( compared == 0 )); then
    echo "error: no entries extracted from '$current' (schema drift?)" >&2
    exit 2
fi

# Campaign-only fields, surfaced for the CI log (never gated: they are
# per-campaign latency characteristics, not machine throughput).
if [[ "$mode" == generic ]]; then
    sed -n 's|.*"name": "\([A-Za-z0-9_/-]*\)".*"reconfig_runs": \([0-9]*\), "reconfig_ms_mean": \([0-9]*\), "epochs_applied": \([0-9]*\).*|note: \1: \2 run(s) reconfigured, mean reconfig_ms \3, epochs high-water \4|p' \
        "$current"
fi

# Also compare the whole-run total when both files carry one (full
# `repro all` summaries do; subset runs and load summaries skip it).
total_of() {
    sed -n 's|.*"total": {.*"events_per_sec": \([0-9]*\).*|\1|p' "$1"
}
base_total=$(total_of "$baseline")
cur_total=$(total_of "$current")
if [[ -n "$base_total" && -n "$cur_total" ]]; then
    floor=$(awk -v b="$base_total" -v t="$threshold" 'BEGIN { printf "%d", b * (100 - t) / 100 }')
    if (( cur_total < floor )); then
        delta=$(awk -v b="$base_total" -v c="$cur_total" 'BEGIN { printf "%.1f", (b - c) * 100 / b }')
        echo "REGRESSION: total: $cur_total events/s vs baseline $base_total (-$delta%, threshold ${threshold}%)"
        fail=1
    else
        echo "ok: total: $cur_total events/s vs baseline $base_total"
    fi
fi

# Append this run to the bench trajectory, pass or fail — a failing
# point is the most interesting one on the curve. Runs without a
# whole-run total (subset runs, load summaries) record nothing.
if [[ -n "${BENCH_HISTORY:-}" && -n "$cur_total" ]]; then
    sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
    printf '{"sha": "%s", "events_per_sec": %s, "baseline_events_per_sec": %s, "threshold_pct": %s}\n' \
        "$sha" "$cur_total" "${base_total:-0}" "$threshold" >> "$BENCH_HISTORY"
    echo "recorded total $cur_total events/s @ $sha in $BENCH_HISTORY ($(wc -l < "$BENCH_HISTORY") point(s))"
fi

if (( fail )); then
    if [[ "$mode" == load ]]; then
        cat >&2 <<'EOF'

The load family's goodput or tail latency moved past what the committed
baseline allows. The numbers come from the deterministic simulator, so
this is a code-behavior change, not machine noise. If it is intentional
(e.g. a scheduling-fidelity change that shifts the overload equilibrium),
refresh the baseline and commit it:

    cargo build --release
    ./target/release/repro load --smoke --jobs 2
    git add BENCH_load.json && git commit -m 'Refresh load bench baseline'

Otherwise, find and fix the regression before merging.
EOF
    else
        cat >&2 <<'EOF'

The simulator got slower than the committed baseline allows, or an
experiment's sim_events count moved (a behaviour change: results/ will
have moved with it). If that is intentional (e.g. a fidelity improvement
that costs throughput), refresh the baseline on a quiet machine and
commit it:

    cargo build --release
    ./target/release/repro all --jobs 2
    git add BENCH_repro.json && git commit -m 'Refresh bench baseline'

Otherwise, find and fix the regression before merging.
EOF
    fi
    exit 1
fi
echo "bench check passed ($mode): $compared entries within ${threshold}% of baseline"
