#!/usr/bin/env bash
# Compares a fresh `repro` bench summary against a committed baseline.
# The simulator is deterministic, so every counter it produces is gated
# exactly and only host timing is gated loosely. Two schemas are
# auto-detected from the file contents:
#
#   generic (BENCH_repro.json, written by `repro --bench-out`): one entry
#     per experiment. Exact: when both files carry the same "mode" (quick
#     / full), sim_events, delivers, timers, inline_wakes and
#     queue_high_water per entry must EQUAL the baseline — they are the
#     same at every --jobs, so any difference is a behaviour change, not
#     noise. Loose: events_per_sec must not drop more than threshold_pct
#     below baseline (wall time on a shared runner). Files of different
#     modes run different grids and get the loose gate only.
#
#   load (BENCH_load.json, written by `repro load`): one entry per
#     scenario/system cell, named like "flash_crowd/IDEM". Exact only:
#     goodput_per_s, p50_ms / p99_ms / p999_ms, reject_fraction and
#     shed_fraction must EQUAL the baseline (CI's determinism job already
#     `cmp`s them at --jobs 1 vs 4). wall_s and events_per_sec vary by
#     machine and are ignored in this mode. Two load files of different
#     modes (smoke / full) run different populations and phase lengths
#     and are not comparable at all (exit 2). A cell whose baseline
#     goodput is 0 prints "vacuous:" instead of "ok:": its gate pins a
#     cell that completes nothing, and the CI log should keep saying so.
#
# Campaign summaries (BENCH_chaos.json, written by `repro chaos` /
# `repro churn`) use the generic schema with extra per-entry fields
# appended after queue_high_water: rejoin_runs/rejoin_ms_mean (wipe
# campaigns) and reconfig_runs/reconfig_ms_mean/epochs_applied (churn
# campaigns). The extraction below ignores anything after the fields it
# names, so those never break the gate (two campaign files are only
# comparable at the same seed count: the exact gate sees the different
# amount of work); when present they are echoed as informational notes so
# a campaign's reconfiguration latency is visible in the CI log next to
# the throughput verdict. The same goes for the top-level "peak_rss_mb"
# (the repro process's VmHWM): it sits on a line of its own with no
# "name", so no entry pattern can match it, and it is echoed, never gated
# — it varies with --jobs, which decides how many cells overlap.
#
# usage: scripts/check_bench_regression.sh <baseline.json> <current.json> [threshold_pct]
#
# Every entry of the CURRENT file must exist in the baseline; an unknown
# name fails loudly (exit 2) with a diff of the two name sets, because a
# silently-skipped entry is exactly how a renamed experiment escapes the
# gate. The reverse is allowed: a quick CI run of a subset (e.g.
# `repro table1 fig3 fig10d`) checks fine against the full committed
# baseline. An experiment's counters cover only the cells it simulated
# first: `repro` runs each distinct cell once and serves it to every later
# experiment that declares it (fig10d's Paxos_LBR leader cell is fig3's).
# So a subset matches the baseline only when it keeps `all`'s order and
# every earlier experiment that simulates a cell it declares.
# The JSON is the flat hand-rolled schema; no jq required.
#
# Allocations per event are deterministic too but not in these files;
# they are gated by the counting-allocator tests, which CI's bench job
# runs next to this script and any hot-path change should re-run (an
# allocation sneaking back into the deliver path is the usual cause of an
# events/s drift):
#
#     cargo test -p idem-harness --features alloc-count --test alloc_regression
#
# The throughput history behind the committed baselines is in DESIGN.md
# §6c.
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

run_mode_of() {
    sed -n 's|.*"mode": "\([a-z]*\)".*|\1|p' "$1"
}
base_run_mode=$(run_mode_of "$baseline")
cur_run_mode=$(run_mode_of "$current")
same_grid=0
if [[ -n "$base_run_mode" && "$base_run_mode" == "$cur_run_mode" ]]; then
    same_grid=1
elif [[ "$mode" == load ]]; then
    echo "error: load summaries of different modes ('$base_run_mode' vs '$cur_run_mode') are not comparable" >&2
    exit 2
fi

# The fields read off each entry, in file order. All but events_per_sec
# come out of the deterministic simulator and are gated exactly.
if [[ "$mode" == load ]]; then
    fields=(goodput_per_s p50_ms p99_ms p999_ms reject_fraction shed_fraction)
else
    fields=(sim_events events_per_sec delivers timers inline_wakes queue_high_water)
fi

# Prints one "name value..." line per entry, values in `fields` order.
# Names may contain "/" and "-" (load cells are "scenario/System", e.g.
# "bursty/BFT-SMaRt"), so the character class admits both and the sed
# delimiter is "|".
extract() {
    local pattern='.*"name": "\([A-Za-z0-9_/-]*\)"' out='\1' n=1 f
    for f in "${fields[@]}"; do
        n=$((n + 1))
        pattern+=".*\"$f\": \\([0-9.]*\\)"
        out+=" \\$n"
    done
    sed -n "s|$pattern.*|$out|p" "$1"
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
while read -r name cur_line; do
    read -ra cur <<< "$cur_line"
    read -ra base < <(awk -v n="$name" '$1 == n { $1 = ""; print }' /tmp/bench_baseline.$$)
    compared=$((compared + 1))
    changed=0
    summary=""
    for i in "${!fields[@]}"; do
        f=${fields[i]}
        if [[ "$f" == events_per_sec ]]; then
            cur_eps=${cur[i]}
            base_eps=${base[i]}
            continue
        fi
        summary+=", $f ${cur[i]}"
        if (( same_grid )) && [[ "${cur[i]}" != "${base[i]}" ]]; then
            echo "BEHAVIOUR CHANGE: $name: $f ${cur[i]} vs baseline ${base[i]} (deterministic, must be equal)"
            changed=1
        fi
    done
    summary=${summary#, }
    if (( changed )); then
        fail=1
    elif [[ "$mode" == load ]]; then
        if (( base[0] == 0 )); then
            echo "vacuous: $name: baseline goodput 0, the gate pins a cell that completes nothing ($summary)"
        else
            echo "ok: $name: $summary (exact)"
        fi
    else
        floor=$(awk -v b="$base_eps" -v t="$threshold" 'BEGIN { printf "%d", b * (100 - t) / 100 }')
        if (( cur_eps < floor )); then
            delta=$(awk -v b="$base_eps" -v c="$cur_eps" 'BEGIN { printf "%.1f", (b - c) * 100 / b }')
            echo "REGRESSION: $name: $cur_eps events/s vs baseline $base_eps (-$delta%, threshold ${threshold}%)"
            fail=1
        elif (( same_grid )); then
            echo "ok: $name: $cur_eps events/s vs baseline $base_eps; $summary (exact)"
        else
            echo "ok: $name: $cur_eps events/s vs baseline $base_eps; $summary"
        fi
    fi
done < /tmp/bench_current.$$

if (( compared == 0 )); then
    echo "error: no entries extracted from '$current' (schema drift?)" >&2
    exit 2
fi

# Campaign-only fields, surfaced for the CI log (never gated: they are
# per-campaign latency characteristics, not machine throughput).
if [[ "$mode" == generic ]]; then
    sed -n 's|.*"name": "\([A-Za-z0-9_/-]*\)".*"reconfig_runs": \([0-9]*\), "reconfig_ms_mean": \([0-9]*\), "epochs_applied": \([0-9]*\).*|note: \1: \2 run(s) reconfigured, mean reconfig_ms \3, epochs high-water \4|p' \
        "$current"
    sed -n 's|^ *"peak_rss_mb": \([0-9.]*\),*$|note: peak_rss_mb \1 MB for the whole process (informational: varies with --jobs)|p' \
        "$current"
fi

# Also compare the whole-run totals when both files carry one and cover
# the same entries: the total of a subset run (CI's `repro table1 fig3 fig10d`)
# is a mix of different experiments than the baseline's and says nothing
# against it. Load summaries carry none.
total_of() {
    sed -n 's|.*"total": {.*"events_per_sec": \([0-9]*\).*|\1|p' "$1"
}
base_total=$(total_of "$baseline")
cur_total=$(total_of "$current")
if [[ -n "$base_total" && -n "$cur_total" && $(wc -l < /tmp/bench_baseline.$$) -eq $compared ]]; then
    floor=$(awk -v b="$base_total" -v t="$threshold" 'BEGIN { printf "%d", b * (100 - t) / 100 }')
    if (( cur_total < floor )); then
        delta=$(awk -v b="$base_total" -v c="$cur_total" 'BEGIN { printf "%.1f", (b - c) * 100 / b }')
        echo "REGRESSION: total: $cur_total events/s vs baseline $base_total (-$delta%, threshold ${threshold}%)"
        fail=1
    else
        echo "ok: total: $cur_total events/s vs baseline $base_total"
    fi
fi

if (( fail )); then
    if [[ "$mode" == load ]]; then
        cat >&2 <<'EOF'

A goodput, latency, reject or shed column of the load family differs from
the committed baseline. The numbers come from the deterministic simulator,
so this is a code-behaviour change, not machine noise. If it is intentional
(e.g. a scheduling-fidelity change that shifts the overload equilibrium),
refresh the baseline and commit it:

    cargo build --release
    ./target/release/repro load --smoke --jobs 2
    git add BENCH_load.json && git commit -m 'Refresh load bench baseline'

Otherwise, find and fix the regression before merging.
EOF
    else
        cat >&2 <<'EOF'

The simulator got slower than the committed baseline allows, or one of an
experiment's deterministic counters moved (a behaviour change: results/
will usually have moved with it). If that is intentional (e.g. a fidelity
improvement that costs throughput), refresh the baseline on a quiet machine
and commit it:

    cargo build --release
    ./target/release/repro all --jobs 2
    git add BENCH_repro.json && git commit -m 'Refresh bench baseline'

Otherwise, find and fix the regression before merging.
EOF
    fi
    exit 1
fi
if [[ "$mode" == load ]]; then
    echo "bench check passed (load): $compared cells equal to baseline"
elif (( same_grid )); then
    echo "bench check passed (generic): $compared entries equal to baseline in every counter, events/s within ${threshold}%"
else
    echo "bench check passed (generic): $compared entries within ${threshold}% of baseline"
fi
