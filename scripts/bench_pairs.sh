#!/usr/bin/env bash
# Runs the repository benchmark for two builds in alternated pairs and
# compares them, the way a claimed gain is judged: per seed, one run of
# each build, the build that goes first alternating from seed to seed so
# a drifting box favours neither side.
#
# usage: scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED... [-- ARG...]
#
#   PARENT_BIN, CHANGE_BIN  two `idem-benchmark` binaries (the same one
#                           twice checks the script and the determinism)
#   WORKLOAD                closed_saturated, open_flash, open_backlog or
#                           durable_crash
#   SEED...                 one pair per seed
#   ARG...                  passed to both runs after `--workload W --seed S
#                           --trace 0`, e.g. `-- --seconds 0.3`
#
# For each end-to-end metric it prints both sides' median and quartiles
# (linear interpolation), the median of the per-pair ratio change/parent,
# and how many pairs the change won (strictly better: lower, or higher for
# sim_goodput_per_s), then every run of the other metrics pair by pair.
# The sim_* metrics are deterministic per seed, so it
# then prints "sim_* metrics: identical on every seed" or names each seed
# and metric that moved, and exits 1 in that case; it exits 1 too when a
# run fails or reports "correct": false. No dependency beyond bash and awk.
set -euo pipefail

if [ "$#" -lt 4 ]; then
    sed -n '7,17p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
shift 3
seeds=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
    seeds+=("$1")
    shift
done
[ "$#" -gt 0 ] && shift # the `--`
[ "${#seeds[@]}" -gt 0 ] || { echo "bench_pairs: no seed given" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One run: the JSON line's metrics as `name value` lines in $tmp/SIDE.SEED.
run() {
    local side=$1 bin=$2 seed=$3 line
    shift 3
    line=$("$bin" --workload "$workload" --seed "$seed" --trace 0 "$@" | tail -n 1) || {
        echo "bench_pairs: $side run at seed $seed failed" >&2
        exit 1
    }
    case $line in
    *'"correct": true'*) ;;
    *) echo "bench_pairs: $side run at seed $seed is not correct: $line" >&2; exit 1 ;;
    esac
    printf '%s\n' "$line" | grep -oE '"[a-z0-9_]+": \{"value": [^,}]+' |
        sed -E 's/^"([a-z0-9_]+)": \{"value": /\1 /' >"$tmp/$side.$seed"
}

i=0
for seed in "${seeds[@]}"; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent" "$seed" "$@"
        run change "$change" "$seed" "$@"
    else
        run change "$change" "$seed" "$@"
        run parent "$parent" "$seed" "$@"
    fi
    i=$((i + 1))
done

# Lines of `seed side metric value`, read by one awk program.
for seed in "${seeds[@]}"; do
    for side in parent change; do
        awk -v seed="$seed" -v side="$side" '{ print seed, side, $1, $2 }' "$tmp/$side.$seed"
    done
done | awk -v workload="$workload" -v pairs="${#seeds[@]}" '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
    if (!($1 in seed_seen)) { seed_seen[$1] = 1; seeds[++nseeds] = $1 }
    v[$3, $2, $1] = $4
}
END {
    printf "%s: %d pairs, change vs parent\n", workload, pairs
    printf "%-18s %32s %32s %8s %6s\n", "metric", "parent median [q1 - q3]", "change median [q1 - q3]", "ratio", "won"
    moved = 0
    for (m = 1; m <= metrics; m++) {
        name = order[m]
        won = 0
        for (s = 1; s <= nseeds; s++) {
            p = v[name, "parent", seeds[s]]; c = v[name, "change", seeds[s]]
            pv[s] = p; cv[s] = c
            rv[s] = p == 0 ? (c == 0 ? 1 : 0) : c / p
            if (name == "sim_goodput_per_s" ? c > p : c < p) won++
            if (name ~ /^sim_/ && p != c) {
                moved++
                printf "MOVED: seed %s %s parent %s change %s\n", seeds[s], name, p, c
            }
        }
        sort(pv, nseeds); sort(cv, nseeds); sort(rv, nseeds)
        printf "%-18s %12.4g [%.4g - %.4g] %12.4g [%.4g - %.4g] %8.4f %3d/%d\n", name,
            quantile(pv, nseeds, 0.5), quantile(pv, nseeds, 0.25), quantile(pv, nseeds, 0.75),
            quantile(cv, nseeds, 0.5), quantile(cv, nseeds, 0.25), quantile(cv, nseeds, 0.75),
            quantile(rv, nseeds, 0.5), won, nseeds
    }
    printf "\nevery run, in the order taken (parent / change):\n"
    printf "%-22s", "seed"
    for (m = 1; m <= metrics; m++)
        if (order[m] !~ /^sim_/) printf " %21s", order[m]
    printf "\n"
    for (s = 1; s <= nseeds; s++) {
        printf "%-22s", seeds[s] (s % 2 ? " (parent first)" : " (change first)")
        for (m = 1; m <= metrics; m++)
            if (order[m] !~ /^sim_/)
                printf " %10.4g / %-8.4g", v[order[m], "parent", seeds[s]], v[order[m], "change", seeds[s]]
        printf "\n"
    }
    if (moved) {
        printf "sim_* metrics: %d values DIFFER\n", moved
        exit 1
    }
    print "sim_* metrics: identical on every seed"
}'
