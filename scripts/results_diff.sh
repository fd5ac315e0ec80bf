#!/bin/sh
# Shows what moved between two results directories, such as the committed
# `results/` and the `--out` directory of a fresh `repro all`:
#
#   * every CSV cell that differs, one line each:
#       FILE row N [KEY] COLUMN: OLD -> NEW (DELTA %)
#     where N counts data rows from 1, KEY is the row's leading fields up to
#     and including its first numeric one (the sweep parameter of the row),
#     and DELTA is printed only when both values are numbers and OLD is not
#     zero; when the two files differ in row count, rows are aligned as
#     diff(1) aligns lines instead, and each row one side lacks prints
#     whole, as `FILE row removed: ROW` / `FILE row added: ROW`;
#   * a unified diff of every `.txt` file that differs;
#   * `only in OLD_DIR: FILE` / `only in NEW_DIR: FILE` for files one side
#     lacks, and `FILE differs` for any other file that is not identical.
#
# Only the regular files at the top of each directory are compared. Prints
# nothing and exits 0 when nothing moved; exits 1 otherwise.
#
# usage: scripts/results_diff.sh OLD_DIR NEW_DIR
set -eu
if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
    echo "usage: $0 OLD_DIR NEW_DIR" >&2
    exit 2
fi
old=$1
new=$2
moved=0

for path in "$old"/* "$new"/*; do
    [ -f "$path" ] || continue
    name=${path##*/}
    case $path in
    "$new"/*)
        # Files present on both sides are compared on the first pass.
        [ -f "$old/$name" ] || { echo "only in $new: $name"; moved=1; }
        continue
        ;;
    esac
    if [ ! -f "$new/$name" ]; then
        echo "only in $old: $name"
        moved=1
        continue
    fi
    cmp -s "$old/$name" "$new/$name" && continue
    moved=1
    case $name in
    *.csv)
        if [ ! -s "$old/$name" ] || [ ! -s "$new/$name" ]; then
            echo "$name differs"
            continue
        fi
        if [ "$(wc -l < "$old/$name")" -ne "$(wc -l < "$new/$name")" ]; then
            diff "$old/$name" "$new/$name" |
                sed -n "s|^< |$name row removed: |p; s|^> |$name row added: |p"
            continue
        fi
        awk -F, -v file="$name" '
            function numeric(s) {
                return s ~ /^[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?$/
            }
            function key(line,   f, n, i, k) {
                n = split(line, f, ",")
                k = f[1]
                for (i = 1; i < n && !numeric(f[i]); i++)
                    k = k "," f[i + 1]
                return k
            }
            FNR == NR { rows[FNR] = $0; next }
            FNR == 1 {
                ncols = split($0, header, ",")
                if ($0 != rows[1]) printf "%s header: %s -> %s\n", file, rows[1], $0
                next
            }
            {
                r = FNR - 1
                if ($0 == rows[FNR]) next
                n = split(rows[FNR], was, ",")
                if ($0 == "" || n != NF) {
                    printf "%s row %d: %s -> %s\n", file, r, rows[FNR], $0
                    next
                }
                for (c = 1; c <= NF; c++) {
                    if ($c == was[c]) continue
                    col = c <= ncols ? header[c] : "column " c
                    delta = ""
                    if (numeric(was[c]) && numeric($c) && was[c] + 0 != 0)
                        delta = sprintf(" (%+.3g %%)", ($c - was[c]) * 100 / (was[c] < 0 ? -was[c] : was[c]))
                    printf "%s row %d [%s] %s: %s -> %s%s\n", file, r, key(rows[FNR]), col, was[c], $c, delta
                }
            }
        ' "$old/$name" "$new/$name"
        ;;
    *.txt)
        diff -u "$old/$name" "$new/$name" || true
        ;;
    *)
        echo "$name differs"
        ;;
    esac
done
exit "$moved"
