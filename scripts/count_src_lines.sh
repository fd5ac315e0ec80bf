#!/bin/sh
# Counts the library source lines of the workspace: every `.rs` file under
# `crates/*/src`, each cut at its first `#[cfg(test)]`, with blank lines and
# `//` comment lines (doc comments included) dropped. Prints one number.
#
# usage: scripts/count_src_lines.sh [repo-root]   (default: the current dir)
set -eu
cd "${1:-.}"
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { cut = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cut = 1 }
    cut { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
'
