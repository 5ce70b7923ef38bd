#!/usr/bin/env bash
# Counts the workspace's non-test source lines: non-blank lines of
# crates/*/src/**/*.rs, crates/bench/benches/*.rs and src/*.rs, each file
# cut at its first `#[cfg(test)]` line that is immediately followed by a
# `mod` line (of any visibility).
#
# Usage: scripts/count_lines.sh [--per-file] [repo-root]
set -euo pipefail
shopt -s globstar nullglob

per_file=0
if [[ "${1:-}" == "--per-file" ]]; then
    per_file=1
    shift
fi
cd "${1:-$(dirname "$0")/..}"

total=0
for f in crates/*/src/**/*.rs crates/bench/benches/*.rs src/*.rs; do
    n=$(awk '
        cfg && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { n--; exit }
        { cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
        NF { n++ }
        END { print n + 0 }
    ' "$f")
    if ((per_file)); then
        printf '%6d %s\n' "$n" "$f"
    fi
    total=$((total + n))
done
echo "$total"
