#!/usr/bin/env bash
# Rust line counts outside perfbench/, per crate and in total:
#
#   non-test  lines of tracked .rs files outside tests/ directories, each
#             file cut at its first `#[cfg(test)]`
#   all       every line of every tracked .rs file
#
#   scripts/loc.sh
#
# A crate is its directory under crates/ (crates/compat/<name> for the
# stand-in crates); the root package is src/ and examples/. In a copy
# without .git (a `git archive` export), every .rs file outside perfbench/
# and target/ directories counts instead of the tracked ones.
set -euo pipefail
cd "$(dirname "$0")/.."

rust_files() {
    if [ -e .git ]; then
        git ls-files -- '*.rs' ':!:perfbench/**'
    else
        find . \( -name target -o -path ./perfbench \) -prune -o -name '*.rs' -print | sed 's|^\./||'
    fi
}

rust_files | while IFS= read -r f; do
    case "$f" in
        crates/compat/*) crate=$(echo "$f" | cut -d/ -f1-3) ;;
        crates/*) crate=$(echo "$f" | cut -d/ -f1-2) ;;
        *) crate="(root)" ;;
    esac
    all=$(wc -l < "$f")
    case "/$f" in
        */tests/*) nontest=0 ;;
        *) nontest=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f") ;;
    esac
    printf '%s %s %s\n' "$crate" "$nontest" "$all"
done | awk '{ nt[$1] += $2; al[$1] += $3 } END { for (c in nt) print c, nt[c], al[c] }' \
    | sort | awk '
    BEGIN { printf "%-28s %9s %9s\n", "crate", "non-test", "all" }
    { printf "%-28s %9d %9d\n", $1, $2, $3; nt += $2; al += $3 }
    END { printf "%-28s %9d %9d\n", "total", nt, al }'
