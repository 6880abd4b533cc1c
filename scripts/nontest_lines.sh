#!/usr/bin/env bash
# Counts the non-test Rust lines of the workspace: every `.rs` file under
# crates/ and src/, except files in `tests/` and `fixtures/` directories
# and the llr_bench benchmark package (its own workspace). A file counts
# its lines up to, not including, its first `#[cfg(test)]` line. Prints
# one subtotal per crate (`src` is the root package) and the total.
# Usage: scripts/nontest_lines.sh   (counts the checkout it lives in)
set -eu
cd "$(dirname "$0")/.."
find crates src -name '*.rs' \
  -not -path '*/tests/*' -not -path '*/fixtures/*' \
  -not -path 'crates/bench/examples/llr_bench/*' -print0 |
  xargs -0 awk '
    FNR == 1 { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate); counting = 1 }
    /^[ \t]*#\[cfg\(test\)\]/ { counting = 0 }
    counting { lines[crate]++; total++ }
    END {
      for (c in lines) printf "%-10s %6d\n", c, lines[c] | "sort"
      close("sort")
      printf "%-10s %6d\n", "total", total
    }'
