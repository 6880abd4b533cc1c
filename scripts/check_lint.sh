#!/usr/bin/env bash
# Negative test for the determinism lints (`[workspace.lints]` in
# Cargo.toml, banned paths in clippy.toml). Every manifest must opt in,
# and clippy on a throwaway crate carrying the root's lint tables verbatim
# must pass a clean lib.rs and fail a dirty one with every rule's message,
# so a deleted or mistyped rule fails here instead of enforcing nothing.
# Usage: check_lint.sh [workspace-root]
set -u
root="${1:-.}"
for manifest in "$root/Cargo.toml" "$root"/crates/*/Cargo.toml; do
  if ! awk 'prev == "[lints]" && $0 == "workspace = true" { ok = 1 } { prev = $0 } END { exit !ok }' "$manifest"; then
    echo "FAIL: $manifest lacks '[lints]' followed by 'workspace = true'"; exit 1
  fi
done

tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src" && cp "$root/clippy.toml" "$tmp/" || exit 2
{
  printf '[package]\nname = "lint-probe"\nversion = "0.0.0"\nedition = "2021"\n\n[workspace]\n\n'
  awk '/^\[/{keep = ($0 ~ /^\[workspace\.lints\./)} keep' "$root/Cargo.toml" | sed 's/^\[workspace\.lints\./[lints./'
} > "$tmp/Cargo.toml"
# Writes stdin to the probe's lib.rs and runs clippy on it.
probe() { cat > "$tmp/src/lib.rs" && (cd "$tmp" && cargo clippy --quiet --offline -- -D warnings 2>&1); }

if ! out=$(probe <<'EOF'
use std::collections::HashMap;
pub fn keyed(m: &mut HashMap<u64, f64>) -> Option<f64> {
    m.insert(1, 2.0);
    if m.contains_key(&1) { m.get(&1).copied() } else { None }
}
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> { v.sort_by(f64::total_cmp); v }
#[allow(dead_code, reason = "a justified suppression is allowed")]
fn unused() {}
EOF
); then
  echo "FAIL: clippy rejects a clean probe crate:"; echo "$out"; exit 1
fi

if out=$(probe <<'EOF'
use std::collections::HashMap;
use std::time::{Instant, SystemTime};
pub fn clocks() -> (Instant, SystemTime) { (Instant::now(), SystemTime::now()) }
pub fn traverse(m: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for (_k, v) in m { total += v; }
    total + m.values().sum::<f64>()
}
pub fn order(a: f64, b: f64) -> Option<std::cmp::Ordering> { a.partial_cmp(&b) }
pub fn raw(x: u8) -> u8 { unsafe { std::ptr::read(&x) } }
#[allow(dead_code)]
fn unused() {}
EOF
); then
  echo "FAIL: clippy accepts a probe crate with known violations"; exit 1
fi
for needle in 'disallowed type `std::time::Instant`' 'disallowed type `std::time::SystemTime`' \
  'iteration over unordered hash-based type' 'disallowed method `std::collections::HashMap::values`' \
  'disallowed method `std::cmp::PartialOrd::partial_cmp`' 'usage of an `unsafe` block' \
  '`allow` attribute without specifying a reason'; do
  if ! printf '%s\n' "$out" | grep -qF "$needle"; then
    echo "FAIL: clippy output does not mention '$needle':"; echo "$out"; exit 1
  fi
done
echo "lint gate verified: every manifest opts in, clean probe passes, dirty probe fails all seven rules"
