#!/usr/bin/env bash
# Guard for the guard: check_headlines.sh (`repro check`) must (a) pass
# a pristine results tree and (b) still *fail* one that drifted out of
# band. A gate can rot silently — a buggy band compare could wave any
# value through. This script is the negative test: it tampers a copy of
# the real results so the elastic switch-off lands far outside the
# +-0.06 band and requires the gate to exit 1 naming the figure and the
# tampered value.
# Usage: check_headline_gate.sh <results-dir>
set -u
dir="${1:?usage: check_headline_gate.sh <results-dir>}"
here="$(cd "$(dirname "$0")" && pwd)"

# (a) The pristine tree passes.
if ! "$here/check_headlines.sh" "$dir"; then
  echo "FAIL: headline gate rejects the pristine results at '$dir'"
  exit 1
fi

# (b) A tampered copy is rejected, and the failure names the figure.
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
cp -r "$dir/." "$tmp/"
if [ ! -f "$tmp/fig-service-elastic.txt" ]; then
  echo "FAIL: '$dir' has no fig-service-elastic.txt to tamper"
  exit 1
fi
sed -i 's/planner switch-off load (per live server): [0-9.]*/planner switch-off load (per live server): 0.90000/' \
  "$tmp/fig-service-elastic.txt"
if ! grep -q 'planner switch-off load (per live server): 0.90000' "$tmp/fig-service-elastic.txt"; then
  echo "FAIL: tamper did not take — note string drifted from the sed pattern"
  exit 1
fi

out=$("$here/check_headlines.sh" "$tmp")
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: headline gate exited $status on a tampered elastic switch-off (want 1)"
  echo "$out"
  exit 1
fi
if ! printf '%s\n' "$out" | grep -q '^FAIL fig-service-elastic: .*0\.90000'; then
  echo "FAIL: gate failure does not name the tampered fig-service-elastic value:"
  echo "$out"
  exit 1
fi
echo "headline gate verified: pristine results pass, out-of-band elastic switch-off rejected"
