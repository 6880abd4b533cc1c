#!/usr/bin/env bash
# Diff the quick-mode repro output against the headline bands recorded in
# EXPERIMENTS.md. Usage: scripts/check_headlines.sh <results-dir>
#
# Bands, not digits: quick-mode estimates carry Monte-Carlo spread and
# libm differences across platforms can perturb the last bits, so each
# check asserts the recorded band. A failure here means the models'
# behavior changed — update EXPERIMENTS.md in the same PR if intended.
set -u
dir="${1:?usage: check_headlines.sh <results-dir>}"
fails=0

# check <label> <file> <awk-condition over data rows (tab-separated, no '#')>
check() {
  local label="$1" file="$2" cond="$3"
  if [ ! -f "$dir/$file" ]; then
    echo "FAIL $label: missing $dir/$file"
    fails=$((fails + 1))
    return
  fi
  if awk -F'\t' "!/^#/ && NF > 1 { $cond } END { exit ok ? 0 : 1 }" ok=0 "$dir/$file"; then
    echo "ok   $label"
  else
    echo "FAIL $label (see $dir/$file)"
    fails=$((fails + 1))
  fi
}

# Theorem 1: all three methods near 1/3.
check "thm1: thresholds at 1/3 +-0.04" thm1.txt \
  'if ($2 > 0.293 && $2 < 0.373) ok++; else { ok = -1000000 }'

# Fig 2(a): the Weibull family climbs toward the 50% ceiling.
check "fig2a: gamma=10 threshold >= 0.45" fig2a.txt \
  'if ($1 == "10.00000" && $2 >= 0.45) ok = 1'

# Fig 2(b): heavier Pareto tails raise the threshold above 1/3 - noise.
# Axis mapping alpha = 1 + 1/beta re-verified against the figure's endpoint
# behaviour (pinned by pareto_inverse_scale_axis_endpoints in simcore);
# band tightened around the recorded quick-mode value 0.36238.
check "fig2b: beta=0.9 threshold in [0.33, 0.42]" fig2b.txt \
  'if ($1 == "0.90000" && $2 >= 0.33 && $2 <= 0.42) ok = 1'

# Fig 2(c): the deterministic worst case at p=0.
check "fig2c: p=0 threshold in [0.22, 0.31]" fig2c.txt \
  'if ($1 == "0.00000" && $2 >= 0.22 && $2 <= 0.31) ok = 1'

# Fig 3: every random-distribution threshold inside the conjectured band.
check "fig3: thresholds in [0.20, 0.50)" fig3.txt \
  'if (NF == 4) { if ($3 >= 0.20 && $4 < 0.50) ok++; else { ok = -1000000 } }'

# Fig 4: zero-overhead exponential near 1/3, full overhead collapses.
check "fig4: exponential 0 -> >0.28, 1.0 -> <0.05" fig4.txt \
  'if ($2 == "exponential" && $1 == "0.00000" && $3 > 0.28) a = 1; if ($2 == "exponential" && $1 == "1.00000" && $3 < 0.05) b = 1; ok = a && b'

# TCP handshake: savings per KB far above break-even (paper: >= 170).
check "tcp: savings/KB >= 160" tcp.txt 'ok = 1' # presence; value checked below
if [ -f "$dir/tcp.txt" ]; then
  rate=$(grep -o 'savings per KB: [0-9.]*' "$dir/tcp.txt" | grep -o '[0-9.]*$')
  if [ -n "$rate" ] && awk "BEGIN { exit !($rate >= 160) }"; then
    echo "ok   tcp: savings per KB $rate >= 160"
  else
    echo "FAIL tcp: savings per KB '$rate' < 160"
    fails=$((fails + 1))
  fi
fi

# fig-service: the live planner's switch-off load lands within +-0.05 of
# the offline section-2.1 threshold for the exponential workload.
if [ -f "$dir/fig-service.txt" ]; then
  so=$(grep -o 'planner switch-off load: [0-9.]*' "$dir/fig-service.txt" | grep -o '[0-9.]*$')
  th=$(grep -o 'offline threshold: [0-9.]*' "$dir/fig-service.txt" | grep -o '[0-9.]*$')
  if [ -n "$so" ] && [ -n "$th" ] && awk "BEGIN { d = $so - $th; if (d < 0) d = -d; exit !(d <= 0.05) }"; then
    echo "ok   fig-service: switch-off $so within 0.05 of threshold $th"
  else
    echo "FAIL fig-service: switch-off '$so' vs threshold '$th' out of band"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service: missing $dir/fig-service.txt"
  fails=$((fails + 1))
fi

# fig-service-scale: the sharded parallel engine reproduces the section-2.1
# switch-off at cluster scale (256+ servers, 1M+ requests) — and because the
# run executes on the parallel engine, the repro-quick byte-diff across
# --threads trees doubles as its determinism gate.
if [ -f "$dir/fig-service-scale.txt" ]; then
  so=$(grep -o 'planner switch-off load: [0-9.]*' "$dir/fig-service-scale.txt" | grep -o '[0-9.]*$')
  th=$(grep -o 'offline threshold: [0-9.]*' "$dir/fig-service-scale.txt" | grep -o '[0-9.]*$')
  done_n=$(grep -o 'completed: [0-9]*' "$dir/fig-service-scale.txt" | grep -o '[0-9]*$')
  if [ -n "$so" ] && [ -n "$th" ] && awk "BEGIN { d = $so - $th; if (d < 0) d = -d; exit !(d <= 0.05) }"; then
    echo "ok   fig-service-scale: switch-off $so within 0.05 of threshold $th"
  else
    echo "FAIL fig-service-scale: switch-off '$so' vs threshold '$th' out of band"
    fails=$((fails + 1))
  fi
  if [ -n "$done_n" ] && [ "$done_n" -ge 1000000 ]; then
    echo "ok   fig-service-scale: $done_n requests completed (>= 1M)"
  else
    echo "FAIL fig-service-scale: completed '$done_n' below 1M"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-scale: missing $dir/fig-service-scale.txt"
  fails=$((fails + 1))
fi

# fig-service-frontier: the lane sweep. The decomposed frontend must still
# land the section-2.1 switch-off on the offline threshold at every lane
# count L in {1,2,4,8}, and the summaries column must show the exchange
# the decomposition costs: none on a lone lane, some on every split one.
if [ -f "$dir/fig-service-frontier.txt" ]; then
  rows=$(grep -c '^[0-9]' "$dir/fig-service-frontier.txt")
  bad=$(grep '^[0-9]' "$dir/fig-service-frontier.txt" \
    | awk '{ d = $3; if (d < 0) d = -d; if (d > 0.05) n++ } END { print n + 0 }')
  if [ "$rows" -eq 4 ] && [ "$bad" -eq 0 ]; then
    echo "ok   fig-service-frontier: 4 rows, every switch-off within 0.05 of threshold"
  else
    echo "FAIL fig-service-frontier: $rows rows, $bad out of band"
    fails=$((fails + 1))
  fi
  lanes=$(grep '^[0-9]' "$dir/fig-service-frontier.txt" | awk '{ printf "%s%s", sep, $1; sep = "," }')
  summ=$(grep '^[0-9]' "$dir/fig-service-frontier.txt" \
    | awk '($1 == 1 && $4 != 0) || ($1 != 1 && $4 <= 0) { n++ } END { print n + 0 }')
  if [ "$lanes" = "1,2,4,8" ] && [ "$summ" -eq 0 ]; then
    echo "ok   fig-service-frontier: lanes 1,2,4,8; summaries 0 at L=1, > 0 otherwise"
  else
    echo "FAIL fig-service-frontier: lanes '$lanes', $summ rows with the wrong summary count"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-frontier: missing $dir/fig-service-frontier.txt"
  fails=$((fails + 1))
fi

# fig-service-est: the fully self-calibrating planner (rate, mean, and SCV
# all measured online) must land its switch-off within +-0.08 of the
# offline threshold, and within +-0.08 of the clairvoyant run it replaces.
if [ -f "$dir/fig-service-est.txt" ]; then
  est=$(grep -o 'estimated switch-off load: [0-9.]*' "$dir/fig-service-est.txt" | grep -o '[0-9.]*$')
  cl=$(grep -o 'clairvoyant switch-off load: [0-9.]*' "$dir/fig-service-est.txt" | grep -o '[0-9.]*$')
  th=$(grep -o 'offline threshold: [0-9.]*' "$dir/fig-service-est.txt" | grep -o '[0-9.]*$')
  if [ -n "$est" ] && [ -n "$cl" ] && [ -n "$th" ] && \
     awk "BEGIN { d = $est - $th; if (d < 0) d = -d; e = $est - $cl; if (e < 0) e = -e; exit !(d <= 0.08 && e <= 0.08) }"; then
    echo "ok   fig-service-est: estimated switch-off $est within 0.08 of threshold $th (clairvoyant $cl)"
  else
    echo "FAIL fig-service-est: estimated '$est' vs threshold '$th' / clairvoyant '$cl' out of band"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-est: missing $dir/fig-service-est.txt"
  fails=$((fails + 1))
fi

# fig-service-tail: the two-moment planner's threshold peaks at scv = 1, so
# the self-calibrated heavy-tail switch-off must sit below the exponential
# one (and strictly: the quick-mode gap measures ~ -0.02).
if [ -f "$dir/fig-service-tail.txt" ]; then
  hv=$(grep -o 'heavy-tail switch-off load: [0-9.]*' "$dir/fig-service-tail.txt" | grep -o '[0-9.]*$')
  ex=$(grep -o 'exponential switch-off load: [0-9.]*' "$dir/fig-service-tail.txt" | grep -o '[0-9.]*$')
  if [ -n "$hv" ] && [ -n "$ex" ] && awk "BEGIN { exit !($hv < $ex) }"; then
    echo "ok   fig-service-tail: heavy-tail switch-off $hv below exponential $ex"
  else
    echo "FAIL fig-service-tail: heavy-tail '$hv' not below exponential '$ex'"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-tail: missing $dir/fig-service-tail.txt"
  fails=$((fails + 1))
fi

# fig-service-skew: the global-rate planner still flips in band under a
# Zipf key mix, and hedging on the skewed ramp cuts the ramp-end p99 for a
# small fired fraction.
if [ -f "$dir/fig-service-skew.txt" ]; then
  sk=$(grep -o 'skewed switch-off load: [0-9.]*' "$dir/fig-service-skew.txt" | grep -o '[0-9.]*$')
  th=$(grep -o 'offline threshold: [0-9.]*' "$dir/fig-service-skew.txt" | grep -o '[0-9.]*$')
  ratio=$(grep -o 'ratio [0-9.]*' "$dir/fig-service-skew.txt" | grep -o '[0-9.]*$')
  fired=$(grep -o 'hedge fired fraction: [0-9.]*' "$dir/fig-service-skew.txt" | grep -o '[0-9.]*$')
  if [ -n "$sk" ] && [ -n "$th" ] && awk "BEGIN { d = $sk - $th; if (d < 0) d = -d; exit !(d <= 0.08) }"; then
    echo "ok   fig-service-skew: skewed switch-off $sk within 0.08 of threshold $th"
  else
    echo "FAIL fig-service-skew: skewed switch-off '$sk' vs threshold '$th' out of band"
    fails=$((fails + 1))
  fi
  if [ -n "$ratio" ] && [ -n "$fired" ] && \
     awk "BEGIN { exit !($ratio < 0.97 && $fired > 0.001 && $fired < 0.3) }"; then
    echo "ok   fig-service-skew: hedged/single ramp-end p99 ratio $ratio < 0.97, fired fraction $fired in (0.001, 0.3)"
  else
    echo "FAIL fig-service-skew: hedge ratio '$ratio' / fired fraction '$fired' out of band"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-skew: missing $dir/fig-service-skew.txt"
  fails=$((fails + 1))
fi

# fig-service-skew-aware: the per-server planner must cut the Zipf
# hot-server peak utilization strictly below the global planner's, flatten
# the mid-ramp p99 contention hump, and keep cold pairs replicating after
# hot pairs switched off.
if [ -f "$dir/fig-service-skew-aware.txt" ]; then
  f="$dir/fig-service-skew-aware.txt"
  gp=$(grep -o 'global hot-server peak utilization: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  pp=$(grep -o 'per-server hot-server peak utilization: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  ratio=$(grep -o 'p99 hump ratio: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  hot=$(grep -o 'hot-pair switch-off load: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  cold=$(grep -o 'cold-pair switch-off load: [0-9.NaN]*' "$f" | grep -o '[0-9.NaN]*$')
  if [ -n "$gp" ] && [ -n "$pp" ] && awk "BEGIN { exit !($pp < $gp - 0.05) }"; then
    echo "ok   fig-service-skew-aware: per-server peak util $pp below global $gp - 0.05"
  else
    echo "FAIL fig-service-skew-aware: per-server peak '$pp' vs global '$gp' out of band"
    fails=$((fails + 1))
  fi
  if [ -n "$ratio" ] && awk "BEGIN { exit !($ratio < 0.9) }"; then
    echo "ok   fig-service-skew-aware: p99 hump ratio $ratio < 0.9"
  else
    echo "FAIL fig-service-skew-aware: p99 hump ratio '$ratio' not < 0.9"
    fails=$((fails + 1))
  fi
  # NaN cold switch-off = cold pairs never cross inside the ramp: the
  # maximal stagger, which passes by definition.
  if [ "$cold" = "NaN" ] || { [ -n "$hot" ] && [ -n "$cold" ] && \
       awk "BEGIN { exit !($cold > $hot + 0.10) }"; }; then
    echo "ok   fig-service-skew-aware: cold switch-off $cold staggered above hot $hot + 0.10"
  else
    echo "FAIL fig-service-skew-aware: cold switch-off '$cold' vs hot '$hot' out of band"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-skew-aware: missing $dir/fig-service-skew-aware.txt"
  fails=$((fails + 1))
fi

# fig-service-ps-est: the previously rejected Estimated + PS + cancellation
# combination, under dispatch-time demand reporting, must land its
# switch-off within +-0.08 of the offline threshold with an unbiased mean
# estimate (completion reporting would have censored it toward ~0.0005 s).
if [ -f "$dir/fig-service-ps-est.txt" ]; then
  f="$dir/fig-service-ps-est.txt"
  so=$(grep -o 'planner switch-off load: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  th=$(grep -o 'offline threshold: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  em=$(grep -o 'estimated final mean service: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  if [ -n "$so" ] && [ -n "$th" ] && awk "BEGIN { d = $so - $th; if (d < 0) d = -d; exit !(d <= 0.08) }"; then
    echo "ok   fig-service-ps-est: switch-off $so within 0.08 of threshold $th"
  else
    echo "FAIL fig-service-ps-est: switch-off '$so' vs threshold '$th' out of band"
    fails=$((fails + 1))
  fi
  if [ -n "$em" ] && awk "BEGIN { exit !($em >= 0.0009 && $em <= 0.0011) }"; then
    echo "ok   fig-service-ps-est: dispatch-reported mean $em unbiased (band [0.0009, 0.0011])"
  else
    echo "FAIL fig-service-ps-est: estimated mean '$em' outside [0.0009, 0.0011]"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-ps-est: missing $dir/fig-service-ps-est.txt"
  fails=$((fails + 1))
fi

# fig-service-elastic: under a diurnal load over a cluster resizing
# 64 -> 256 -> 64, the planner's switch-off measured against the *live*
# server count must land within +-0.06 of the offline threshold, the
# autoscaler must reach its ceiling and return to its floor, and the ring
# migration must not lose a single request.
if [ -f "$dir/fig-service-elastic.txt" ]; then
  f="$dir/fig-service-elastic.txt"
  so=$(grep -o 'planner switch-off load (per live server): [0-9.]*' "$f" | grep -o '[0-9.]*$')
  th=$(grep -o 'offline threshold: [0-9.]*' "$f" | grep -o '[0-9.]*$')
  peak=$(grep -o 'peak live servers: [0-9]*' "$f" | grep -o '[0-9]*$')
  ceil=$(grep -o 'ceiling [0-9]*' "$f" | grep -o '[0-9]*$')
  fin=$(grep -o 'final live servers: [0-9]*' "$f" | grep -o '[0-9]*$')
  floor=$(grep -o 'floor [0-9]*' "$f" | grep -o '[0-9]*$')
  ev=$(grep -o 'scale events: [0-9]*' "$f" | grep -o '[0-9]*$')
  done_n=$(grep -o 'completed: [0-9]*' "$f" | grep -o '[0-9]*$')
  total_n=$(grep -o 'completed: [0-9]* of [0-9]*' "$f" | grep -o '[0-9]*$')
  if [ -n "$so" ] && [ -n "$th" ] && \
     awk "BEGIN { d = $so - $th; if (d < 0) d = -d; exit !(d <= 0.06) }"; then
    echo "ok   fig-service-elastic: switch-off $so within 0.06 of threshold $th"
  else
    echo "FAIL fig-service-elastic: switch-off '$so' vs threshold '$th' out of band"
    fails=$((fails + 1))
  fi
  if [ -n "$peak" ] && [ -n "$ceil" ] && [ -n "$fin" ] && [ -n "$floor" ] && \
     [ "$peak" -eq "$ceil" ] && [ "$fin" -eq "$floor" ]; then
    echo "ok   fig-service-elastic: scaled to ceiling $ceil and back to floor $floor"
  else
    echo "FAIL fig-service-elastic: peak '$peak' (ceiling '$ceil') / final '$fin' (floor '$floor')"
    fails=$((fails + 1))
  fi
  if [ -n "$ev" ] && [ "$ev" -ge 4 ]; then
    echo "ok   fig-service-elastic: $ev scale events (>= 4)"
  else
    echo "FAIL fig-service-elastic: scale events '$ev' below 4"
    fails=$((fails + 1))
  fi
  if [ -n "$done_n" ] && [ -n "$total_n" ] && [ "$done_n" -eq "$total_n" ]; then
    echo "ok   fig-service-elastic: $done_n of $total_n requests completed across migrations"
  else
    echo "FAIL fig-service-elastic: completed '$done_n' of '$total_n'"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig-service-elastic: missing $dir/fig-service-elastic.txt"
  fails=$((fails + 1))
fi

# Fig 16: 10-server mean reduction in the recorded band, tail strong.
check "fig16: k=10 mean reduction in [35, 80], p99 > 30" fig16.txt \
  'if ($1 == "10" && $2 >= 35 && $2 <= 80 && $5 > 30) ok = 1'

# Fig 15: the 500 ms tail shrinks severalfold with 10 servers.
if [ -f "$dir/fig15.txt" ]; then
  ratio=$(grep -o 'fraction later than 500 ms.*(\([0-9.]*\)x)' "$dir/fig15.txt" | grep -o '[0-9.]*x' | tr -d 'x')
  if [ -n "$ratio" ] && awk "BEGIN { exit !($ratio >= 3) }"; then
    echo "ok   fig15: 500 ms tail cut ${ratio}x >= 3x"
  else
    echo "FAIL fig15: 500 ms tail cut '$ratio' < 3x"
    fails=$((fails + 1))
  fi
else
  echo "FAIL fig15: missing $dir/fig15.txt"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails headline check(s) failed against EXPERIMENTS.md bands"
  exit 1
fi
echo "all headline checks passed"
