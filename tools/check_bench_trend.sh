#!/usr/bin/env sh
# Compare a freshly generated BENCH_incremental.json against the committed
# baseline and warn when any gated metric regresses by more than 20%.
#
# Usage: tools/check_bench_trend.sh [--strict] <new.json> [baseline.json]
#
#   --strict   exit non-zero when a regression is detected (default: warn only)
#
# Gated metrics (top-level keys of BENCH_incremental.json):
#   longtail_speedup_vs_full        higher is better
#   head_residual_speedup_vs_full   higher is better
#   longtail_frontend_share         lower is better
#   longtail_frontend_ms            lower is better
#   longtail_decode_ms              lower is better
#
# The two absolute per-stage times are checked beside the ratios because
# a ratio's denominator (the full rebuild) can shrink and hide a slower
# stage.
#
# No jq in the CI image: the JSON is written by bench_incremental with one
# top-level scalar per line, so grep/awk extraction is reliable.

set -eu

STRICT=0
if [ "${1:-}" = "--strict" ]; then
  STRICT=1
  shift
fi

NEW="${1:-}"
BASE="${2:-$(dirname "$0")/../bench/BENCH_incremental.baseline.json}"

if [ -z "$NEW" ] || [ ! -f "$NEW" ]; then
  echo "usage: $0 [--strict] <new.json> [baseline.json]" >&2
  exit 2
fi
if [ ! -f "$BASE" ]; then
  echo "check_bench_trend: baseline $BASE not found; nothing to compare" >&2
  exit 0
fi

extract() {
  # extract <file> <key>: pull the numeric value of a top-level "key": entry.
  grep -o "\"$2\"[[:space:]]*:[[:space:]]*[0-9.eE+-]*" "$1" | head -n 1 |
    awk -F: '{gsub(/[[:space:]]/, "", $2); print $2}'
}

REGRESSIONS=0

check() {
  # check <key> <direction>: direction is "higher" or "lower" (better).
  key="$1"
  dir="$2"
  base_val=$(extract "$BASE" "$key")
  new_val=$(extract "$NEW" "$key")
  if [ -z "$base_val" ] || [ -z "$new_val" ]; then
    echo "check_bench_trend: $key missing from baseline or new run; skipping"
    return 0
  fi
  verdict=$(awk -v b="$base_val" -v n="$new_val" -v d="$dir" 'BEGIN {
    if (b == 0) { print "ok"; exit }
    if (d == "higher") delta = (b - n) / b;  # drop in a higher-is-better metric
    else              delta = (n - b) / b;  # rise in a lower-is-better metric
    if (delta > 0.20) printf "regressed %.1f%%", delta * 100;
    else print "ok";
  }')
  if [ "$verdict" = "ok" ]; then
    echo "check_bench_trend: $key ok (baseline $base_val -> $new_val)"
  else
    echo "check_bench_trend: WARNING $key $verdict (baseline $base_val -> $new_val)"
    REGRESSIONS=$((REGRESSIONS + 1))
  fi
}

check longtail_speedup_vs_full higher
check head_residual_speedup_vs_full higher
check longtail_frontend_share lower
check longtail_frontend_ms lower
check longtail_decode_ms lower

if [ "$REGRESSIONS" -gt 0 ]; then
  echo "check_bench_trend: $REGRESSIONS gated metric(s) regressed >20% vs baseline"
  if [ "$STRICT" -eq 1 ]; then
    exit 1
  fi
fi
exit 0
