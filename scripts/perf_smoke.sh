#!/usr/bin/env sh
# Perf-regression smoke: re-runs the headline sweep at --jobs 1 and fails
# when machine-normalized throughput drops more than ROM_PERF_TOLERANCE
# (default 0.20) below the committed BENCH_headline.json baseline. See
# crates/bench/src/bin/perf_smoke.rs for the normalization details.
# Also re-measures BENCH_tree.json (JSON-only fast path, no criterion
# statistics) and enforces the indexed-switch budget: the per-op switch
# cost must stay within 20 µs at 10k members (the pre-index full-subtree
# restamp cost ~1.8 ms there) and sub-linear from 10k to 100k.
# Both BENCH files are rewritten in place while the smoke runs and are
# restored on exit, so the committed baselines are never overwritten.
set -eu
cd "$(dirname "$0")/.."

tolerance="${ROM_PERF_TOLERANCE:-0.20}"
baseline="${ROM_PERF_BASELINE:-BENCH_headline.json}"

saved="$(mktemp -d)"
cp BENCH_headline.json BENCH_tree.json "$saved"
trap 'cp "$saved/BENCH_headline.json" "$saved/BENCH_tree.json" . && rm -rf "$saved"' EXIT
cp "$baseline" "$saved/baseline.json"

cargo run -q --release -p rom-bench --bin headline_claims -- --jobs 1 > /dev/null

cargo run -q --release -p rom-bench --bin perf_smoke -- \
  --baseline "$saved/baseline.json" --fresh BENCH_headline.json --tolerance "$tolerance"

# Tree-core switch bound. The 20 µs absolute budget carries ~70x headroom
# over the measured cost, so machine speed cannot trip it while the old
# O(subtree) restamp (two orders of magnitude over budget) still fails
# loudly; the 5x 10k->100k ratio bound is machine-free and catches any
# return to linear scaling.
ROM_BENCH_JSON_ONLY=1 cargo bench -q -p rom-bench --bench tree > /dev/null
awk '
  /"op": "switch"/ {
    for (i = 1; i <= NF; i++) {
      if ($i == "\"members\":") m = $(i + 1) + 0
      if ($i == "\"ns_per_op\":") ns = $(i + 1) + 0
    }
    cost[m] = ns
  }
  END {
    if (!(10000 in cost) || !(100000 in cost)) {
      print "error: BENCH_tree.json lacks switch rows at 10k/100k members" | "cat >&2"
      exit 1
    }
    printf "perf_smoke: switch 10k %.0f ns/op, 100k %.0f ns/op\n", cost[10000], cost[100000]
    if (cost[10000] > 20000) {
      printf "error: switch@10k %.0f ns exceeds the 20000 ns budget\n", cost[10000] | "cat >&2"
      exit 1
    }
    if (cost[100000] > 5 * cost[10000]) {
      printf "error: switch@100k %.0f ns is not sub-linear vs 10k (%.0f ns)\n", cost[100000], cost[10000] | "cat >&2"
      exit 1
    }
    print "perf_smoke: tree switch bound ok"
  }
' BENCH_tree.json
