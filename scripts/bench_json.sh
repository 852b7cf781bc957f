#!/usr/bin/env bash
# Builds the benches in Release mode, runs every bench_* with `--json`, and
# aggregates the per-bench metric registries into BENCH_e2e.json (one
# top-level key per bench) so future PRs can diff the perf trajectory.
#
# Usage:
#   scripts/bench_json.sh [out.json]
#
# Env knobs:
#   RBVC_BENCH_BUILD_DIR   build directory (default: build-bench)
#   RBVC_BENCH_FILTER      --benchmark_filter regex passed to each bench
#                          (default: ^$ -- report phase + metrics only, no
#                          timed iterations, so the sweep stays fast; set
#                          to '.' for full timings)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_e2e.json}"
BUILD_DIR="${RBVC_BENCH_BUILD_DIR:-build-bench}"
FILTER="${RBVC_BENCH_FILTER:-^\$}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

benches=()
for exe in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$exe" ] || continue
  benches+=("$exe")
done
[ "${#benches[@]}" -gt 0 ] || { echo "no benches under $BUILD_DIR/bench"; exit 1; }

for exe in "${benches[@]}"; do
  name="$(basename "$exe")"
  echo "== $name =="
  status=0
  "$exe" --benchmark_filter="$FILTER" --json "$TMP_DIR/$name.json" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "bench_json.sh: FATAL: $name exited with status $status" >&2
    exit 1
  fi
  if [ ! -s "$TMP_DIR/$name.json" ]; then
    echo "bench_json.sh: FATAL: $name wrote no metrics JSON" >&2
    exit 1
  fi
  # A truncated or interleaved dump must fail HERE, naming the bench --
  # not later as an unparseable aggregate nobody can attribute.
  if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
      "$TMP_DIR/$name.json"; then
    echo "bench_json.sh: FATAL: $name emitted malformed metrics JSON" >&2
    exit 1
  fi
done

# Aggregate: { "<bench>": <registry dump>, ... } -- each registry dump is
# already valid JSON (obs::Registry::dump_json), embedded verbatim.
{
  printf '{\n'
  first=1
  for exe in "${benches[@]}"; do
    name="$(basename "$exe")"
    [ "$first" -eq 1 ] || printf ',\n'
    first=0
    printf '"%s": ' "$name"
    cat "$TMP_DIR/$name.json"
  done
  printf '}\n'
} > "$OUT"

# Belt and braces: the aggregate must itself parse, and every bench that
# ran (bench_sweep, bench_net_cluster, ...) must appear as its own key.
python3 - "$OUT" "${benches[@]}" <<'EOF'
import json, os, sys
out = sys.argv[1]
agg = json.load(open(out))
missing = [os.path.basename(b) for b in sys.argv[2:]
           if os.path.basename(b) not in agg]
if missing:
    sys.exit(f"bench_json.sh: FATAL: {out} is missing keys: {missing}")
EOF

echo "aggregated ${#benches[@]} bench registries into $OUT"
