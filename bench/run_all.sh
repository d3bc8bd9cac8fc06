#!/usr/bin/env bash
# Runs every bench_* binary with JSON output and aggregates the results
# into BENCH_core.json (schema "hilog-bench-core-v1": one entry per
# binary, each in the per-binary "hilog-bench-v1" schema emitted by
# bench/bench_main.h).
#
#   bench/run_all.sh [build-dir] [output-json] [extra benchmark args...]
#
# Defaults: build-dir=build, output-json=BENCH_core.json. A quick filter
# keeps the default run to the small/medium workload sizes so the
# baseline regenerates in seconds; pass --benchmark_filter=. to override.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_json="${2:-$repo_root/BENCH_core.json}"
shift $(( $# > 2 ? 2 : $# )) || true

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

# Keep the committed baseline cheap: only workload sizes up to 3 digits,
# plus the IndexedJoin/ColumnJoin cases (deliberately 10k-100k facts —
# they exist to exercise the key columns at scale and stay fast
# *because* of them). The 1M ColumnJoin points stay out of the committed
# baseline.
default_filter='--benchmark_filter=(.*/[0-9]{1,3}$)|(IndexedJoin)|(ColumnJoin.*/10{4,5}$)'
min_time='--benchmark_min_time=0.02'

bins=("$build_dir"/bench/bench_*)
if [ ! -e "${bins[0]}" ]; then
  echo "no bench binaries under $build_dir/bench — build first" >&2
  exit 1
fi

parts=()
for bin in "${bins[@]}"; do
  name="$(basename "$bin")"
  echo "== $name" >&2
  "$bin" "$default_filter" "$min_time" "$@" \
      --json "$tmp_dir/$name.json" >/dev/null
  parts+=("$tmp_dir/$name.json")
done

{
  printf '{"schema":"hilog-bench-core-v1","binaries":['
  first=1
  for part in "${parts[@]}"; do
    [ "$first" = 1 ] || printf ','
    first=0
    cat "$part" | tr -d '\n'
  done
  printf ']}\n'
} > "$out_json"

echo "wrote $out_json (${#parts[@]} binaries)" >&2
