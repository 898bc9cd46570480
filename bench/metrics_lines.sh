#!/usr/bin/env bash
# Print the deterministic `# metrics` lines of every bench in a built tree,
# bench by bench in name order, so two trees compare with one `cmp`:
#
#   bench/metrics_lines.sh build > change.txt
#   bench/metrics_lines.sh ../parent/build > parent.txt
#   cmp parent.txt change.txt
#
# bench_social's only metrics line, BM_E12_Headline, costs about 80 s of
# CPU, so it runs only with --headline (and then last).
set -euo pipefail
export LC_ALL=C

usage() {
  echo "usage: $0 <build-dir> [--headline]" >&2
  exit 2
}
[ $# -ge 1 ] && [ $# -le 2 ] || usage
build=$1
headline=0
if [ $# -eq 2 ]; then
  [ "$2" = --headline ] || usage
  headline=1
fi

metrics() {
  # Metrics go to stderr; stdout is the benchmark's own report.
  "$@" --benchmark_min_time=0.01 2>&1 >/dev/null | grep '^# metrics'
}

found=0
for bin in "$build"/bench/bench_*; do
  [ -x "$bin" ] || continue
  [ "$(basename "$bin")" = bench_social ] && continue
  metrics "$bin"
  found=1
done
if [ $found -eq 0 ]; then
  echo "$0: no bench binaries under $build/bench" >&2
  exit 1
fi
if [ $headline -eq 1 ]; then
  metrics "$build/bench/bench_social" --benchmark_filter=BM_E12_Headline
fi
