#!/usr/bin/env bash
# perf-ab.sh is the perf gate: it judges the working tree against a
# parent revision with one workload of the system benchmark (bench/).
# The two sides run in ten same-seed pairs, alternating which side goes
# first, and the script exits with the status of
# `bench/run.sh --compare parent.jsonl change.jsonl`: it fails when an
# end-to-end metric of BENCHMARK.json reads worse than the parent's by
# more than its bound (REGRESSION) or when either side's runs spread
# past it (NOISY). A run that fails its own checks fails the script
# before the comparison.
#
# Both sides run the working tree's bench/ and BENCHMARK.json, so they
# differ only in the program the benchmark drives. The parent comes out
# of `git archive`, and each side builds into its own directory. All of
# it lives in one mktemp -d directory (set TMPDIR to keep it elsewhere).
# On exit only parent.jsonl, change.jsonl and compare.txt remain there,
# and the last line printed names the directory.
#
# Usage, from anywhere in the repository:
#
#	scripts/perf-ab.sh <parent-rev> <workload>
#	scripts/perf-ab.sh HEAD^1 fleet-sweep
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/perf-ab.sh <parent-rev> <workload>" >&2
  exit 2
fi
PARENT=$1
WORKLOAD=$2
PAIRS=10
ROOT=$(git rev-parse --show-toplevel)
RUN_SECONDS=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$ROOT/BENCHMARK.json")
if [ -z "$RUN_SECONDS" ]; then
  echo "perf-ab: no run_seconds in BENCHMARK.json" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK/parent" "$WORK/parent-build" "$WORK/change-build"; echo "perf-ab: results in $WORK" >&2' EXIT

mkdir "$WORK/parent"
git -C "$ROOT" archive "$PARENT" | tar -x -C "$WORK/parent"
rm -rf "$WORK/parent/bench"
cp -R "$ROOT/bench" "$WORK/parent/bench"
cp "$ROOT/BENCHMARK.json" "$WORK/parent/BENCHMARK.json"
echo "perf-ab: $WORKLOAD, $PARENT ($(git -C "$ROOT" rev-parse --short "$PARENT")) against the working tree, $PAIRS pairs of ${RUN_SECONDS}s runs" >&2

# run SIDE SEED appends one run's output to SIDE.jsonl; run.sh exits
# non-zero when the run fails a check, and set -e stops the script.
run() {
  local dir=$ROOT
  if [ "$1" = parent ]; then dir=$WORK/parent; fi
  echo "perf-ab: $1, seed $2" >&2
  (cd "$dir" && CARGO_TARGET_DIR="$WORK/$1-build" bash bench/run.sh \
    --workload "$WORKLOAD" --seed "$2" --seconds "$RUN_SECONDS" --trace 0) >> "$WORK/$1.jsonl"
}

for seed in $(seq "$PAIRS"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$seed"
    run change "$seed"
  else
    run change "$seed"
    run parent "$seed"
  fi
done

cd "$ROOT"
CARGO_TARGET_DIR="$WORK/change-build" bash bench/run.sh \
  --compare "$WORK/parent.jsonl" "$WORK/change.jsonl" | tee "$WORK/compare.txt"
