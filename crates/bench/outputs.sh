#!/usr/bin/env bash
# Runs every deterministic output of the workspace in release: the eleven
# experiment binaries (table1, e1-e8, a1, figure2), the four examples,
# failure_scenario --quick and --quick-correlated, and the four scenario
# smokes (fleet, partition, slice, query_pipeline with --quick). Fails on
# any non-zero exit. The smokes write their BENCH_*.json into the current
# directory, where bench_diff expects them.
#
#   crates/bench/outputs.sh                  # run all 21, check exit codes
#   crates/bench/outputs.sh --against <ref>  # also build <ref> in a scratch
#                                            # export (git archive), run the
#                                            # same 21 there, print every
#                                            # stdout, every smoke's metric
#                                            # rows and every smoke's
#                                            # incidents that differ, and
#                                            # fail if anything did
#
# The smokes' metric rows are the `metrics` list of each BENCH_*.json:
# the whole flattened telemetry snapshot. The comparison leaves out the
# rows that depend on the host or on allocations (`*.micros`,
# `*.allocs`, `alloc.*`); every other row is deterministic. A smoke's
# incidents are its watchdog incident log, the artifact's last field:
# rule, window, observed, bound, attributed and blame set.
#
# No expected outputs are committed: the simulator calls libm, so byte
# identity only holds between two builds on one machine.
set -euo pipefail

OUTPUTS=(
  "bin table1"
  "bin e1_rare_events"
  "bin e2_latency"
  "bin e3_extrapolation"
  "bin e4_aging"
  "bin e5_skipgraph"
  "bin e6_matching"
  "bin e7_asymmetry"
  "bin e8_clock"
  "bin a1_model_ablation"
  "bin figure2"
  "example quickstart"
  "example building_monitor"
  "example eldercare"
  "example traffic_monitor"
  "bin failure_scenario --quick"
  "bin failure_scenario --quick-correlated"
  "bin fleet_scenario --quick"
  "bin partition_scenario --quick"
  "bin slice_scenario --quick"
  "bin query_pipeline --quick"
)

against=""
case "${1:-}" in
  "") ;;
  --against) against="${2:?--against needs a git ref}" ;;
  *) echo "usage: $0 [--against <ref>]" >&2; exit 2 ;;
esac

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

build() {
  cargo build --release --quiet --manifest-path "$1/Cargo.toml" -p presto-bench --bins
  cargo build --release --quiet --manifest-path "$1/Cargo.toml" --examples
}

# run_all <workspace> <stdout dir>: runs every output from the current
# directory, one stdout file per output.
run_all() {
  mkdir -p "$2"
  for entry in "${OUTPUTS[@]}"; do
    read -r kind name args <<<"$entry"
    exe="$1/target/release/$name"
    [ "$kind" = example ] && exe="$1/target/release/examples/$name"
    label="$name${args:+ $args}"
    # shellcheck disable=SC2086 # args is one flag or empty
    if ! "$exe" $args >"$2/${label// /_}.out" 2>"$2/${label// /_}.err"; then
      echo "FAILED: $label (exit non-zero in $1)" >&2
      tail -n 20 "$2/${label// /_}.out" "$2/${label// /_}.err" >&2
      exit 1
    fi
    echo "ok  $label"
  done
}

build "$root"
run_all "$root" "$scratch/head"

# rows <BENCH json>: the deterministic metric rows, one per line.
rows() {
  grep '^ *{"key": ' "$1" | grep -Ev '"key": "(alloc\.[^"]*|[^"]*\.(micros|allocs))"'
}

# incidents <BENCH json>: the incident log, from its key to the end.
incidents() {
  sed -n '/^  "incidents": /,$p' "$1"
}

if [ -n "$against" ]; then
  mkdir -p "$scratch/ref"
  git -C "$root" archive "$against" | tar -x -C "$scratch/ref"
  build "$scratch/ref"
  mkdir -p "$scratch/run-ref"
  (cd "$scratch/run-ref" && run_all "$scratch/ref" "$scratch/base") >/dev/null
  differed=0
  for entry in "${OUTPUTS[@]}"; do
    read -r _ name args <<<"$entry"
    file="$name${args:+ $args}"
    file="${file// /_}.out"
    if ! diff "$scratch/base/$file" "$scratch/head/$file" >"$scratch/out.diff"; then
      echo "stdout differs from $against: ${file%.out}" >&2
      head -n 20 "$scratch/out.diff" >&2
      differed=1
    fi
  done
  for base in "$scratch"/run-ref/BENCH_*.json; do
    name=$(basename "$base")
    if ! diff <(rows "$base") <(rows "$name") >"$scratch/rows.diff"; then
      grep '^[<>]' "$scratch/rows.diff" >"$scratch/rows.changed"
      count=$(grep -o '"key": "[^"]*"' "$scratch/rows.changed" | sort -u | wc -l)
      echo "metric rows differ from $against: $name ($count rows)" >&2
      head -n 4 "$scratch/rows.changed" >&2
      differed=1
    fi
    if ! diff <(incidents "$base") <(incidents "$name") >"$scratch/incidents.diff"; then
      echo "incidents differ from $against: $name" >&2
      head -n 20 "$scratch/incidents.diff" >&2
      differed=1
    fi
  done
  [ "$differed" -eq 0 ] || exit 1
  echo "all ${#OUTPUTS[@]} stdouts, every smoke's deterministic metric rows and every smoke's incidents identical to $against"
fi
