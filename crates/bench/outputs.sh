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
#                                            # git worktree, run the same 21
#                                            # there, and fail on the first
#                                            # stdout that differs
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
cleanup() {
  if [ -n "$against" ] && [ -d "$scratch/ref" ]; then
    git -C "$root" worktree remove --force "$scratch/ref" || true
  fi
  rm -rf "$scratch"
}
trap cleanup EXIT

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

if [ -n "$against" ]; then
  git -C "$root" worktree add --quiet --detach "$scratch/ref" "$against"
  build "$scratch/ref"
  mkdir -p "$scratch/run-ref"
  (cd "$scratch/run-ref" && run_all "$scratch/ref" "$scratch/base") >/dev/null
  for entry in "${OUTPUTS[@]}"; do
    read -r _ name args <<<"$entry"
    file="$name${args:+ $args}"
    file="${file// /_}.out"
    if ! cmp -s "$scratch/base/$file" "$scratch/head/$file"; then
      echo "stdout differs from $against: ${file%.out}" >&2
      diff "$scratch/base/$file" "$scratch/head/$file" | head -n 20 >&2
      exit 1
    fi
  done
  echo "all ${#OUTPUTS[@]} stdouts byte-identical to $against"
fi
