#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <fleet_skew|hot_windows|archive_aging> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. It is built in release mode into
CARGO_TARGET_DIR (default: .bench_build at the repository root), then run
with the same arguments. The binary prints every metric with its unit and,
as the last line of stdout, one JSON object; its exit code is passed on
(1 when a correctness check failed). With --trace 1 the traced spans are
also written to <target dir>/perfbench-spans-<workload>-<seed>.csv.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def arg(name):
    args = sys.argv[1:]
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no workspace crates under {ROOT}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    cmd = [os.path.join(target, "release", "presto-perfbench")] + sys.argv[1:]
    if arg("--trace") == "1":
        spans = f"perfbench-spans-{arg('--workload')}-{arg('--seed')}.csv"
        cmd += ["--spans-out", os.path.join(target, spans)]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
