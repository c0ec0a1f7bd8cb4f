#!/usr/bin/env python3
"""Builds and runs the Mayflower benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fs-small-read --seed 1 --seconds 20 --trace 0

The Rust harness in this directory is built in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`).

With `--trace 0` the harness runs in PROCESSES processes one after
another, each with the same seed and a PROCESSES-th of `--seconds`, and
each end-to-end metric is the median over the processes. On the
reference machine about one process in eight ran uniformly 1.5x faster
than otherwise identical ones; one process per run made that luck a
run's result, the median of three rarely is. Each process's peak
resident set size, read from the kernel's accounting when it exits, is
its `peak_rss_mb`. With `--trace 1` the harness runs once and its
per-layer metrics pass through.

Notes the harness prints go to standard output ahead of the result,
the last line: one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Exits non-zero without printing a result when the build
or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fs-small-read", "fs-bulk-read", "sim-paper64")
PROCESSES = 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "mayflower-perfbench")

    processes = 1 if args.trace else PROCESSES
    results = []
    for i in range(processes):
        cmd = [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds / processes),
            "--trace", str(args.trace),
        ]
        code, out, rss_kib = spawn(cmd, env)
        lines = out.rstrip("\n").split("\n") if out else []
        try:
            result = json.loads(lines[-1]) if code == 0 and lines else None
        except ValueError:
            result = None
        for line in lines[:-1] if result else lines:
            print("[process %d] %s" % (i, line))
        if result is None:
            print("benchmark process %d failed with code %d" % (i, code), file=sys.stderr)
            return 1
        if not args.trace:
            result["metrics"]["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
            print("[process %d] metrics: %s" % (i, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())))
        results.append(result)

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(values) != len(results):
            print("metric %s missing from a process" % name, file=sys.stderr)
            return 1
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


def spawn(cmd, env):
    """Runs `cmd` with its stdout captured; returns its exit code, its
    output, and its own peak RSS in KiB from wait4()."""
    read_end, write_end = os.pipe()
    pid = os.posix_spawn(
        cmd[0],
        cmd,
        env,
        file_actions=[
            (os.POSIX_SPAWN_DUP2, write_end, 1),
            (os.POSIX_SPAWN_CLOSE, read_end),
        ],
    )
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        out = pipe.read()
    _, status, rusage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), out, rusage.ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
