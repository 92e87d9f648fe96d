#!/usr/bin/env python3
"""Build and run the simulator benchmark, pinned to one CPU.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <lan-read|lan-crowd|chaos-soak> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own, with path dependencies
on `crates/`) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the benchmark binary pinned to the highest
CPU this process may use. It prints an environment line, the binary's
report, and as the last line the binary's JSON result. It exits non-zero
without a result if the build, the run or the result check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lan-read", "lan-crowd", "chaos-soak")
RUN_TIMEOUT_S = 170
# What the result hash covers: every source and manifest the binary is built from.
SOURCE_DIRS = ("crates", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "target")
            paths += [os.path.join(dirpath, f) for f in filenames if f.endswith((".rs", ".toml", ".lock", ".py"))]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def command_output(cmd):
    # Keep git from searching above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    t0 = time.monotonic()
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")
    build_s = time.monotonic() - t0

    cpu = max(os.sched_getaffinity(0))
    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"benchmark exited {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")

    print(
        f"env nproc={os.cpu_count()} pinned_cpu={cpu} rustc=\"{command_output(['rustc', '--version'])}\" "
        f"git_rev={command_output(['git', 'rev-parse', '--short=12', 'HEAD'])} "
        f"source_sha256={source_digest()} build_s={build_s:.1f}"
    )
    print("\n".join(lines))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
