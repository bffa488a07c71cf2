#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-gnp --seed 1 --seconds 20 --trace 0

The Go build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout, with the Go build cache kept there too, so nothing is written
outside the checkout. The last line of standard output is the JSON result
printed by the command; a run whose output has no such line exits non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("pipeline-gnp", "hetero-greedy", "churn", "udp-loopback")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no process outlives this call."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    try:
        code, _ = run_group(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
                            cwd=here, env=env, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.ndjson")]
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=root, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = code == 0 and {"correct", "attempted", "failed", "metrics"} <= result.keys()
    except (ValueError, AttributeError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        print(f"perfbench: run failed (exit {code})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
