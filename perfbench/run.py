#!/usr/bin/env python3
"""Build and run the st-lab benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fingerprint --seed 1 --seconds 24 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) and the repository's
`serve` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark. Its standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Temporary
files (the serve tenant script, span dumps, MPC journals via TMPDIR)
stay under the target directory. The exit code is the benchmark's;
a failed build exits 2 without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fingerprint", "serve-tcp", "mpc-storm")
# A run must end within 180 s; a first build may take longer.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def build(env):
    commands = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "st-serve", "--bin", "serve"],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_LIMIT_S, check=False)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def stop_group(pgid):
    """Kill the benchmark's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    workdir = os.path.join(target, "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", os.path.join(target, "release", "serve"),
           "--workdir", workdir]
    # Its own session, so the server it starts can be reaped as a group.
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        code = 1
    finally:
        stop_group(child.pid)
        child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
