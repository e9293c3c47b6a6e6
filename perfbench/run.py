#!/usr/bin/env python3
"""Build and run the Owan benchmark for one workload.

    python3 perfbench/run.py --workload isp40-paper --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark binary is built from source
into .bench_build/ (Go build cache included, so nothing is written outside
the checkout), then run; its last output line is the JSON result. The exit
code is the binary's: nonzero when the build fails, a run fails, or an
output check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: no go toolchain on PATH")
    env = dict(os.environ)
    for name in ("gocache", "gopath", "home", "tmp"):
        os.makedirs(os.path.join(BUILD, name), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    proc = subprocess.run([go, "build", "-o", exe, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    exe = build()
    cmd = [exe, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    # A session of its own, so a timeout also stops the setup-timing
    # processes the binary starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
