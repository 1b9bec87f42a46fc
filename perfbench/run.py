#!/usr/bin/env python3
"""Build the system from source and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload {build,lookup,join} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It builds cmd/kbbuild, cmd/kbserve and
cmd/kbrouter from that checkout, and the benchmark's own program from
perfbench/ (a module of its own), into .bench_build/, with the Go build
cache there too. It then hands over to the untraced run (--trace 0, end-to-end
metrics) or the traced run (--trace 1, per-layer metrics). Either prints a
summary and, as its last line, one JSON object with the result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("build", "lookup", "join")


def go_build(args, cwd, env):
    # Build output goes to stderr: stdout carries only the result.
    done = subprocess.run(["go", "build", *args], cwd=cwd, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: go build {' '.join(args)} failed in {cwd}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path(__file__).resolve().parent.parent
    work = root / ".bench_build"
    bin_dir = work / "bin"
    for d in (bin_dir, work / "gotmp"):
        d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=str(work / "gocache"),
               GOMODCACHE=str(work / "gomod"),
               GOTMPDIR=str(work / "gotmp"),
               GOFLAGS="-mod=readonly -buildvcs=false",
               GOTOOLCHAIN="local",
               GOWORK="off",
               GOPROXY="off",
               CGO_ENABLED="0")
    go_build(["-o", str(bin_dir) + os.sep,
              "./cmd/kbbuild", "./cmd/kbserve", "./cmd/kbrouter"], root, env)
    prog = "traced" if args.trace else "e2e"
    go_build(["-o", str(bin_dir / prog), "./cmd/" + prog], root / "perfbench", env)

    exe = str(bin_dir / prog)
    os.execv(exe, [exe, "-workload", args.workload, "-seed", str(args.seed),
                   "-seconds", str(args.seconds), "-bin", str(bin_dir),
                   "-work", str(work)])


if __name__ == "__main__":
    main()
