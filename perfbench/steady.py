#!/usr/bin/env python3
"""Run workloads of the repository benchmark k times and report how steady each metric is.

    python3 perfbench/steady.py [--workload lookup ...] [--runs 10] [--seed0 1] [--trace 0]

Each run gets its own seed (seed0, seed0+1, ...) and the run length from
BENCHMARK.json, and checks that each result reports exactly the metrics and
units BENCHMARK.json declares. For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. An end-to-end metric is
steady when its spread is at most a third of its bound (setup_s is not
held to this). The exit status is 1 when a run fails, reports failed
operations or other metrics than declared, or a metric is not steady.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    ok = True
    for workload in args.workload or names:
        values, failed, attempted = {}, 0, 0
        for i in range(args.runs):
            seed = args.seed0 + i
            res = run_once(spec, workload, seed, args.trace)
            if res is None:
                print(f"{workload} seed {seed}: run failed", flush=True)
                ok = False
                continue
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"} or got != declared:
                print(f"{workload} seed {seed}: result does not match BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
                ok = False
            failed += res["failed"]
            attempted += res["attempted"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
        print(f"\n{workload}: {args.runs} runs, {failed} of {attempted} operations failed")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
        ok = ok and failed == 0
        for name in sorted(values):
            vals = values[name]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                steady = spread <= bound / 3
                verdict = "ok" if steady else "WIDE"
                if name == "setup_s":
                    verdict += " (not gated)"
                else:
                    ok = ok and steady
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>7} {verdict}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
