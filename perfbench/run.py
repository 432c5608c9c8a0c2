#!/usr/bin/env python3
"""Build and run the tick benchmark from the root of a checkout.

One workload:
    python3 perfbench/run.py --workload battle-12k --seed 1 --seconds 10 --trace 0

Every workload, end to end and traced, with a summary table:
    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--out perfbench/results.json]

The benchmark is an OCaml executable (perfbench/tickbench.ml) built with
dune from the checkout's own sources.  Its last line of output is the
result object; this script passes it through unchanged.  A failed build
exits with status 2 and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "tickbench.exe")
WORKLOADS = ["battle-12k", "steer-4k", "sentry-100k"]


def build():
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/tickbench.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def run_one(workload, seed, seconds, trace, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def run_all(seed, seconds, out):
    results = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            code, result = run_one(workload, seed, seconds, trace, capture=True)
            if code != 0 or result is None or not result["correct"]:
                status = 1
            results[f"{workload}/trace{trace}"] = result
    print(f"\n{'workload':<12} {'trace':>5} {'metric':<38} {'value':>16}  unit")
    for key, result in results.items():
        workload, trace = key.split("/")
        if result is None:
            print(f"{workload:<12} {trace[-1]:>5} (no result)")
            continue
        print(f"{workload:<12} {trace[-1]:>5} {'correct':<38} {str(result['correct']):>16}")
        print(f"{workload:<12} {trace[-1]:>5} {'failed_tick_share':<38} "
              f"{result['failed'] / result['attempted']:>16.6f}  ratio")
        for name, m in result["metrics"].items():
            print(f"{workload:<12} {trace[-1]:>5} {name:<38} {m['value']:>16.6f}  {m['unit']}")
    with open(out, "w") as f:
        json.dump({"seed": seed, "seconds": seconds, "results": results}, f, indent=1)
    print(f"\nwrote {out}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, both modes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=os.path.join("perfbench", "results.json"))
    args = p.parse_args()
    if not args.all and args.workload is None:
        p.error("give --workload NAME or --all")
    build()
    if args.all:
        sys.exit(run_all(args.seed, args.seconds, os.path.join(ROOT, args.out)))
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
