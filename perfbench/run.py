#!/usr/bin/env python3
"""Build and run the two-clock benchmark from the root of a checkout.

One run of one workload; the last line of standard output is the
result object:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steadiness mode: run one workload once per tuning seed (N, N+1, ...,
N+K-1), print each metric's median, quartiles and relative spread
(interquartile range over median) next to its bound in BENCHMARK.json,
then run the held-out seed N+K once and print how far each of its
metrics lies from the tuning median:

    python3 perfbench/run.py --steady K --workload NAME [--seed N]
        [--seconds S] [--trace 0|1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark program with dune; False when that fails."""
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_args(workload, seed, seconds, trace):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def manifest_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json asks of a run: the
    end-to-end ones untraced, the per-layer ones traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(args, trace):
    """Run the program, pass its output through, and print its result
    object as the last line with exactly the manifest's metrics (the
    others stay on the program's "metric" lines). Its exit code, or 1
    when the program failed or a manifest metric is missing."""
    want = manifest_metrics(trace)
    try:
        done = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        print(f"perfbench: program exited {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    got = res["metrics"]
    missing = [n for n, unit in want.items()
               if n not in got or got[n]["unit"] != unit]
    if missing:
        print(f"perfbench: no result for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    res["metrics"] = {n: got[n] for n in want}
    print(json.dumps(res), flush=True)
    return 0


def run_captured(args):
    """Run the program and parse its result line; None on failure."""
    try:
        done = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(opts):
    seeds = list(range(opts.seed, opts.seed + opts.steady))
    held_out = opts.seed + opts.steady
    values = {}
    units = {}
    for seed in seeds:
        res = run_captured(run_args(opts.workload, seed, opts.seconds,
                                    opts.trace))
        if res is None or not res["correct"]:
            print(f"perfbench: seed {seed} failed: {res}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {res['attempted']} "
              f"failed {res['failed']} " + " ".join(
                  f"{n}={res['metrics'][n]['value']:.6g}"
                  for n in manifest_metrics(opts.trace)), flush=True)
    out = run_captured(run_args(opts.workload, held_out, opts.seconds,
                                opts.trace))
    if out is None or not out["correct"]:
        print(f"perfbench: held-out seed {held_out} failed", file=sys.stderr)
        return 1
    limit = bounds()
    print(f"workload {opts.workload}, trace {opts.trace}; tuning seeds "
          f"{seeds[0]}..{seeds[-1]}; held-out seed {held_out}")
    print(f"{'metric':44} {'unit':7} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'held-out':>14} {'off':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        held = out["metrics"].get(name, {}).get("value")
        off = (held - med) / med if med and held is not None else float("nan")
        bound = limit.get(name)
        print(f"{name:44} {units[name]:7} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6} "
              f"{held if held is not None else float('nan'):14.6g} "
              f"{off:+8.4f}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="K",
                   help="steadiness mode over K tuning seeds")
    opts = p.parse_args()
    if not build():
        return 1
    if opts.steady:
        return steady(opts)
    return run_once(run_args(opts.workload, opts.seed, opts.seconds,
                             opts.trace), opts.trace)


if __name__ == "__main__":
    sys.exit(main())
