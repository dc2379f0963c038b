"""Steadiness check: run one workload k times and compare spreads to bounds.

    python3 perfbench/steady.py --workload serve-loop --runs 10 --first-seed 1

Each run uses its own seed (``first-seed`` upwards).  For every metric it
prints the median, the first and third quartile
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and, for end-to-end metrics, the bound from ``BENCHMARK.json``: a spread
above a third of the bound is marked ``WIDE``, one above the bound
``OVER``.  It also checks that every run failed the same share of its
operations.  Raw results go to ``perfbench/out/steady-<workload>.json``.
Used to set the bounds and to re-check them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None) -> int:
    spec, bounds = load_bounds()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results, walls = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, wall = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        walls.append(wall)
        print(f"seed {seed}: {wall:.1f}s, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}", flush=True)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"failed share differs between runs: {sorted(shares)}")
        ok = False
    print(f"\n{args.workload}: {args.runs} runs, wall median {statistics.median(walls):.1f}s, "
          f"max {max(walls):.1f}s")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        middle = statistics.median(values)
        spread = (q3 - q1) / middle if middle else 0.0
        bound = bounds.get(name, {}).get("bound")
        mark = ""
        if bound is not None and name != "setup_s":
            mark = "OVER" if spread > bound else ("WIDE" if spread > bound / 3 else "ok")
            ok = ok and spread <= bound
        print(f"{name:<28} {middle:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6} {mark}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w") as handle:
        json.dump({"walls": walls, "results": results}, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
