"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload compile-full --seed 1 --seconds 20 --trace 0

Workloads: ``compile-full``, ``sweep-small``, ``serve-loop`` (see
README.md).  A run is a whole number of rounds sized from ``--seconds``;
each round starts fresh processes with fresh cache directories inside
``perfbench/.work``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics, writing the per-layer table and a Perfetto trace to
``perfbench/out``.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 whenever a result was printed (``correct`` says whether
the program's outputs passed the checks) and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from common import BenchError  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("cnot_total", "count"),
    ("depth_total", "count"),
    ("duration_total", "dt"),
    ("fidelity_geomean", "ratio"),
    ("peak_rss_mb", "MB"),
    ("hit_p10_ms", "ms"),
    ("hit_p95_ms", "ms"),
    ("bind_p10_ms", "ms"),
    ("bind_p95_ms", "ms"),
)


def _module(workload: str):
    if workload == "compile-full":
        import compile_full as module
    elif workload == "sweep-small":
        import sweep_small as module
    elif workload == "serve-loop":
        import serve_loop as module
    else:
        raise BenchError(f"unknown workload {workload!r}")
    return module


def summarize(rounds, setup_samples):
    """End-to-end metrics of one run from its rounds' reports."""
    first = rounds[0]
    for other in rounds[1:]:
        if other["signature"] != first["signature"]:
            raise BenchError("compiled metrics differ between rounds of one run")
    pool = lambda key: [v for r in rounds for v in r[key]]  # noqa: E731
    hits, binds = pool("hit_ms"), pool("bind_ms")
    # Each compile step at its median over the rounds, summed: a slow
    # stretch of the host in one round moves only the steps it overlapped.
    # Latencies are read at p10 and p95.  Even after host scaling a median
    # sits on the seam between the host's fast and slow states and p99 on
    # the knee where collector pauses and host spikes begin; each swung by
    # 15-26% between runs, p10 and p95 by far less.
    steps = zip(*[r["cell_s"] for r in rounds])
    return {
        "setup_s": common.median(setup_samples),
        "compile_s": sum(common.median(step) for step in steps),
        "cnot_total": first["cnot_total"],
        "depth_total": first["depth_total"],
        "duration_total": first["duration_total"],
        "fidelity_geomean": common.geomean(first["fidelities"]),
        "peak_rss_mb": common.median([r["peak_rss_mb"] for r in rounds]),
        "hit_p10_ms": common.quantile(hits, 0.10),
        "hit_p95_ms": common.quantile(hits, 0.95),
        "bind_p10_ms": common.quantile(binds, 0.10),
        "bind_p95_ms": common.quantile(binds, 0.95),
    }


def run(workload: str, seed: int, seconds: int, trace: bool):
    module = _module(workload)
    work_dir = common.make_work_dir(workload)
    try:
        env = common.pinned_env(work_dir)
        common.apply_env(env)
        rounds, setups = module.run_rounds(seed, seconds, trace, env, work_dir)
    finally:
        common.remove_work_dir(work_dir)
    errors = [e for r in rounds for e in r["errors"]]
    probes = [p for r in rounds for p in r["probes"]]
    host_probe = common.median(probes)
    probe_q = statistics.quantiles(probes, n=4)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    lines = [
        f"workload {workload}, seed {seed}, {len(rounds)} rounds, "
        f"trace {int(trace)}",
        f"host.ref_loop_s {host_probe:.5f} (probe quartiles {probe_q[0]:.5f} "
        f"{probe_q[2]:.5f}; timings are scaled to {common.PROBE_NOMINAL_S} s)",
        f"operations attempted {attempted}, failed {failed}",
    ]
    for index, report in enumerate(rounds):
        phases = ", ".join(f"{k} {v:.2f}s" for k, v in report.get("phases", {}).items())
        lines.append(f"round {index}: set-up {report['setup_s']:.2f}s, {phases}")
        lines += [f"  {note}" for note in report.get("notes", [])]
    if trace:
        import layers

        plain, traced = rounds
        values = layers.layer_values([traced["layers"]])
        values["host.ref_loop_s"] = host_probe
        values["trace.overhead_s"] = sum(traced["cell_s"]) - sum(plain["cell_s"])
        table = layers.write_table(workload, seed, values, traced.get("leaderboard", ""))
        units = dict(layers.PER_LAYER)
        lines.append(f"per-layer table written to {os.path.relpath(table, common.ROOT)}")
    else:
        values = summarize(rounds, setups)
        units = dict(END_TO_END)
    for name, value in values.items():
        lines.append(f"  {name:<28} {value:>16.6f} {units[name]}")
    for error in errors:
        lines.append(f"CHECK FAILED: {error}")
    for value in values.values():
        if not math.isfinite(value):
            raise BenchError("a metric is not a finite number")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compile-full", "sweep-small", "serve-loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_program()
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
