"""Workload ``compile-full``: full-scale cells, compiled serially and cold.

One round is one fresh interpreter (``child.py``) that compiles every
cell of ``cells.COMPILE_FULL``, in order, through the layer calls of
:func:`layers.compile_cell`.  After each readable cell a slice of
``common.WarmSlices`` re-reads the results cached so far through the
service (``repro.service.run_batch`` on one job) and binds seeded angles
into the full-scale parametric cell's template.

In the first round every cell passes the hardware-compliance walk, its
recounted CNOTs, 1Q gates, depth and duration equal the reported
metrics, and the noise-aware cell's ``estimated_fidelity`` equals the
independent recomputation; later rounds must reproduce the first.
"""

from __future__ import annotations

import contextlib
import sys
import time
from typing import Dict, List

import cells
import oracles as O
from common import (
    HostScale,
    LayerClock,
    child_rounds,
    self_peak_rss_mb,
    WarmSlices,
)
from layers import compile_cell, service_probe, template_probe, trace_layers, write_trace

NAME = "compile-full"
#: Wall time of one round on a 2-core x86 host, for sizing runs.
NOMINAL_ROUND_S = 7.0
HITS_PER_RUN = 2000
BINDS_PER_RUN = 2000


def run_rounds(seed, seconds, trace, env, work_dir):
    return child_rounds(sys.modules[__name__], seed, seconds, trace, env, work_dir)


def setup() -> None:
    import repro  # noqa: F401
    import repro.pipeline.registry  # noqa: F401
    import repro.service  # noqa: F401


def check_cell(out, reported=None) -> List[str]:
    """Compliance, recount and fidelity checks of one compiled cell.

    ``reported`` is the ``JobResult`` whose metrics the recount must
    equal; by default the cell's own.
    """
    reported = reported or out.result
    errors = []
    label = out.job.label()
    parametric = out.job.parametric
    gates = O.gate_triples(out.run.result.circuit, numeric=not parametric)
    bad = O.compliance_violations(gates, out.coupling.edges)
    if bad:
        errors.append(f"{label}: {len(bad)} 2Q gates off the coupling graph, first {bad[0]}")
    counted = O.recount(gates)
    errors += [f"{label}: {e}" for e in O.metrics_mismatch(vars(reported.metrics), counted)]
    if out.calibration is not None:
        fidelity = reported.estimated_fidelity
        expected = O.recompute_fidelity(gates, out.calibration)
        if not (0.0 < fidelity <= 1.0) or abs(fidelity - expected) > 1e-9 * expected:
            errors.append(f"{label}: estimated_fidelity {fidelity} != recomputed {expected}")
    return errors


def round_main(spec: Dict) -> Dict:
    from repro import obs
    from repro.service import CompileJob, run_batch
    from repro.service.cache import default_cache

    seed, index, trace = spec["seed"], spec["round"], spec["trace"]
    jobs = [CompileJob(**cell) for cell in cells.COMPILE_FULL]
    clock = LayerClock() if trace else None
    errors: List[str] = []
    cache = default_cache()
    warm = WarmSlices(seed, NAME, index, spec["hits"], spec["binds"], len(jobs) - 1)
    read = lambda job: run_batch([job], strict=True)[0]  # noqa: E731

    results, readable, templates, cell_s = {}, [], [], []
    check_s = 0.0
    scale = HostScale()
    session = obs.trace() if trace else contextlib.nullcontext()
    with session as tracer:
        for job in jobs:
            scale.begin()
            out = compile_cell(job, clock, profile=trace)
            cell_s += scale.end([out.seconds])
            results[job] = out.result
            cache.put(out.result)
            start = time.perf_counter()
            if spec["check"]:
                errors += check_cell(out)
            if job.parametric:
                templates.append(out.result.template)
                structure = O.recount(O.gate_triples(out.run.result.circuit, numeric=False))
            else:
                readable.append(job)
            del out
            check_s += time.perf_counter() - start
            if readable:
                warm.run(readable, read, templates, results)
    peak_rss_mb = self_peak_rss_mb()
    hit_ms, bind_ms = warm.hit_ms, warm.bind_ms

    errors += [f"{label}: cache read differs from its compile" for label in warm.reads.bad_reads[:1]]
    counted = O.recount(O.gate_triples(warm.bound[0]))
    if (counted["cnot_gates"], counted["depth"]) != (structure["cnot_gates"], structure["depth"]):
        errors.append("bound circuit changed the template's CNOT count or depth")
    phases = {"cold": sum(cell_s), "warm": sum(hit_ms) / 1e3,
              "binds": sum(bind_ms) / 1e3, "checks": check_s}
    metrics = [results[job].metrics for job in jobs]
    report = {
        "cell_s": cell_s,
        "probes": scale.probes + warm.scale.probes,
        "cnot_total": sum(m.cnot_gates for m in metrics),
        "depth_total": sum(m.depth for m in metrics),
        "duration_total": sum(m.duration for m in metrics),
        "fidelities": [r.estimated_fidelity for r in results.values() if r.estimated_fidelity],
        "peak_rss_mb": peak_rss_mb,
        "hit_ms": hit_ms,
        "bind_ms": bind_ms,
        "attempted": len(jobs) + len(hit_ms) + len(bind_ms),
        "failed": 0,
        "errors": errors,
        "signature": signature(metrics),
        "phases": phases,
    }
    if trace:
        work_dir = spec["work_dir"]
        service_probe(clock, [results[job] for job in readable], work_dir)
        template_probe(clock, templates[0], warm.first_theta)
        trace_layers(clock, tracer.spans)
        clock.add("cache.warm_hit_ratio", 1.0 - len(warm.reads.bad_reads) / len(hit_ms))
        report["layers"] = clock.to_dict()
        report["leaderboard"] = write_trace(NAME, seed, tracer.spans)
    return report


def signature(metrics) -> List[Dict]:
    """The metric rows without wall-clock fields: equal in every round."""
    rows = []
    for m in metrics:
        row = m.as_row()
        row.pop("compile_s", None)
        rows.append(row)
    return rows
