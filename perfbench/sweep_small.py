"""Workload ``sweep-small``: the ``small``-scale grid through ``repro.service``.

One round is one fresh interpreter with a fresh cache directory:

- cold pass: every cell of ``cells.SWEEP_SMALL``, in order, as six
  serial batches (``run_batch(max_workers=1)``, the engine behind
  ``repro.sweep``) that compile and write the cache;
- after each batch: single-cell reads (``run_batch`` on one job) of the
  cells cached so far and binds of seeded angles into the parametric
  cells' templates (``common.WarmSlices``);
- warm pass: the whole batch again, answered from the cache (checked,
  not timed).

Checks (first round): every cell is recompiled in-process outside the
timed region; its recounted CNOTs, 1Q gates, depth and duration equal
the reported metrics, it passes the compliance walk, cells on devices
of at most 16 qubits pass the statevector check, and every calibrated
cell's ``estimated_fidelity`` lies in (0, 1] and matches the
recomputation.  Every warm result comes from the cache and equals its
cold result.
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
    split_evenly,
)
from compile_full import check_cell, setup, signature  # noqa: F401 (setup)
from layers import (
    add_pipeline_layers,
    compile_cell,
    memo_ratio,
    service_probe,
    template_probe,
    trace_layers,
    write_trace,
)

NAME = "sweep-small"
#: Wall time of one round (first-round checks included) on a 2-core
#: x86 host, for sizing runs.
NOMINAL_ROUND_S = 10.0
#: The cold pass runs as this many batches, each followed by a slice of
#: single reads and binds.
SLICES = 6
HITS_PER_RUN = 2000
BINDS_PER_RUN = 1200


def run_rounds(seed, seconds, trace, env, work_dir):
    return child_rounds(sys.modules[__name__], seed, seconds, trace, env, work_dir)


def check_recompile(job, reported, memo) -> List[str]:
    """Recompile ``job`` in-process and check it independently.

    ``memo`` maps ``(bench, encoder, scale)`` to built blocks, as the
    service's per-process workload memo does.
    """
    out = compile_cell(job, memo=memo)
    errors = check_cell(out, reported)
    label = job.label()
    if out.coupling.num_qubits <= cells.STATEVECTOR_MAX_DEVICE:
        result = out.run.result
        circuit = result.circuit
        angles = None
        if job.parametric:
            angles = out.result.template.default_angles
            circuit = out.result.template.bind()
        n = out.blocks[0].num_qubits
        overlap = O.equivalence_overlap(
            O.gate_triples(circuit),
            O.ordered_rotations(
                out.blocks, result.extra.get("block_order"),
                result.extra.get("string_orders"), angles,
            ),
            n,
            O.layout_list(result.initial_layout, n),
            O.layout_list(result.final_layout, n),
        )
        if overlap <= 1 - 1e-6:
            errors.append(f"{label}: statevector overlap {overlap:.9f}")
    return errors


def round_main(spec: Dict) -> Dict:
    from repro import obs
    from repro.obs import METRICS
    from repro.service import CompileJob, run_batch

    seed, index, trace = spec["seed"], spec["round"], spec["trace"]
    jobs = [CompileJob(**cell) for cell in cells.SWEEP_SMALL]
    clock = LayerClock() if trace else None
    errors: List[str] = []
    warm = WarmSlices(seed, NAME, index, spec["hits"], spec["binds"], SLICES)
    read = lambda job: run_batch([job], strict=True)[0]  # noqa: E731

    cold, chunk_s, templates = [], [], []
    done = 0
    scale = HostScale()
    session = obs.trace() if trace else contextlib.nullcontext()
    with session as tracer:
        for size in split_evenly(len(jobs), SLICES):
            chunk = jobs[done:done + size]
            done += size
            scale.begin()
            start = time.perf_counter()
            cold += run_batch(chunk, max_workers=1, strict=True, profile=trace)
            chunk_s += scale.end([time.perf_counter() - start])
            by_job = {r.job: r for r in cold}
            templates = [r.template for r in cold if r.template is not None]
            warm.run([job for job in jobs[:done] if not job.parametric], read, templates, by_job)
    start = time.perf_counter()
    for result in run_batch(jobs, max_workers=1, strict=True):
        warm.reads.check(result, by_job)
    warm_s = time.perf_counter() - start
    memo = METRICS.snapshot()
    hit_ms, bind_ms = warm.hit_ms, warm.bind_ms
    peak_rss_mb = self_peak_rss_mb()
    phases = {"cold": sum(chunk_s), "warm": warm_s, "hits": sum(hit_ms) / 1e3,
              "binds": sum(bind_ms) / 1e3}
    check_start = time.perf_counter()

    errors += [f"{label}: warm result differs from its cold result"
               for label in warm.reads.bad_reads[:1]]
    for k, template in enumerate(templates):
        structure = O.recount(O.gate_triples(template.circuit(), numeric=False))
        counted = O.recount(O.gate_triples(warm.bound[k]))
        if (counted["cnot_gates"], counted["depth"]) != (structure["cnot_gates"], structure["depth"]):
            errors.append("bound circuit changed the template's CNOT count or depth")
    if spec["check"]:
        memo: Dict = {}
        for job in jobs:
            errors += check_recompile(job, by_job[job], memo)
    phases["checks"] = time.perf_counter() - check_start

    metrics = [by_job[job].metrics for job in jobs]
    report = {
        "cell_s": chunk_s,
        "probes": scale.probes + warm.scale.probes,
        "cnot_total": sum(m.cnot_gates for m in metrics),
        "depth_total": sum(m.depth for m in metrics),
        "duration_total": sum(m.duration for m in metrics),
        "fidelities": [by_job[j].estimated_fidelity for j in jobs if j.calibration is not None],
        "peak_rss_mb": peak_rss_mb,
        "hit_ms": hit_ms,
        "bind_ms": bind_ms,
        "attempted": 2 * len(cold) + len(hit_ms) + len(bind_ms),
        "failed": 0,
        "errors": errors,
        "signature": signature(metrics),
        "phases": phases,
    }
    if trace:
        for result in cold:
            add_pipeline_layers(clock, result.profile, result.metrics)
        trace_layers(clock, tracer.spans, builds=True)
        memo_ratio(clock, memo)
        service_probe(clock, [by_job[job] for job in jobs[:8]], spec["work_dir"])
        template_probe(clock, templates[0], warm.first_theta)
        reads = len(cold) + len(hit_ms)
        clock.add("cache.warm_hit_ratio", 1.0 - len(warm.reads.bad_reads) / reads)
        report["layers"] = clock.to_dict()
        report["leaderboard"] = write_trace(NAME, seed, tracer.spans)
    return report
