"""Timed calls into each layer's public functions, and the per-layer table.

:func:`compile_cell` is the benchmark's in-process compile: the same
steps ``repro.service.run_job`` takes (workload build, device and
calibration, pipeline, metrics, fidelity), each timed on its own so a
traced run can say which layer moved ``compile_s``.  It also keeps the
compiled circuit, which the independent checks need.

Every per-layer metric is reported by every traced run; a layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from typing import Dict, Mapping, Optional, Sequence

from common import OUT_DIR, LayerClock

PASS_NAMES = (
    "lower-ir", "layout", "synth-tetris", "route", "cancel", "consolidate-1q",
    "decompose-swaps", "order-similarity", "synth-single-leaf",
    "synth-spanning-tree", "synth-chain", "cancel-logical", "synth-qaoa-reuse",
    "synth-2qan", "extract-edges", "select-qubits", "layout-noise", "route-noise",
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("workloads.build_s", "s"),
        ("workloads.memo_hit_ratio", "ratio"),
        ("hardware.device_s", "s"),
        ("hardware.calibration_s", "s"),
    ]
    + [(f"pass.{name}_s", "s") for name in PASS_NAMES]
    + [
        ("synth.bridge_cnots", "count"),
        ("route.swaps_added", "count"),
        ("cancel.cnots_removed", "count"),
        ("circuit.measure_s", "s"),
        ("job.dark_s", "s"),
        ("template.bind_ms", "ms"),
        ("template.measure_ms", "ms"),
        ("service.job_hash_us", "us"),
        ("service.cache_put_ms", "ms"),
        ("service.cache_get_ms", "ms"),
        ("service.result_encode_us", "us"),
        ("service.result_decode_us", "us"),
        ("cache.warm_hit_ratio", "ratio"),
        ("serve.roundtrip_floor_ms", "ms"),
        ("serve.client_codec_ms", "ms"),
        ("serve.hot_hit_ratio", "ratio"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.bind_server_ms", "ms"),
        ("serve.jobs_executed_fresh", "count"),
        ("serve.jobs_executed_hot", "count"),
        ("serve.jobs_executed_bind", "count"),
        ("host.ref_loop_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class CellOutput:
    """One compiled cell: the service-shaped result plus what checks need."""

    def __init__(self, job, result, run, blocks, coupling, calibration, seconds):
        self.job = job
        self.result = result          # repro.service.jobs.JobResult
        self.run = run                # repro.pipeline.manager.PipelineRun
        self.blocks = blocks          # the blocks compiled (parametric or not)
        self.coupling = coupling
        self.calibration = calibration
        self.seconds = seconds


def compile_cell(
    job, clock: Optional[LayerClock] = None, profile: bool = False,
    memo: Optional[Dict] = None,
) -> CellOutput:
    """Compile ``job`` in-process through the layers ``run_job`` uses.

    ``memo``, when given, keeps built workloads by ``(bench, encoder,
    scale)`` across calls; without it every call builds its workload.
    """
    from repro.circuit.template import CompiledTemplate
    from repro.hardware.calibration import resolve_calibration
    from repro.hardware.families import resolve_device
    from repro.pipeline.registry import build_pipeline
    from repro.service.jobs import JobResult
    from repro.service.templates import parametrize_blocks
    from repro.sim.noise import calibrated_fidelity
    from repro.workloads import workload_blocks

    t0 = time.perf_counter()
    key = (job.bench, job.encoder, job.scale)
    if memo is not None and key in memo:
        blocks = memo[key]
    else:
        blocks = workload_blocks(*key)
        if memo is not None:
            memo[key] = blocks
    if job.blocks > 0:
        blocks = blocks[: job.blocks]
    t1 = time.perf_counter()
    num_logical = blocks[0].num_qubits
    coupling = resolve_device(job.device, num_logical)
    t2 = time.perf_counter()
    calibration = None
    if job.calibration is not None:
        calibration = resolve_calibration(job.device, job.calibration, num_logical)
    t3 = time.perf_counter()
    manager = build_pipeline(
        job.compiler, optimization_level=job.optimization_level,
        params=dict(job.params),
    )
    template = None
    if job.parametric:
        blocks, parameters, defaults = parametrize_blocks(blocks)
    run = manager.run(blocks, coupling, profile=profile, calibration=calibration)
    if job.parametric:
        template = CompiledTemplate(
            run.result.circuit, parameters=parameters, default_angles=defaults
        )
    t4 = time.perf_counter()
    metrics = run.metrics()
    t5 = time.perf_counter()
    fidelity = None
    if calibration is not None:
        fidelity = calibrated_fidelity(run.result.circuit, calibration)
    t6 = time.perf_counter()
    result = JobResult(
        job=job, metrics=metrics, optimize_seconds=run.optimize_seconds,
        template=template, estimated_fidelity=fidelity,
    )
    if clock is not None:
        clock.add("workloads.build_s", t1 - t0)
        clock.add("hardware.device_s", t2 - t1)
        clock.add("hardware.calibration_s", t3 - t2 + t6 - t5)
        clock.add("circuit.measure_s", t5 - t4)
        add_pipeline_layers(clock, run.profile, metrics)
    return CellOutput(job, result, run, blocks, coupling, calibration, t6 - t0)


def add_pipeline_layers(clock: LayerClock, profile, metrics) -> None:
    """Per-pass seconds and the counts that explain ``cnot_total``."""
    if metrics is not None:
        clock.count("synth.bridge_cnots", metrics.bridge_cnots)
        clock.count("route.swaps_added", metrics.swap_cnots // 3)
    if profile is None:
        return
    for row in profile.passes:
        clock.add(f"pass.{row.name}_s", row.seconds)
        if row.name in ("cancel", "cancel-logical"):
            clock.count("cancel.cnots_removed", row.cnot_before - row.cnot_after)


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def service_probe(clock: LayerClock, results: Sequence, work_dir: str, repeats: int = 5) -> None:
    """Median cost of the service layer's per-result steps.

    Hashing, JSON encode/decode and a cache put/get into a scratch cache
    directory, each over ``results`` (``JobResult`` objects).
    """
    from repro.service.cache import ResultCache
    from repro.service.jobs import JobResult

    cache = ResultCache(tempfile.mkdtemp(prefix="probe-", dir=work_dir))
    hash_s, encode_s, decode_s, put_s, get_s = [], [], [], [], []
    for result in results:
        text = result.to_json()
        hash_s.append(_median_time(result.job.content_hash, repeats))
        encode_s.append(_median_time(result.to_json, repeats))
        decode_s.append(_median_time(lambda: JobResult.from_json(text), repeats))
        put_s.append(_median_time(lambda: cache.put(result), 1))
        get_s.append(_median_time(lambda: cache.get(result.job), repeats))
    clock.add("service.job_hash_us", statistics.median(hash_s) * 1e6)
    clock.add("service.result_encode_us", statistics.median(encode_s) * 1e6)
    clock.add("service.result_decode_us", statistics.median(decode_s) * 1e6)
    clock.add("service.cache_put_ms", statistics.median(put_s) * 1e3)
    clock.add("service.cache_get_ms", statistics.median(get_s) * 1e3)


def template_probe(clock: LayerClock, template, theta, repeats: int = 20) -> None:
    """In-process ``CompiledTemplate.bind`` and the measure of its output."""
    from repro.circuit.metrics import measure_circuit

    bound = template.bind(theta)
    clock.add("template.bind_ms", _median_time(lambda: template.bind(theta), repeats) * 1e3)
    clock.add("template.measure_ms", _median_time(lambda: measure_circuit(bound), repeats) * 1e3)


def trace_layers(clock: LayerClock, spans, builds: bool = False) -> None:
    """Self time of ``job:run`` spans (per-job work outside any pass) and,
    with ``builds``, the ``workload:build`` spans' total."""
    children: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id] = children.get(sp.parent_id, 0.0) + sp.duration
    dark = sum(
        sp.duration - children.get(sp.span_id, 0.0)
        for sp in spans if sp.name == "job:run"
    )
    clock.add("job.dark_s", dark)
    if builds:
        clock.add(
            "workloads.build_s",
            sum(sp.duration for sp in spans if sp.name == "workload:build"),
        )


def memo_ratio(clock: LayerClock, snapshot: Mapping) -> None:
    """Workload-memo hit ratio from a ``METRICS.snapshot()``."""
    counters = snapshot.get("counters", {})
    hits = counters.get("workload.memo_hits", 0)
    misses = counters.get("workload.memo_misses", 0)
    clock.add("workloads.memo_hit_ratio", hits / (hits + misses) if hits + misses else 0.0)


def layer_values(clocks: Sequence[Mapping]) -> Dict[str, float]:
    """Every per-layer metric: summed seconds/counts over ``clocks``."""
    values = {name: 0.0 for name, _unit in PER_LAYER}
    for clock in clocks:
        for part in ("seconds", "counts"):
            for name, value in clock.get(part, {}).items():
                if name not in values:
                    raise KeyError(f"unknown per-layer metric {name!r}")
                values[name] += value
    return values


def render_table(values: Mapping[str, float], title: str) -> str:
    units = dict(PER_LAYER)
    width = max(len(name) for name in units)
    lines = [title]
    for name, _unit in PER_LAYER:
        lines.append(f"  {name:<{width}}  {values[name]:>14.6f} {units[name]}")
    return "\n".join(lines)


def write_trace(workload: str, seed: int, spans) -> str:
    """Write the Perfetto trace; return a self-time leaderboard."""
    from repro.obs import self_time_leaderboard, write_chrome_trace

    os.makedirs(OUT_DIR, exist_ok=True)
    write_chrome_trace(os.path.join(OUT_DIR, f"{workload}-seed{seed}.trace.json"), spans)
    return self_time_leaderboard(spans, top=15)


def write_table(workload: str, seed: int, values: Mapping[str, float], extra: str) -> str:
    """Write the per-layer table (plus ``extra`` text); return its path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}.layers.txt")
    with open(path, "w") as handle:
        handle.write(render_table(values, f"per-layer table: {workload}, seed {seed}"))
        handle.write("\n\n" + extra + "\n")
    return path
