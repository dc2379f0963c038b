"""Workload ``serve-loop``: the daemon's request path under an optimizer loop.

One round starts ``repro serve --port 0 --workers 1`` in its own process
with a fresh cache directory, and drives it from this process through
one keep-alive ``ReproClient`` in a closed loop (one request in flight):

- set-up: daemon start, then warm-up: the resident results of
  ``cells.SERVE_RESIDENT`` and the templates of ``cells.SERVE_TEMPLATES``;
- fresh: each job of ``cells.SERVE_FRESH`` once, in a seeded order,
  every one a miss that runs on the worker pool;
- hot: a seeded sequence over the resident results, 60% on the first;
- bind: seeded angles on the resident templates, 60% on the first.

The daemon is always stopped (``/shutdown``, then terminate, then kill),
and the round fails if the daemon or any of its children outlives it.

Checks: fresh replies equal an in-process compile of the same job, whose
circuit passes the compliance walk and recounts to the served metrics;
every hot reply is served ``hot`` and equals its warm-up reply;
``jobs_executed`` stays flat through the hot and bind phases; bound
circuits keep the template's CNOT count and depth; and the first
template (at most 12 qubits) bound at a seeded angle vector, fetched as
QASM, passes the statevector check.
"""

from __future__ import annotations

import contextlib
import math
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List

import cells
import oracles as O
from common import (
    BenchError,
    HostScale,
    LayerClock,
    child_pids,
    dominant_counts,
    median,
    ReadChecker,
    pid_alive,
    rng_for,
    rounds_for,
    vm_hwm_mb,
    weighted_sequence,
)

NAME = "serve-loop"
#: Wall time of one round on a 2-core x86 host, for sizing runs.
NOMINAL_ROUND_S = 10.0
HITS_PER_RUN = 2400
BINDS_PER_RUN = 1200
START_TIMEOUT_S = 60.0
#: At least this many rounds, each a daemon set-up: ``setup_s`` is their
#: median.
ROUNDS = 3


class Daemon:
    """One ``repro serve`` process and everything it starts."""

    def __init__(self, env: Dict[str, str], work_dir: str, cpu: int):
        self.env = env
        self.cpu = cpu
        self.work_dir = work_dir
        self.log_path = os.path.join(work_dir, "serve.log")
        self.proc = None
        self.family: List[int] = []

    def start(self) -> int:
        """Spawn the daemon; return its port once it listens."""
        log = open(self.log_path, "wb")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--workers", "1", "--cache-dir", os.path.join(self.work_dir, "cache")],
                env=self.env, cwd=self.work_dir,
                stdout=subprocess.PIPE, stderr=log,
            )
            # Client, daemon and worker share one CPU, so the probes the
            # client takes see the host state the request path sees.
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        finally:
            log.close()
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if "listening on http://" in line:
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        raise BenchError(f"serve daemon did not start:\n{self.log_tail()}")

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-4000:].decode("utf-8", "replace")

    def record_family(self) -> List[int]:
        """The daemon's pid and every descendant's, remembered for stop()."""
        family, frontier = [self.proc.pid], [self.proc.pid]
        while frontier:
            found = [child for pid in frontier for child in child_pids(pid)]
            family += found
            frontier = found
        self.family = sorted(set(self.family) | set(family))
        return self.family

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(pid) for pid in self.record_family())

    def stop(self, client=None) -> List[int]:
        """Shut down by request, then terminate, then kill; return any pid
        of the daemon's family still alive afterwards."""
        if self.proc is None:
            return []
        if client is not None and self.proc.poll() is None:
            with contextlib.suppress(Exception):
                client.shutdown(drain=True)
        for action in (None, self.proc.terminate, self.proc.kill):
            if action is not None and self.proc.poll() is None:
                action()
            try:
                self.proc.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                continue
        self.proc.stdout.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(pid_alive(p) for p in self.family):
            time.sleep(0.05)
        for pid in self.family:
            if pid_alive(pid):
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.2)
        return [pid for pid in self.family if pid_alive(pid)]


def _blocks(items, size: int = 50):
    """``items`` in consecutive blocks, each timed between two probes."""
    return [items[i:i + size] for i in range(0, len(items), size)]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, (time.perf_counter() - start) * 1e3


def _executed(stats) -> int:
    return stats["server"]["requests"]["jobs_executed"]


def run_round(seed: int, index: int, hits: int, binds: int, env, round_dir: str,
              trace: bool, clock) -> Dict:
    from repro import obs
    from repro.serve import ReproClient
    from repro.service import CompileJob
    from repro.service.templates import as_parametric

    resident = [CompileJob(**cell) for cell in cells.SERVE_RESIDENT]
    templates = [CompileJob(**cell) for cell in cells.SERVE_TEMPLATES]
    fresh_jobs = [CompileJob(**cell) for cell in cells.SERVE_FRESH]
    errors: List[str] = []
    daemon = Daemon(env, round_dir, min(os.sched_getaffinity(0)))
    client = None
    scale = HostScale()
    scale.begin()
    spawn = time.perf_counter()
    try:
        client = ReproClient(port=daemon.start(), timeout=120)
        client.healthz()
        warm = {job: client.compile(job).result for job in resident}
        sizes = [client.bind(job).parameters for job in templates]
        setup_s = scale.end([time.perf_counter() - spawn])[0]
        daemon.record_family()

        session = obs.trace() if trace else contextlib.nullcontext()
        with session as tracer:
            stats0 = client.stats()
            fresh, fresh_s = [], []
            for job in fresh_jobs:
                scale.begin()
                with obs.span("bench:fresh", "bench", label=job.label()):
                    reply, ms = _timed(client.compile, job)
                fresh.append(reply)
                fresh_s += scale.end([ms / 1e3])
            stats1 = client.stats()

            plan_hot = weighted_sequence(
                list(range(len(resident))), dominant_counts(len(resident), hits),
                rng_for(seed, NAME, index, "hot"),
            )
            hit_ms, not_hot = [], 0
            checker = ReadChecker()
            for block in _blocks(plan_hot):
                raw = []
                scale.begin()
                for k in block:
                    with obs.span("bench:hot", "bench"):
                        reply, ms = _timed(client.compile, resident[k])
                    raw.append(ms)
                    not_hot += reply.served != "hot"
                    checker.check(reply.result, warm)
                    last_hot = reply
                hit_ms += scale.end(raw)
            stats2 = client.stats()

            theta_rng = rng_for(seed, NAME, index, "theta")
            plan = weighted_sequence(
                list(range(len(templates))), dominant_counts(len(templates), binds),
                theta_rng,
            )
            requests = [
                (k, [theta_rng.uniform(-math.pi, math.pi) for _ in range(sizes[k])])
                for k in plan
            ]
            bind_ms, bound = [], []
            for block in _blocks(requests):
                raw = []
                scale.begin()
                for k, theta in block:
                    with obs.span("bench:bind", "bench"):
                        reply, ms = _timed(client.bind, templates[k], theta=theta)
                    raw.append(ms)
                    bound.append((k, reply))
                bind_ms += scale.end(raw)
            stats3 = client.stats()
        peak_rss_mb = daemon.peak_rss_mb()

        # -- checks, outside the timed phases ------------------------------
        if any(reply.served != "fresh" for reply in fresh):
            errors.append("a fresh-phase job was not executed fresh")
        if _executed(stats1) - _executed(stats0) != len(fresh_jobs):
            errors.append("fresh phase did not execute one job per request")
        if not _executed(stats0) <= _executed(stats1) == _executed(stats2) == _executed(stats3):
            errors.append("jobs_executed moved during the hot or bind phase")
        if not_hot:
            errors.append(f"{not_hot} hot-phase requests were not served from the hot cache")
        errors += [f"{label}: hot reply differs from its warm-up reply"
                   for label in checker.bad_reads[:1]]
        template_objs = [
            client.compile(as_parametric(job)).result.template for job in templates
        ]
        structures = [
            O.recount(O.gate_triples(t.circuit(), numeric=False)) for t in template_objs
        ]
        for k, reply in bound:
            got = (reply.metrics["cnot"], reply.metrics["depth"])
            if reply.served != "template" or got != (structures[k]["cnot_gates"], structures[k]["depth"]):
                errors.append("a bound circuit changed the template's CNOT count or depth")
                break
        check_theta = [
            rng_for(seed, NAME, "check").uniform(-math.pi, math.pi) for _ in range(sizes[0])
        ]
        qasm = client.bind(templates[0], theta=check_theta, qasm=True).qasm

        report = {
            "setup_s": setup_s,
            "cell_s": fresh_s,
            "probes": scale.probes,
            "peak_rss_mb": peak_rss_mb,
            "hit_ms": hit_ms,
            "bind_ms": bind_ms,
            "attempted": len(fresh) + len(hit_ms) + len(bound),
            "failed": 0,
            "errors": errors,
            "fresh_results": {reply.result.job: reply.result for reply in fresh},
            "check_bind": (check_theta, qasm),
            "phases": {"fresh": sum(fresh_s), "hot": sum(hit_ms) / 1e3,
                       "bind": sum(bind_ms) / 1e3},
            "notes": [
                f"hot {job.label()}: reply {len(warm[job].to_json())} B, "
                f"median {median([ms for k, ms in zip(plan_hot, hit_ms) if k == i]):.3f} ms"
                for i, job in enumerate(resident)
            ],
        }
        if trace:
            floor = [_timed(client.healthz)[1] for _ in range(200)]
            clock.add("serve.roundtrip_floor_ms", median(floor))
            clock.add("serve.client_codec_ms", _codec_ms(last_hot))
            clock.add("serve.queue_wait_ms", median([r.queue_wait_s * 1e3 for r in fresh]))
            clock.add("serve.bind_server_ms", median([r.bind_seconds * 1e3 for _, r in bound]))
            clock.count("serve.jobs_executed_fresh", _executed(stats1) - _executed(stats0))
            clock.count("serve.jobs_executed_hot", _executed(stats2) - _executed(stats1))
            clock.count("serve.jobs_executed_bind", _executed(stats3) - _executed(stats2))
            hot0, hot2 = stats1["hot_cache"], stats2["hot_cache"]
            looked = (hot2["hits"] - hot0["hits"]) + (hot2["misses"] - hot0["misses"])
            clock.add("serve.hot_hit_ratio", (hot2["hits"] - hot0["hits"]) / looked)
            from layers import service_probe, template_probe, write_trace

            service_probe(clock, [last_hot.result] + [r.result for r in fresh[:4]],
                          round_dir)
            template_probe(clock, template_objs[0], next(t for k, t in requests if k == 0))
            report["leaderboard"] = write_trace(NAME, seed, tracer.spans)
        return report
    finally:
        leftovers = daemon.stop(client)
        if leftovers:
            raise BenchError(f"serve processes outlived the round: {leftovers}")


def _codec_ms(reply) -> float:
    """Client-side decode of one served reply: JSON parse + result build."""
    import json

    from repro.serve.protocol import ServeReply

    text = json.dumps(reply.to_payload())
    samples = []
    for _ in range(50):
        start = time.perf_counter()
        ServeReply.from_payload(json.loads(text))
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def reference_checks(report: Dict, clock, profile: bool) -> List[str]:
    """Compile every served job in-process and check the served results."""
    from repro.service import CompileJob
    from repro.service.templates import as_parametric

    from compile_full import check_cell
    from layers import compile_cell

    errors: List[str] = []
    memo: Dict = {}
    for job, result in report["fresh_results"].items():
        out = compile_cell(job, clock, profile=profile, memo=memo)
        errors += check_cell(out, result)
        if _comparable(out.result) != _comparable(result):
            errors.append(f"{job.label()}: served result differs from an in-process compile")
    theta, qasm = report["check_bind"]
    job = as_parametric(CompileJob(**cells.SERVE_TEMPLATES[0]))
    out = compile_cell(job, memo=memo)
    result = out.run.result
    n = out.blocks[0].num_qubits
    if out.coupling.num_qubits > 12:
        raise BenchError("the statevector-checked template must have at most 12 qubits")
    overlap = O.equivalence_overlap(
        O.parse_qasm(qasm),
        O.ordered_rotations(out.blocks, result.extra.get("block_order"),
                            result.extra.get("string_orders"), theta),
        n,
        O.layout_list(result.initial_layout, n),
        O.layout_list(result.final_layout, n),
    )
    if overlap <= 1 - 1e-6:
        errors.append(f"served bound circuit fails the statevector check: {overlap:.9f}")
    return errors


def _comparable(result) -> Dict:
    payload = result.to_dict()
    payload.pop("optimize_seconds", None)
    payload["metrics"].pop("compile_seconds", None)
    return payload


def run_rounds(seed, seconds, trace, env, work_dir):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    count = 2 if trace else max(ROUNDS, rounds_for(seconds, NOMINAL_ROUND_S))
    clock = LayerClock() if trace else None
    reports = []
    for index in range(count):
        round_dir = os.path.join(work_dir, f"round{index}")
        os.makedirs(round_dir)
        reports.append(run_round(
            seed, index, math.ceil(HITS_PER_RUN / count), math.ceil(BINDS_PER_RUN / count),
            env, round_dir, trace and index == count - 1, clock,
        ))
    check_start = time.perf_counter()
    errors = reference_checks(reports[0], clock, profile=trace)
    reports[0]["errors"] += errors
    reports[0]["phases"]["checks"] = time.perf_counter() - check_start

    first = reports[0]["fresh_results"]
    for report in reports[1:]:
        if {j: _comparable(r) for j, r in report["fresh_results"].items()} != {
            j: _comparable(r) for j, r in first.items()
        }:
            report["errors"].append("fresh results differ between rounds")
    results = list(first.values())
    metrics = [r.metrics for r in results]
    for report in reports:
        report.update(
            cnot_total=sum(m.cnot_gates for m in metrics),
            depth_total=sum(m.depth for m in metrics),
            duration_total=sum(m.duration for m in metrics),
            fidelities=[r.estimated_fidelity for r in results if r.estimated_fidelity is not None],
            signature=sorted(_key(r) for r in results),
        )
        del report["fresh_results"], report["check_bind"]
    if trace:
        reports[-1]["layers"] = clock.to_dict()
    return reports, [r["setup_s"] for r in reports]


def _key(result) -> str:
    payload = _comparable(result)
    return repr(sorted(payload["job"].items())) + repr(sorted(payload["metrics"].items()))
