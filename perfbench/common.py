"""Shared plumbing: paths, pinned environment, statistics, probes.

The benchmark runs from the root of a source checkout and builds nothing:
the program under test is ``src/repro``, imported from source.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Mapping, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: ``setup_s`` is the median of at least this many set-ups per run.
SETUP_SAMPLES = 5
#: Every run ends within this many seconds, or fails.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run or an output check failed."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def make_work_dir(tag: str) -> str:
    """A fresh scratch directory inside the benchmark's own tree."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def pinned_env(work_dir: str) -> Dict[str, str]:
    """The environment every process of one run sees.

    Every ``REPRO_*`` knob the caller may have set is dropped, then the
    cache, trace and serve knobs are pinned to this run's scratch
    directory, so nothing is read from or written to the user's default
    cache and no tracing is switched on from outside.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "REPRO_CACHE": "on",
        "REPRO_CACHE_DIR": os.path.join(work_dir, "cache"),
        "REPRO_TRACE": "off",
        "REPRO_TRACE_DIR": os.path.join(work_dir, "trace"),
        "REPRO_JOBS": "1",
        "REPRO_SERVE_HOST": "127.0.0.1",
        "REPRO_SERVE_PORT": "0",
        "REPRO_SERVE_WORKERS": "1",
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def apply_env(env: Mapping[str, str]) -> None:
    """Make ``env`` this process's environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(env)


def rng_for(seed: int, *labels) -> random.Random:
    """A ``random.Random`` derived from the run seed and ``labels``."""
    return random.Random("/".join([str(seed), *map(str, labels)]))


def weighted_sequence(items: Sequence, counts: Sequence[int], rng: random.Random) -> List:
    """Each item repeated its exact count, in a seeded order."""
    out = [item for item, count in zip(items, counts) for _ in range(count)]
    rng.shuffle(out)
    return out


def dominant_counts(n_items: int, total: int, share: float = 0.6) -> List[int]:
    """``share`` of ``total`` on item 0, the rest spread evenly.

    The workloads put their smallest, fastest item first and keep the
    items' latency classes apart, so p10 falls well inside item 0's
    samples and p95 inside the slowest item's, not on a seam between
    reply sizes.
    """
    if n_items == 1:
        return [total]
    head = int(round(total * share))
    rest = total - head
    base, extra = divmod(rest, n_items - 1)
    return [head] + [base + (1 if i < extra else 0) for i in range(n_items - 1)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by nearest rank, if ``TAIL_SAMPLES`` lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < TAIL_SAMPLES:
        raise BenchError(
            f"p{q * 100:g} needs {TAIL_SAMPLES} samples beyond it; only {n} samples"
        )
    return float(ordered[rank - 1])


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: ``probe()`` time on the host the bounds were set on (2-core x86), in
#: its fast state.  Timings are reported at this host speed.
PROBE_NOMINAL_S = 0.0075


def probe() -> float:
    """A fixed pure-Python loop of about 8 ms: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return time.perf_counter() - start


class HostScale:
    """Rescales timings to the nominal host speed.

    On a shared machine the host alternates between a fast and a slow
    state in episodes of seconds to minutes, which moves every wall-clock
    timing by up to a third from run to run.  Each group of timings is
    bracketed by two probes and multiplied by
    ``PROBE_NOMINAL_S / mean(probes)``; groups are short (one compile,
    one slice of reads), so both probes see the state the work saw.
    The probe readings are kept: their median is ``host.ref_loop_s``.
    """

    def __init__(self):
        self.probes: List[float] = []
        self._start = 0.0

    def begin(self) -> None:
        self._start = probe()

    def end(self, raw: Sequence[float]) -> List[float]:
        stop = probe()
        self.probes += [self._start, stop]
        factor = PROBE_NOMINAL_S / ((self._start + stop) / 2)
        return [value * factor for value in raw]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return vm_hwm_mb(os.getpid())


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2:].split()[0] != "Z"


def run_child(workload: str, spec: Mapping, env: Mapping[str, str], timeout: float) -> Dict:
    """Run one round in a fresh interpreter; return its JSON result.

    ``spec["spawn_wall"]`` carries the spawn time so the child can
    report its own set-up time, which is scaled by a probe taken here
    before the spawn and one the child takes once set up.
    """
    if timeout <= 0:
        raise BenchError(f"{workload} ran out of its {RUN_DEADLINE_S:.0f}s budget")
    before = probe()
    spec = dict(spec, spawn_wall=time.time())
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, json.dumps(spec)]
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=dict(env),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} round timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} round failed (exit {proc.returncode}):\n{err[-4000:]}"
        )
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"{workload} round printed nothing:\n{err[-4000:]}")
    report = json.loads(lines[-1])
    after = report.pop("setup_probe")
    report["setup_s"] *= PROBE_NOMINAL_S / ((before + after) / 2)
    report["probes"] = report.get("probes", []) + [before, after]
    return report


def rounds_for(seconds: int, nominal_round_s: float) -> int:
    """How many whole rounds fit in ``seconds`` at the nominal round length."""
    return max(1, int(round(seconds / nominal_round_s)))


def child_rounds(module, seed: int, seconds: int, trace: bool, env, work_dir: str):
    """Run a child-process workload's rounds; return ``(rounds, setups)``.

    Each round gets its own cache directory.  Traced runs make exactly
    two rounds, the second traced, so the overhead of tracing is their
    difference.  Set-up is sampled at least :data:`SETUP_SAMPLES` times,
    with set-up-only children where the run has fewer rounds.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    count = 2 if trace else rounds_for(seconds, module.NOMINAL_ROUND_S)
    rounds = []
    for index in range(count):
        round_dir = os.path.join(work_dir, f"round{index}")
        os.makedirs(round_dir)
        spec = {
            "seed": seed,
            "round": index,
            "trace": trace and index == count - 1,
            "hits": math.ceil(module.HITS_PER_RUN / count),
            "binds": math.ceil(module.BINDS_PER_RUN / count),
            "work_dir": round_dir,
            "check": index == 0,
        }
        round_env = dict(env, REPRO_CACHE_DIR=os.path.join(round_dir, "cache"))
        rounds.append(run_child(module.NAME, spec, round_env, deadline - time.monotonic()))
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:
        only = run_child(module.NAME, {"setup_only": True}, env, deadline - time.monotonic())
        setups.append(only["setup_s"])
    return rounds, setups


class LayerClock:
    """Per-layer seconds and counts gathered from the benchmark's own calls."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}


class ReadChecker:
    """Checks cached reads against the results they must equal.

    The first read of each job is compared as full JSON, later ones by
    metrics and fidelity, which is what a re-read could corrupt.
    """

    def __init__(self):
        self.bad_reads: List[str] = []
        self.checked = set()

    def check(self, result, expected: Mapping) -> None:
        job, want = result.job, expected[result.job]
        if not result.cached:
            wrong = True
        elif job not in self.checked:
            wrong = result.to_json() != want.to_json()
        else:
            wrong = (result.metrics, result.estimated_fidelity) != (
                want.metrics, want.estimated_fidelity
            )
        if wrong:
            self.bad_reads.append(job.label())
        self.checked.add(job)


def split_evenly(total: int, parts: int) -> List[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class WarmSlices:
    """Cached reads and template binds, run in slices between compiles.

    Host speed on a shared machine drifts over seconds (see
    :class:`HostScale`), so cheap operations timed in one short burst
    would each sample a single moment.  Spreading them in slices between the round's compiles
    makes every timing average over the same stretch of the run.  In
    each slice 60% of the reads go to the first readable cell and the
    rest evenly to the other cells compiled so far; the first template
    takes 60% of the binds.  Each read is checked against the expected
    result right after it is timed and then dropped, so the benchmark
    holds no growing heap that would lengthen the program's collections.
    """

    def __init__(self, seed: int, name: str, index: int, hits: int, binds: int, slices: int):
        self.hits_per_slice = split_evenly(hits, slices)
        self.binds_per_slice = split_evenly(binds, slices)
        self.hit_rng = rng_for(seed, name, index, "hits")
        self.theta_rng = rng_for(seed, name, index, "theta")
        self.slice = 0
        self.hit_ms: List[float] = []
        self.bind_ms: List[float] = []
        self.reads = ReadChecker()
        self.bound: Dict[int, object] = {}
        self.first_theta: Optional[List[float]] = None
        self.scale = HostScale()

    def run(self, readable: Sequence, read, templates: Sequence, expected: Mapping) -> None:
        """One slice: reads of ``readable`` through ``read(job)``, checked
        against ``expected[job]``, then binds."""
        count = self.hits_per_slice[self.slice]
        sequence = weighted_sequence(
            readable, dominant_counts(len(readable), count), self.hit_rng
        )
        raw, results = [], []
        self.scale.begin()
        for job in sequence:
            start = time.perf_counter()
            results.append(read(job))
            raw.append((time.perf_counter() - start) * 1e3)
        self.hit_ms += self.scale.end(raw)
        for result in results:
            self.reads.check(result, expected)
        del results
        count = self.binds_per_slice[self.slice]
        plan = weighted_sequence(
            list(range(len(templates))), dominant_counts(len(templates), count),
            self.theta_rng,
        )
        requests = [
            (k, [self.theta_rng.uniform(-math.pi, math.pi)
                 for _ in range(templates[k].num_parameters)])
            for k in plan
        ]
        raw = []
        self.scale.begin()
        for k, theta in requests:
            start = time.perf_counter()
            self.bound[k] = templates[k].bind(theta)
            raw.append((time.perf_counter() - start) * 1e3)
        self.bind_ms += self.scale.end(raw)
        self.first_theta = self.first_theta or next(
            (theta for k, theta in requests if k == 0), None
        )
        self.slice += 1
