"""The cells each workload compiles.

Cell lists and their order are fixed: the seed changes only the sequence
of cache reads and the bind angles, so
``cnot_total``/``depth_total``/``duration_total`` are exact for every
seed.  A cell is a ``repro.service.CompileJob`` spec.
"""

from __future__ import annotations

from typing import Dict, List

# -- compile-full: the compiler at the paper's scale ------------------------

#: Compiled in this order.  The template comes first; the first readable
#: cell, whose result is the smallest and the fastest to read, takes most
#: cache reads (``WarmSlices``), and the largest result comes next so it
#: gets a large share too: p10 then falls inside the first cell's reads
#: and p99 inside the largest's.
COMPILE_FULL = [
    dict(bench="chem:LiH", compiler="tetris", device="heavy-hex:ibm-65",
         parametric=True),
    dict(bench="qaoa:Rand-20", compiler="tetris-qaoa", device="heavy-hex:ibm-65"),
    dict(bench="ucc:UCC-20", compiler="tetris", device="heavy-hex:ibm-65"),
    dict(bench="chem:BeH2", compiler="tetris", device="sycamore"),
    dict(bench="chem:CH4", compiler="paulihedral", device="heavy-hex:ibm-65"),
    dict(bench="chem:LiH", compiler="tetris:noise-aware+select=20",
         device="heavy-hex:ibm-65"),
    dict(bench="ucc:UCC-15", compiler="max-cancel", device="sycamore"),
]
for _cell in COMPILE_FULL:
    _cell["scale"] = "full"


# -- sweep-small: what reproducing the paper's grid costs --------------------

_CHEM_PIPELINES = ("tetris", "paulihedral", "max-cancel", "tket-like", "pcoast-like")
_QAOA_PIPELINES = ("tetris-qaoa", "2qan-like", "tetris")
_NOISE_AWARE = ("tetris:noise-aware", "tetris:noise-aware+select=20")


def _sweep_small() -> List[Dict]:
    cells: List[Dict] = []

    def add(bench, compilers, devices, **extra):
        for compiler in compilers:
            for device in devices:
                cells.append(dict(bench=bench, compiler=compiler, device=device, **extra))

    # Templates first, then the cell most single reads go to (WarmSlices):
    # a QAOA result, the smallest and fastest to read.
    add("chem:LiH", ("tetris",), ("grid:3x4",), parametric=True)
    add("qaoa:Rand-16", ("tetris-qaoa",), ("grid:4x4",), parametric=True)
    add("qaoa:Rand-16", _QAOA_PIPELINES, ("grid:4x4", "heavy-hex:ibm-65", "sycamore"))
    add("chem:LiH", _CHEM_PIPELINES, ("grid:3x4", "heavy-hex:ibm-65", "sycamore"))
    add("chem:LiH", _NOISE_AWARE, ("heavy-hex:ibm-65", "sycamore"))
    add("chem:LiH", ("tetris:noise-aware",), ("grid:3x4",))
    add("ucc:UCC-10", _CHEM_PIPELINES, ("grid:3x4",))
    add("qaoa:REG3-16", ("tetris-qaoa", "2qan-like"), ("grid:4x4",))
    add("ucc:UCC-10", ("tetris:noise-aware",), ("heavy-hex:ibm-65", "grid:3x4"))
    add("ucc:UCC-10", ("tetris:noise-aware+select=20",), ("sycamore",))
    for cell in cells:
        cell["scale"] = "small"
    return cells


SWEEP_SMALL = _sweep_small()

#: Cells on devices this small get the independent statevector check.
STATEVECTOR_MAX_DEVICE = 16


# -- serve-loop: the request path an optimizer loop sees ---------------------

#: Compiled during warm-up, then re-requested in the hot phase.  The first
#: result, the smallest reply, takes 60% of the hot requests (see
#: ``common.dominant_counts``), so p10 falls inside its requests; the
#: largest reply (BeH2 tetris, which carries its block and string orders)
#: holds p99.
SERVE_RESIDENT = [
    dict(bench="chem:LiH", compiler="max-cancel", device="sycamore"),
    dict(bench="chem:BeH2", compiler="paulihedral", device="heavy-hex:ibm-65"),
    dict(bench="chem:LiH", compiler="tetris:noise-aware", device="heavy-hex:ibm-65"),
    dict(bench="chem:BeH2", compiler="tetris", device="heavy-hex:ibm-65"),
]
for _cell in SERVE_RESIDENT:
    _cell["scale"] = "full"

#: Bound in the bind phase; the first takes 60% of the binds.  The second
#: is far smaller, so the two latency classes do not overlap: p10 falls
#: inside the small one's binds and p95 inside the first's.  The first has
#: at most 12 qubits, so its bound circuit gets the statevector check.
SERVE_TEMPLATES = [
    dict(bench="chem:LiH", compiler="tetris", device="grid:3x4", scale="smoke",
         blocks=24),
    dict(bench="qaoa:Rand-16", compiler="tetris-qaoa", device="grid:4x4", scale="smoke"),
]

#: Distinct misses for the fresh phase, always in this order.  LiH's
#: blocks are already in the worker's memo from the warm-up, so those
#: requests pay the pipeline alone; the first UCC-10 request also builds
#: UCC-10.
SERVE_FRESH = [
    dict(bench=bench, compiler=compiler, device=device, scale="smoke")
    for bench, compiler, device in (
        ("chem:LiH", "paulihedral", "grid:3x4"),
        ("chem:LiH", "max-cancel", "heavy-hex:ibm-65"),
        ("chem:LiH", "tket-like", "sycamore"),
        ("chem:LiH", "pcoast-like", "grid:3x4"),
        ("chem:LiH", "tetris", "sycamore"),
        ("chem:LiH", "tetris:noise-aware", "sycamore"),
        ("chem:LiH", "tetris:noise-aware+select=20", "heavy-hex:ibm-65"),
        ("chem:LiH", "paulihedral", "heavy-hex:ibm-65"),
        ("ucc:UCC-10", "tetris", "grid:3x4"),
        ("ucc:UCC-10", "max-cancel", "sycamore"),
        ("ucc:UCC-10", "tket-like", "heavy-hex:ibm-65"),
        ("ucc:UCC-10", "pcoast-like", "sycamore"),
        ("ucc:UCC-10", "tetris", "heavy-hex:ibm-65"),
        ("ucc:UCC-10", "paulihedral", "grid:3x4"),
        ("ucc:UCC-10", "tetris:noise-aware", "heavy-hex:ibm-65"),
        ("ucc:UCC-10", "max-cancel", "grid:3x4"),
    )
]
