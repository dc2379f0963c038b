"""Self-tests for the independent checkers in ``oracles.py``.

Each checker must pass an unmodified compile and catch a deliberately
broken one: a dropped CNOT, a flipped rotation angle, a wrong final
layout and a gate moved off the coupling graph.  Run from the
repository root with either of::

    python3 perfbench/oracle_selftest.py
    PYTHONPATH=src python3 -m pytest -q perfbench/oracle_selftest.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as O  # noqa: E402

DEVICE = "grid:3x4"
TOLERANCE = 1e-6


def _compile(bench="chem:LiH", compiler="tetris", calibration=None):
    from repro.hardware.calibration import resolve_calibration
    from repro.hardware.families import resolve_device
    from repro.pipeline.registry import build_pipeline
    from repro.workloads import workload_blocks

    blocks = workload_blocks(bench, "JW", "smoke")[:12]
    n = blocks[0].num_qubits
    coupling = resolve_device(DEVICE, n)
    cal = resolve_calibration(DEVICE, 0, n) if calibration is not None else None
    run = build_pipeline(compiler).run(blocks, coupling, calibration=cal)
    result = run.result
    return {
        "blocks": blocks,
        "n": n,
        "coupling": coupling,
        "calibration": cal,
        "gates": O.gate_triples(result.circuit),
        "rotations": O.ordered_rotations(
            blocks,
            result.extra.get("block_order"),
            result.extra.get("string_orders"),
        ),
        "initial": O.layout_list(result.initial_layout, n),
        "final": O.layout_list(result.final_layout, n),
        "metrics": run.metrics(),
    }


def _overlap(cell, gates=None, rotations=None, final=None):
    return O.equivalence_overlap(
        cell["gates"] if gates is None else gates,
        cell["rotations"] if rotations is None else rotations,
        cell["n"],
        cell["initial"],
        cell["final"] if final is None else final,
    )


def _first(gates, name):
    return next(i for i, gate in enumerate(gates) if gate[0] == name)


def test_unmodified_compiles_pass_every_check():
    for compiler in ("tetris", "paulihedral", "tket-like"):
        cell = _compile(compiler=compiler)
        assert _overlap(cell) > 1 - TOLERANCE, compiler
        assert not O.compliance_violations(cell["gates"], cell["coupling"].edges)
        counted = O.recount(cell["gates"])
        assert not O.metrics_mismatch(vars(cell["metrics"]), counted), compiler


def test_dropped_cnot_is_caught():
    cell = _compile()
    gates = list(cell["gates"])
    del gates[_first(gates, "cx")]
    assert _overlap(cell, gates=gates) < 1 - TOLERANCE
    counted = O.recount(gates)
    assert O.metrics_mismatch(vars(cell["metrics"]), counted)


def test_flipped_angle_sign_is_caught():
    cell = _compile()
    gates = list(cell["gates"])
    index = next(
        i for i, (name, _q, params) in enumerate(gates)
        if name == "rz" and abs(params[0]) > 1e-3
    )
    name, qubits, params = gates[index]
    gates[index] = (name, qubits, (-params[0],))
    assert _overlap(cell, gates=gates) < 1 - TOLERANCE
    rotations = [(ops, -angle) for ops, angle in cell["rotations"]]
    assert _overlap(cell, rotations=rotations) < 1 - TOLERANCE


def test_wrong_final_layout_is_caught():
    cell = _compile()
    final = list(cell["final"])
    final[0], final[1] = final[1], final[0]
    assert _overlap(cell, final=final) < 1 - TOLERANCE


def test_off_edge_gate_is_caught():
    cell = _compile()
    edges = cell["coupling"].edges
    gates = list(cell["gates"])
    index = _first(gates, "cx")
    a = gates[index][1][0]
    far = next(
        q for q in range(cell["coupling"].num_qubits)
        if q != a and (min(a, q), max(a, q)) not in edges
    )
    gates[index] = ("cx", (a, far), ())
    assert O.compliance_violations(gates, edges)
    gates[index] = ("swap", (a, far), ())
    assert O.compliance_violations(gates, edges)


def test_fidelity_recomputation_matches_and_catches_a_dropped_gate():
    from repro.service.jobs import CompileJob, run_job

    job = CompileJob(
        bench="chem:LiH", compiler="tetris:noise-aware", device=DEVICE,
        scale="smoke", blocks=12,
    )
    result = run_job(job)
    cell = _compile(compiler="tetris:noise-aware", calibration=0)
    recomputed = O.recompute_fidelity(cell["gates"], cell["calibration"])
    assert 0.0 < result.estimated_fidelity <= 1.0
    assert abs(recomputed - result.estimated_fidelity) <= 1e-9 * recomputed
    gates = list(cell["gates"])
    del gates[_first(gates, "cx")]
    dropped = O.recompute_fidelity(gates, cell["calibration"])
    assert abs(dropped - result.estimated_fidelity) > 1e-9 * recomputed


def test_swap_counts_as_three_cnots_and_three_layers():
    gates = [("h", (0,), ()), ("swap", (0, 1), ()), ("rz", (1,), (0.5,))]
    counted = O.recount(gates)
    assert counted["cnot_gates"] == 3
    assert counted["depth"] == 5
    assert counted["duration"] == 160 + 3 * 1800


def test_reference_rotation_matches_a_one_string_circuit():
    # exp(-i a/2 ZZ) as CX, RZ(a), CX on two wires with a trivial layout.
    class _Block:
        strings = (type("S", (), {"ops": "ZZ"})(),)
        weights = (1.0,)
        angle = 0.7

    gates = [("cx", (0, 1), ()), ("rz", (1,), (0.7,)), ("cx", (0, 1), ())]
    rotations = O.ordered_rotations([_Block()])
    assert O.equivalence_overlap(gates, rotations, 2, [0, 1], [0, 1]) > 1 - 1e-12
    flipped = [(ops, -angle) for ops, angle in rotations]
    assert O.equivalence_overlap(gates, flipped, 2, [0, 1], [0, 1]) < 1 - TOLERANCE


def main() -> int:
    tests = [
        (name, fn) for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
