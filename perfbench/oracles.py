"""Independent output checkers for the benchmark.

Nothing here imports ``repro.verify``, ``repro.sim`` or
``repro.circuit.metrics``: each check re-derives its answer from the
circuit's gate list and the workload's Pauli strings with its own code,
so a fault in the program's metric, simulation or verification code
cannot also hide in the check.

Circuits are read as plain ``(name, qubits, params)`` triples
(:func:`gate_triples`); Pauli strings as their ``ops`` characters.

- :func:`equivalence_overlap` — statevector check: the compiled circuit
  against the product of ``exp(-i theta/2 P)`` in the recorded block
  order, mapped through the initial and final layouts.
- :func:`compliance_violations` — every 2Q gate (SWAPs as 3 CNOTs) on a
  coupled pair.
- :func:`recount` — CNOT, 1Q, depth and duration by an own ASAP layering.
- :func:`recompute_fidelity` — the analytic mirror-circuit fidelity
  from the calibration's per-gate and readout error rates.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

GateTriple = Tuple[str, Tuple[int, ...], Tuple[float, ...]]

ONE_QUBIT = frozenset({"h", "s", "sdg", "x", "y", "z", "rx", "ry", "rz", "u3"})

#: Gate durations in dt (IBM-like: phase gates are virtual and free).
DURATIONS = {
    "h": 160, "x": 160, "y": 160, "rx": 160, "ry": 160, "u3": 320,
    "s": 0, "sdg": 0, "z": 0, "rz": 0,
    "cx": 1800, "measure": 22400, "reset": 4000,
}

#: The largest wire count the statevector check simulates.
MAX_SIM_QUBITS = 16


class OracleError(AssertionError):
    """A compiled output failed an independent check."""


def gate_triples(circuit, numeric: bool = True) -> List[GateTriple]:
    """The circuit's gates as ``(name, qubits, params)`` tuples.

    ``numeric=False`` drops the parameters, for the structural checks of
    a template whose angles are still symbolic.
    """
    if not numeric:
        return [(gate.name, tuple(gate.qubits), ()) for gate in circuit.gates]
    return [
        (gate.name, tuple(gate.qubits), tuple(float(p) for p in gate.params))
        for gate in circuit.gates
    ]


def parse_qasm(text: str) -> List[GateTriple]:
    """Gate triples from the OpenQASM 2.0 subset the program exports."""
    gates: List[GateTriple] = []
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if not line or line.startswith(("OPENQASM", "include", "qreg", "creg", "//")):
            continue
        head, _, operands = line.partition(" ")
        if head == "measure":
            operands = operands.split("->")[0]
        params: Tuple[float, ...] = ()
        if "(" in head:
            head, _, args = head.partition("(")
            params = tuple(float(a) for a in args.rstrip(")").split(","))
        qubits = tuple(
            int(term.strip()[2:-1]) for term in operands.split(",") if term.strip()
        )
        gates.append((head, qubits, params))
    return gates


def _decomposed(gates: Iterable[GateTriple]) -> Iterable[GateTriple]:
    """SWAP(a, b) as CX(a,b) CX(b,a) CX(a,b); everything else unchanged."""
    for name, qubits, params in gates:
        if name == "swap":
            a, b = qubits
            yield ("cx", (a, b), ())
            yield ("cx", (b, a), ())
            yield ("cx", (a, b), ())
        else:
            yield (name, qubits, params)


# ---------------------------------------------------------------------------
# hardware compliance
# ---------------------------------------------------------------------------

def compliance_violations(
    gates: Sequence[GateTriple], edges: Iterable[Tuple[int, int]]
) -> List[Tuple[int, str, Tuple[int, ...]]]:
    """``(index, name, qubits)`` of every 2Q gate off the coupling edges."""
    allowed = set()
    for a, b in edges:
        allowed.add((a, b))
        allowed.add((b, a))
    bad = []
    for index, (name, qubits, _params) in enumerate(_decomposed(gates)):
        if len(qubits) == 2 and name != "barrier" and qubits not in allowed:
            bad.append((index, name, qubits))
    return bad


# ---------------------------------------------------------------------------
# recount
# ---------------------------------------------------------------------------

def recount(gates: Sequence[GateTriple]) -> Dict[str, int]:
    """CNOTs, 1Q gates, depth and duration from an own ASAP layering.

    SWAPs count as three CNOTs (three layers); barriers add no layer
    but align their wires; measure/reset take one layer.
    """
    cnots = 0
    oneq = 0
    layer: Dict[int, int] = {}
    ready: Dict[int, int] = {}
    for name, qubits, _params in _decomposed(gates):
        if name == "barrier":
            if qubits:
                top = max(layer.get(q, 0) for q in qubits)
                tip = max(ready.get(q, 0) for q in qubits)
                for q in qubits:
                    layer[q] = top
                    ready[q] = tip
            continue
        if name == "cx":
            cnots += 1
        elif name in ONE_QUBIT:
            oneq += 1
        start = max(layer.get(q, 0) for q in qubits) + 1
        begin = max(ready.get(q, 0) for q in qubits)
        finish = begin + DURATIONS.get(name, 160)
        for q in qubits:
            layer[q] = start
            ready[q] = finish
    return {
        "cnot_gates": cnots,
        "one_qubit_gates": oneq,
        "depth": max(layer.values(), default=0),
        "duration": max(ready.values(), default=0),
    }


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def recompute_fidelity(gates: Sequence[GateTriple], calibration) -> float:
    """Mirror-circuit fidelity: ``(prod_g (1 - p_g))**2 * prod_m (1 - r_m)``.

    ``p_g`` is the coupler's calibrated error for a CNOT (compounded
    three times for a SWAP) and the qubit's 1Q error otherwise; each
    measure/reset contributes its qubit's readout error once.
    """
    log_gates = 0.0
    log_readout = 0.0
    edge_error = calibration.edge_error
    for name, qubits, _params in gates:
        if name == "barrier":
            continue
        if name in ("measure", "reset"):
            log_readout += math.log1p(-calibration.readout_error[qubits[0]])
            continue
        if len(qubits) == 2:
            a, b = qubits
            p = edge_error[(a, b) if a < b else (b, a)]
            log_gates += (3 if name == "swap" else 1) * math.log1p(-p)
        else:
            log_gates += math.log1p(-calibration.one_qubit_error[qubits[0]])
    return math.exp(2.0 * log_gates + log_readout)


# ---------------------------------------------------------------------------
# statevector equivalence
# ---------------------------------------------------------------------------

_SQ = 1.0 / math.sqrt(2.0)


def _one_qubit_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    if name == "h":
        return np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex)
    if name == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if name == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if name == "z":
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if name == "s":
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if name == "sdg":
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if name == "rz":
        half = params[0] / 2
        return np.array(
            [[complex(math.cos(half), -math.sin(half)), 0],
             [0, complex(math.cos(half), math.sin(half))]]
        )
    if name == "rx":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "u3":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [[c, -np.exp(1j * lam) * s],
             [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
        )
    raise OracleError(f"gate {name!r} has no statevector rule")


class _State:
    """A statevector over ``k`` wires; wire ``w`` is bit ``w`` of the index."""

    def __init__(self, amplitudes: np.ndarray, width: int):
        self.k = width
        self.psi = amplitudes

    def _split(self, wire: int) -> np.ndarray:
        return self.psi.reshape(1 << (self.k - 1 - wire), 2, 1 << wire)

    def apply_1q(self, matrix: np.ndarray, wire: int) -> None:
        view = self._split(wire)
        if matrix[0, 1] == 0 and matrix[1, 0] == 0:
            view[:, 0, :] *= matrix[0, 0]
            view[:, 1, :] *= matrix[1, 1]
            return
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = matrix[0, 0] * a0 + matrix[0, 1] * a1
        view[:, 1, :] = matrix[1, 0] * a0 + matrix[1, 1] * a1

    def apply_cx(self, control: int, target: int) -> None:
        hi, lo = max(control, target), min(control, target)
        view = self.psi.reshape(
            1 << (self.k - 1 - hi), 2, 1 << (hi - lo - 1), 2, 1 << lo
        )
        if control == hi:
            one, zero = view[:, 1, :, 1, :], view[:, 1, :, 0, :]
        else:
            one, zero = view[:, 1, :, 1, :], view[:, 0, :, 1, :]
        held = one.copy()
        one[...] = zero
        zero[...] = held


def _pauli_masks(ops: str) -> Tuple[int, int, int]:
    """``(x_mask, z_mask, num_y)`` of a Pauli string (qubit q -> bit q)."""
    x_mask = z_mask = num_y = 0
    for qubit, op in enumerate(ops):
        if op in ("X", "Y"):
            x_mask |= 1 << qubit
        if op in ("Z", "Y"):
            z_mask |= 1 << qubit
        if op == "Y":
            num_y += 1
    return x_mask, z_mask, num_y


def _parity_table(width: int) -> np.ndarray:
    table = np.zeros(1 << width, dtype=np.int8)
    for bit in range(width):
        block = 1 << bit
        table[block:2 * block] = 1 - table[:block]
    return table


def evolve_reference(
    psi: np.ndarray,
    rotations: Sequence[Tuple[str, float]],
    width: int,
) -> np.ndarray:
    """Apply ``exp(-i angle/2 P)`` for each ``(ops, angle)`` in order.

    ``P|j> = i**num_y (-1)**popcount(j & z_mask) |j ^ x_mask>``.
    """
    parity = _parity_table(width)
    index = np.arange(1 << width)
    out = psi.copy()
    for ops, angle in rotations:
        x_mask, z_mask, num_y = _pauli_masks(ops)
        if x_mask == 0 and z_mask == 0:
            out *= complex(math.cos(angle / 2), -math.sin(angle / 2))
            continue
        source = index ^ x_mask
        sign = 1.0 - 2.0 * parity[source & z_mask]
        p_psi = (1j ** num_y) * sign * out[source]
        out = math.cos(angle / 2) * out - 1j * math.sin(angle / 2) * p_psi
    return out


def ordered_rotations(
    blocks,
    block_order: Optional[Sequence[int]] = None,
    string_orders: Optional[Sequence[Sequence[int]]] = None,
    angles: Optional[Sequence[float]] = None,
) -> List[Tuple[str, float]]:
    """The ``(ops, angle)`` sequence a compiled circuit must implement.

    Blocks follow ``block_order`` (default: given order); the strings of
    the ``k``-th scheduled block follow ``string_orders[k]`` when given.
    ``angles`` overrides each block's own angle (a bound template's
    theta, indexed by original block position).
    """
    order = list(block_order) if block_order is not None else list(range(len(blocks)))
    rotations = []
    for position, index in enumerate(order):
        block = blocks[index]
        base = float(block.angle) if angles is None else float(angles[index])
        strings = list(zip(block.strings, block.weights))
        if string_orders is not None:
            strings = [strings[i] for i in string_orders[position]]
        for string, weight in strings:
            rotations.append((string.ops, base * float(weight)))
    return rotations


def active_wires(
    gates: Sequence[GateTriple],
    initial: Sequence[int],
    final: Sequence[int],
) -> List[int]:
    """Physical qubits that the check must simulate."""
    wires = set(initial) | set(final)
    for _name, qubits, _params in gates:
        wires.update(qubits)
    return sorted(wires)


def equivalence_overlap(
    gates: Sequence[GateTriple],
    rotations: Sequence[Tuple[str, float]],
    num_logical: int,
    initial: Sequence[int],
    final: Sequence[int],
    seed: int = 0,
) -> float:
    """``|<reference|compiled>|`` on one seeded random logical state.

    ``initial[q]``/``final[q]`` are the physical homes of logical qubit
    ``q`` before and after the circuit; physical qubits outside the
    layout start in ``|0>`` and must return there.  Only the wires the
    circuit or the layouts touch are simulated, at most
    :data:`MAX_SIM_QUBITS` of them.
    """
    wires = active_wires(gates, initial, final)
    if len(wires) > MAX_SIM_QUBITS:
        raise OracleError(
            f"{len(wires)} active wires exceed the {MAX_SIM_QUBITS}-wire limit"
        )
    slot = {phys: position for position, phys in enumerate(wires)}
    width = len(wires)
    rng = np.random.default_rng(seed)
    logical = rng.normal(size=1 << num_logical) + 1j * rng.normal(size=1 << num_logical)
    logical /= np.linalg.norm(logical)

    def embed(amplitudes: np.ndarray, homes: Sequence[int]) -> np.ndarray:
        index = np.arange(1 << num_logical)
        target = np.zeros(1 << num_logical, dtype=np.int64)
        for q in range(num_logical):
            target |= ((index >> q) & 1) << slot[homes[q]]
        full = np.zeros(1 << width, dtype=complex)
        full[target] = amplitudes
        return full

    state = _State(embed(logical, initial), width)
    for name, qubits, params in gates:
        if name == "barrier":
            continue
        if name == "cx":
            state.apply_cx(slot[qubits[0]], slot[qubits[1]])
        elif name == "swap":
            a, b = slot[qubits[0]], slot[qubits[1]]
            state.apply_cx(a, b)
            state.apply_cx(b, a)
            state.apply_cx(a, b)
        elif name in ONE_QUBIT:
            state.apply_1q(_one_qubit_matrix(name, params), slot[qubits[0]])
        else:
            raise OracleError(f"gate {name!r} has no statevector rule")
    expected = embed(evolve_reference(logical, rotations, num_logical), final)
    return float(abs(np.vdot(expected, state.psi)))


def layout_list(layout, num_logical: int) -> List[int]:
    """``[layout.physical(q) for q in range(num_logical)]``."""
    return [layout.physical(q) for q in range(num_logical)]


def metrics_mismatch(reported: Mapping[str, int], counted: Mapping[str, int]) -> List[str]:
    """Names of recount fields that differ from the reported ones."""
    return [
        f"{key}: reported {reported[key]} != recount {counted[key]}"
        for key in counted
        if key in reported and reported[key] != counted[key]
    ]
