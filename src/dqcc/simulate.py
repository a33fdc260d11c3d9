"""Statevector oracle with mid-circuit measurement and classical feedforward."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import LogicalCircuit
from .rewrite import EGate, ExtendedCircuit, lift

# Bytes the amplitude array of one run may take, with the copy a gate makes;
# the one cap on a run. Only an entangling gate grows the array: a
# measurement doubles the rows and halves their width, and merging branches
# only drops rows.
MEMORY_BUDGET = 1 << 30
PRUNE_TOL = 1e-12
# Branches whose states overlap to within this are one state up to global
# phase. Merging such a pair moves the ensemble by about 4 * MERGE_TOL * p**2
# in squared Hilbert-Schmidt distance, far below the default ``tol``.
MERGE_TOL = 1e-12

_S = 1 / np.sqrt(2)  # the entries of h
_T = np.exp(1j * np.pi / 4)  # the phase t puts on |1>
_BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)  # over |ab>


class SimulationError(RuntimeError):
    pass


@dataclass
class StateBranch:
    """One measurement branch: a normalized state over the live qubits, the
    recorded bits that a later gate still reads, and the branch
    probability."""

    qubits: tuple[str, ...]
    state: np.ndarray  # tensor of shape (2,) * len(qubits)
    bits: dict[str, int]
    probability: float

    def state_over(self, order: tuple[str, ...]) -> np.ndarray:
        """Amplitude tensor with axes permuted to the requested qubit order."""
        if set(order) != set(self.qubits):
            raise SimulationError(f"branch holds {self.qubits}, asked for {order}")
        perm = [self.qubits.index(q) for q in order]
        return np.transpose(self.state, perm)

    def vector(self, order: tuple[str, ...] | None = None) -> np.ndarray:
        return self.state_over(order or self.qubits).reshape(-1)


def run(
    circuit: ExtendedCircuit,
    input_state: np.ndarray | None = None,
) -> list[StateBranch]:
    """Execute an extended circuit, branching on every measurement.

    ``input_state`` is a vector over the circuit's computation qubits in
    declaration order (default |0...0>). Entangling gates bring fresh
    communication qubits in as a Bell pair; measurements project, record
    the bit and drop the qubit. Zero-probability branches are pruned.

    A branch's ``bits`` hold only the live bits: a bit is dropped after the
    last gate that reads it (at once if no gate does), and branches that
    then agree on their live bits and on their state up to global phase
    are merged, their probabilities added. Each entangling gate runs just
    before the first later gate on either of its qubits, so a pair is held
    only while it is in use. The output ensemble sum_i p_i |psi_i><psi_i|
    is unchanged; branch order and qubit order carry no meaning.
    """
    return _run(circuit, input_state)[0]


def _run(
    circuit: ExtendedCircuit, input_state: np.ndarray | None
) -> tuple[list[StateBranch], int]:
    """``run`` plus the largest branch count it held.

    Every branch of a run holds the same live qubits and the same live bit
    names: a gate touches the same wires in each, and a measurement drops
    the same qubit and records the same bit in each. So the branches are
    the rows of one amplitude array of shape (branches, 2**live), with a
    tuple of bit values and a probability per row, and each gate acts on
    all rows at once. Reshaping the rows to (rows, 2**before, 2, 2**after)
    exposes a qubit's axis. No other array shares ``amps``'s memory until
    the branches are returned, so h, t, px and pz write into it in place.
    """
    comp = circuit.comp_qubits
    n = len(comp)
    if input_state is None:
        amps = np.zeros((1, 2**n), dtype=complex)
        amps[0, 0] = 1.0
    else:
        amps = np.array(input_state, dtype=complex).reshape(1, -1)
        if amps.shape != (1, 2**n):
            raise SimulationError(f"input state must have length {2**n}")
    live = tuple(comp)
    names: tuple[str, ...] = ()  # the live bits, in the order of each row's values
    vals: list[tuple[int, ...]] = [()]
    probs = [1.0]
    peak = 1
    gates = _lazy(circuit.gates)
    for gate, dead in zip(gates, _dying_bits(gates)):
        rows, width = amps.shape
        if len(set(gate.qubits)) < len(gate.qubits):
            raise SimulationError(f"gate {gate} repeats a qubit")
        if gate.kind == "e":
            for q in gate.qubits:
                if q in live:
                    raise SimulationError(f"entangling gate on live qubit {q!r}")
            need = 2 * 4 * amps.nbytes  # four times wider, and cx or px copies it
            if need > MEMORY_BUDGET:
                raise SimulationError(f"memory budget {MEMORY_BUDGET} B exceeded: {gate} needs {need} B")
            amps = (amps[:, :, None] * _BELL).reshape(rows, 4 * width)
            live += gate.qubits
            continue
        for q in gate.qubits:
            if q not in live:
                raise SimulationError(f"gate {gate} on consumed or unknown qubit {q!r}")
        axis = live.index(gate.qubits[0])
        before, after = 1 << axis, width >> (axis + 1)
        split = amps.reshape(rows, before, 2, after)
        if gate.kind == "h":
            zero, one = split[:, :, 0], split[:, :, 1]
            diff = zero - one
            zero += one
            zero *= _S
            np.multiply(diff, _S, out=one)
        elif gate.kind == "t":
            split[:, :, 1] *= _T
        elif gate.kind == "cx":
            tensor = amps.reshape((rows,) + (2,) * len(live))
            low, high = [slice(None)] * tensor.ndim, [slice(None)] * tensor.ndim
            low[1 + axis] = high[1 + axis] = 1
            target = 1 + live.index(gate.qubits[1])
            low[target], high[target] = 0, 1
            out = tensor.copy()
            out[tuple(low)], out[tuple(high)] = tensor[tuple(high)], tensor[tuple(low)]
            amps = out.reshape(rows, width)
        elif gate.kind in ("px", "pz"):
            cols = []
            for bit in gate.expr:
                if bit not in names:
                    raise SimulationError(f"gate {gate} reads unmeasured bit {bit!r}")
                cols.append(names.index(bit))
            odd = np.array([sum(v[c] for c in cols) % 2 for v in vals], dtype=bool)
            if gate.kind == "px":
                split[odd] = split[odd][:, :, ::-1]
            else:
                split[odd, :, 1] *= -1.0
        elif gate.kind == "m":
            # Row r becomes rows 2r (outcome 0) and 2r + 1 (outcome 1).
            parts = amps.view(float).reshape(rows, before, 2, 2 * after)
            weight = np.einsum("rako,rako->rk", parts, parts).reshape(-1)
            keep = weight > PRUNE_TOL
            kept, w = np.flatnonzero(keep).tolist(), weight.tolist()
            pieces = split.transpose(0, 2, 1, 3)[keep.reshape(rows, 2)]
            amps = pieces.reshape(len(kept), width // 2)
            amps /= np.sqrt(weight[keep])[:, None]
            c = names.index(gate.bit) if gate.bit in names else len(names)
            names = names[:c] + (gate.bit,) + names[c + 1 :]  # type: ignore[operator]
            probs = [probs[r >> 1] * w[r] for r in kept]
            vals = [vals[r >> 1][:c] + (r & 1,) + vals[r >> 1][c + 1 :] for r in kept]
            live = live[:axis] + live[axis + 1 :]
        else:
            raise SimulationError(f"unknown gate kind {gate.kind!r}")
        peak = max(peak, len(probs))
        if dead:
            cols = [i for i, bit in enumerate(names) if bit not in dead]
            names = tuple(names[i] for i in cols)
            amps, vals, probs = _fold(amps, [tuple(v[i] for i in cols) for v in vals], probs)
    branches = [
        StateBranch(live, a.reshape((2,) * len(live)), dict(zip(names, v)), p)
        for a, v, p in zip(amps, vals, probs)
    ]
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > 1e-9:
        raise SimulationError(f"branch probabilities sum to {total}")
    return branches, peak


def _lazy(gates: tuple[EGate, ...]) -> tuple[EGate, ...]:
    """``gates`` with each ``e`` moved to just before the first later gate
    on either of its qubits, or to the end if none follows. A fresh Bell
    pair commutes with every gate on other wires, so the ensemble is the
    same, and an ``e`` on a live qubit still meets that qubit."""
    order: list[EGate] = []
    waiting: list[EGate] = []
    for g in gates:
        wires = set(g.qubits)
        order += [p for p in waiting if not wires.isdisjoint(p.qubits)]
        waiting = [p for p in waiting if wires.isdisjoint(p.qubits)]
        (waiting if g.kind == "e" else order).append(g)
    return tuple(order + waiting)


def _dying_bits(gates: tuple[EGate, ...]) -> list[set[str]]:
    """For each gate, the bits no later gate reads: those it read last, and
    the bit it measures when nothing reads that bit afterwards."""
    last_read: dict[str, int] = {}
    for i, g in enumerate(gates):
        for bit in g.expr:
            last_read[bit] = i
    dying: list[set[str]] = [set() for _ in gates]
    for bit, i in last_read.items():
        dying[i].add(bit)
    for i, g in enumerate(gates):
        if g.kind == "m" and last_read.get(g.bit, -1) < i:  # type: ignore[arg-type]
            dying[i].add(g.bit)  # type: ignore[arg-type]
    return dying


def _fold(
    amps: np.ndarray, vals: list[tuple[int, ...]], probs: list[float]
) -> tuple[np.ndarray, list[tuple[int, ...]], list[float]]:
    """Merge each row into the first surviving row with the same bit values
    whose state equals its own up to global phase, adding probabilities in
    row order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    kept: list[int] = []
    total: list[float] = []
    for r, (v, p) in enumerate(zip(vals, probs)):
        group = groups.setdefault(v, [])
        for i in group:
            if abs(np.vdot(amps[kept[i]], amps[r])) >= 1.0 - MERGE_TOL:
                total[i] += p
                break
        else:
            group.append(len(kept))
            kept.append(r)
            total.append(p)
    return amps[kept], [vals[r] for r in kept], total


# --- Equivalence checking ------------------------------------------------


@dataclass
class EquivalenceReport:
    equal: bool
    max_deviation: float  # squared Hilbert-Schmidt distance of the output ensembles
    peak_branches: int  # largest branch list either ``run`` of the check held
    # Always "process", the one mode. The field stays only because
    # ``perfbench/tracing.py`` reads it.
    mode: str = "process"


def _hs_distance(
    left: list[StateBranch], right: list[StateBranch], order: tuple[str, ...]
) -> float:
    """Squared Hilbert-Schmidt distance ||rho_L - rho_R||_F^2 between the
    output ensembles rho = sum_i p_i |psi_i><psi_i| over ``order``.

    Measurement bits need not agree across the two circuits (rewrites
    re-label outcomes), so only the ensembles are compared. Each trace
    Tr(rho_A rho_B) = sum_ij p_i q_j |<a_i|b_j>|^2 comes from a
    probability-weighted Gram matrix of branch vectors; rho is never
    formed. The squared form keeps rounding at the 1e-16 scale, where the
    norm itself would lift it to about 1e-8.
    """

    lv = np.array([b.vector(order) for b in left])
    rv = np.array([b.vector(order) for b in right])
    lp = np.array([b.probability for b in left])
    rp = np.array([b.probability for b in right])

    def trace_product(av, ap, bv, bp) -> float:
        return float(ap @ (np.abs(av.conj() @ bv.T) ** 2) @ bp)

    dist = (
        trace_product(lv, lp, lv, lp)
        + trace_product(rv, rp, rv, rp)
        - 2 * trace_product(lv, lp, rv, rp)
    )
    return max(dist, 0.0)


def _entangled_input(n: int, extras: int) -> np.ndarray | None:
    """Maximally entangled state over (reference, data) = 2n qubits laid
    out as r0..r(n-1), d0..d(n-1), followed by ``extras`` wires in |0>."""
    if n + extras == 0:
        return None
    dim = 2**n
    mat = np.eye(dim, dtype=complex) / np.sqrt(dim)
    state = mat.reshape((2,) * (2 * n))
    if extras:
        zero = np.zeros((2,) * extras, dtype=complex)
        zero[(0,) * extras] = 1.0
        state = np.tensordot(state, zero, axes=0)
    return state


def _equivalence(
    left: tuple[EGate, ...],
    right: tuple[EGate, ...],
    program: tuple[str, ...],
    extras: tuple[str, ...],
    tol: float,
) -> EquivalenceReport:
    """Run both gate sequences with each ``program`` qubit maximally
    entangled with a reference wire and each of ``extras`` in |0>, and
    compare the output ensembles. A program qubit neither side touches is
    the identity on both: its reference pair is a common pure factor of the
    two ensembles, which leaves their distance unchanged, so it is left out."""
    touched = {q for g in left + right for q in g.qubits}
    data = tuple(q for q in program if q in touched)
    wide = data + extras
    out_left, out_right = _surviving(wide, left), _surviving(wide, right)
    if out_left != out_right:
        raise SimulationError(
            f"fragments produce different output registers: {out_left} vs {out_right}"
        )
    refs = tuple(f"_r{i}" for i in range(len(data)))
    state = _entangled_input(len(data), len(extras))
    lb, lpeak = _run(ExtendedCircuit(refs + wide, left), state)
    rb, rpeak = _run(ExtendedCircuit(refs + wide, right), state)
    dev = _hs_distance(lb, rb, refs + out_left)
    return EquivalenceReport(dev <= tol, dev, max(lpeak, rpeak))


def equivalent_fragments(
    left: ExtendedCircuit, right: ExtendedCircuit, tol: float = 1e-9
) -> EquivalenceReport:
    """Channel-level equivalence of two extended circuits over the same
    computation register (which may be empty, as for entangling protocols
    that only produce output pairs)."""
    if set(left.comp_qubits) != set(right.comp_qubits):
        raise SimulationError("fragments act on different computation registers")
    return _equivalence(left.gates, right.gates, left.comp_qubits, (), tol)


def _surviving(register: tuple[str, ...], gates: tuple[EGate, ...]) -> tuple[str, ...]:
    alive = list(register)
    for g in gates:
        if g.kind == "e":
            alive.extend(g.qubits)
        elif g.kind == "m":
            alive.remove(g.qubits[0])
    return tuple(alive)


def equivalent(
    physical: ExtendedCircuit,
    logical: LogicalCircuit,
    tol: float = 1e-9,
    seed: int | None = None,
) -> EquivalenceReport:
    """Does the compiled circuit implement the logical one on its
    computation qubits? The physical circuit must declare the logical
    circuit's qubits.

    Auxiliary wires the expansion borrowed (swap-chain intermediates) are
    simulated in |0> on both sides; only the program qubits carry the
    entangled reference register. The circuits are equal when the squared
    Hilbert-Schmidt distance of their output ensembles is at most ``tol``.
    ``seed`` is not read: there is nothing random in the check. The
    parameter stays only because ``perfbench/tracing.py`` passes it.
    """
    program = tuple(logical.qubits)
    if set(physical.comp_qubits) != set(program):
        raise SimulationError(
            f"physical circuit declares qubits {' '.join(physical.comp_qubits)!r}, "
            f"the logical circuit {' '.join(program)!r}"
        )
    created = {q for g in physical.gates if g.kind == "e" for q in g.qubits}
    touched = {q for g in physical.gates for q in g.qubits}
    extras = tuple(sorted(touched - created - set(program)))
    reference = tuple(lift(g) for g in logical.gates())
    return _equivalence(physical.gates, reference, program, extras, tol)
