"""Seeded property test: merging branches once their bits are dead leaves
the output ensemble of ``run`` unchanged. The unmerged ensemble comes from
a per-branch reference simulator kept here, which applies dense gate
matrices with ``np.einsum`` and shares no code with ``dqcc.simulate``."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dqcc.rewrite import ExtendedCircuit, cx, e, h, m, px, pz, t
from dqcc.simulate import run
from conftest import PAIRS_UP_FRONT

F = frozenset
S = np.sqrt(0.5)
MATRICES = {
    "h": np.array([[S, S], [S, -S]], dtype=complex),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]),
    "px": np.array([[0, 1], [1, 0]], dtype=complex),
    "pz": np.diag([1.0 + 0j, -1.0]),
    "cx": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
}
BELL = np.array([[S, 0], [0, S]], dtype=complex)


def apply(state, qubits, targets, mat):
    """``mat`` (on ``targets``, first the most significant) applied to the
    tensor ``state`` whose axes are ``qubits``."""
    axes = list(range(state.ndim))
    fresh = list(range(state.ndim, state.ndim + len(targets)))
    where = [qubits.index(q) for q in targets]
    out = list(axes)
    for i, axis in zip(where, fresh):
        out[i] = axis
    return np.einsum(mat.reshape((2,) * 2 * len(targets)), fresh + where, state, axes, out)


def reference(circuit, vec):
    """Every branch of ``circuit`` on ``vec``, unmerged and in no fixed
    order, as (qubits, state tensor, probability)."""
    branches = [(list(circuit.comp_qubits), vec.reshape((2,) * len(circuit.comp_qubits)), {}, 1.0)]
    for g in circuit.gates:
        grown = []
        for qubits, state, bits, p in branches:
            if g.kind == "e":
                grown.append((qubits + list(g.qubits), np.multiply.outer(state, BELL), bits, p))
            elif g.kind == "m":
                axis = qubits.index(g.qubits[0])
                rest = qubits[:axis] + qubits[axis + 1:]
                for outcome in (0, 1):
                    piece = np.take(state, outcome, axis=axis)
                    w = float(np.vdot(piece, piece).real)
                    if w > 1e-12:
                        grown.append((rest, piece / np.sqrt(w), {**bits, g.bit: outcome}, p * w))
            elif g.kind in ("px", "pz") and not sum(bits[b] for b in g.expr) % 2:
                grown.append((qubits, state, bits, p))
            else:
                grown.append((qubits, apply(state, qubits, g.qubits, MATRICES[g.kind]), bits, p))
        branches = grown
    return [(tuple(q), s, p) for q, s, _, p in branches]


@st.composite
def circuits(draw):
    """2-3 computation qubits and up to 16 gates from e/cx/h/t/m/px/pz.
    Corrections read any bits measured so far, so bits get read twice,
    read long after their measurement, or never read."""
    comp = tuple(f"q{i}" for i in range(draw(st.integers(2, 3))))
    live = list(comp)
    bits: list[str] = []
    gates = []
    for _ in range(draw(st.integers(1, 16))):
        kinds = ["e"] if len(live) <= 6 else []
        if live:
            kinds += ["h", "t", "m"] + (["px", "pz"] if bits else [])
        if len(live) >= 2:
            kinds.append("cx")
        kind = draw(st.sampled_from(kinds))
        if kind == "e":
            a, b = f"c{len(gates)}a", f"c{len(gates)}b"
            live += [a, b]
            gates.append(e(a, b))
        elif kind == "cx":
            a, b = draw(st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True))
            gates.append(cx(a, b))
        elif kind == "m":
            q = draw(st.sampled_from(live))
            live.remove(q)
            bits.append(f"b{len(bits)}")
            gates.append(m(q, bits[-1]))
        elif kind in ("px", "pz"):
            expr = draw(st.lists(st.sampled_from(bits), min_size=1, max_size=3, unique=True))
            gates.append((px if kind == "px" else pz)(draw(st.sampled_from(live)), F(expr)))
        else:
            gates.append((h if kind == "h" else t)(draw(st.sampled_from(live))))
    return ExtendedCircuit(comp, tuple(gates))


def density(branches, order):
    """sum_i p_i |psi_i><psi_i| over ``order`` for (qubits, state, p) triples."""
    vecs = np.array([np.transpose(s, [q.index(x) for x in order]).reshape(-1)
                     for q, s, _ in branches])
    probs = np.array([p for _, _, p in branches])
    return (vecs.T * probs) @ vecs.conj()


# b0 is read twice and long after its measurement, b1 never, b2 once.
READS = ExtendedCircuit(
    ("q0", "q1"),
    (
        h("q0"), e("a", "b"), cx("q0", "a"), m("a", "b0"), h("q1"),
        m("q1", "b1"), t("q0"), e("c", "d"), m("c", "b2"), px("b", F({"b0"})),
        px("d", F({"b2"})), h("q0"), pz("q0", F({"b0", "b2"})),
    ),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(circuits(), st.integers(0, 2**32 - 1))
@example(READS, 0)
@example(PAIRS_UP_FRONT, 0)
def test_merged_run_keeps_the_ensemble(circuit, seed):
    dim = 2 ** len(circuit.comp_qubits)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)

    merged = run(circuit, vec)
    unmerged = reference(circuit, vec)

    order = unmerged[0][0]
    shape = (2,) * len(merged.qubits)
    ran = [(merged.qubits, a.reshape(shape), p) for a, p in zip(merged.amps, merged.probs)]
    diff = density(ran, order) - density(unmerged, order)
    assert float(np.sum(np.abs(diff) ** 2)) <= 1e-12
    assert abs(sum(merged.probs) - 1.0) < 1e-12
    assert len(merged.probs) <= len(unmerged)
