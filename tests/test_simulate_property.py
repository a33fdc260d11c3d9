"""Seeded property test: merging branches once their bits are dead leaves
the output ensemble of ``run`` unchanged."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dqcc.rewrite import ExtendedCircuit, cx, e, h, m, px, pz, t
from dqcc.simulate import _apply, run

F = frozenset


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
    vecs = np.array([b.vector(order) for b in branches])
    probs = np.array([b.probability for b in branches])
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
def test_merged_run_keeps_the_ensemble(circuit, seed):
    dim = 2 ** len(circuit.comp_qubits)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)

    merged = run(circuit, vec)
    unmerged = run(ExtendedCircuit(circuit.comp_qubits, ()), vec)
    for g in circuit.gates:
        unmerged = [b for br in unmerged for b in _apply(br, g)]

    order = unmerged[0].qubits
    diff = density(merged, order) - density(unmerged, order)
    assert float(np.sum(np.abs(diff) ** 2)) <= 1e-12
    assert abs(sum(b.probability for b in merged) - 1.0) < 1e-12
    assert len(merged) <= len(unmerged)
