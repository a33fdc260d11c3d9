"""Seeded property test: one relation build sharing a merge-cost table
gives the relations of evaluating every pair on its own."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqcc.circuit import extract_commodities, layerize, parse_circuit
from dqcc.relations import MergeCosts, build_relations
from dqcc.rewrite import PredicateStats


@st.composite
def ring_programs(draw):
    """3-5 processors with 1-2 qubits each and up to 12 cx among up to 10
    h/t. Operands come from a few hot qubits often enough that long pairs
    conflict and span several remote operations."""
    p = draw(st.integers(3, 5))
    comp = draw(st.integers(1, 2))
    qubits = [f"q{i}_{j}" for i in range(p) for j in range(comp)]
    placement = {q: f"P{q[1:].split('_')[0]}" for q in qubits}
    hot = qubits[: draw(st.integers(2, len(qubits)))]
    kinds = ["cx"] * draw(st.integers(2, 12)) + ["h", "t"] * draw(st.integers(0, 5))
    kinds = draw(st.permutations(kinds))
    lines = ["qubits " + " ".join(qubits)]
    for kind in kinds:
        pool = hot if draw(st.booleans()) else qubits
        if kind == "cx":
            a, b = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
            lines.append(f"cx {a} {b}")
        else:
            lines.append(f"{kind} {draw(st.sampled_from(pool))}")
    circ = layerize(parse_circuit("\n".join(lines) + "\n"))
    return circ, extract_commodities(circ, placement), draw(st.integers(0, 6))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ring_programs())
def test_shared_table_matches_fresh_evaluation(program):
    circ, coms, budget = program
    assert len(coms) <= 12
    stats = PredicateStats()
    table = build_relations(coms, circ, budget=budget, stats=stats)

    precedes, shares = {}, {}
    distinct = 0
    for a, ci in enumerate(coms):
        for cj in coms[a + 1 :]:
            key = (ci.index, cj.index)
            precedes[key] = ci.layer < cj.layer
            if ci.layer == cj.layer:
                shares[key] = True
                continue
            distinct += 1
            cost = MergeCosts(circ, coms).cost(ci, cj)
            shares[key] = cost is not None and cost <= budget
    assert table.precedes == precedes
    assert table.shares_step == shares
    assert stats.recursive_calls <= distinct
