"""Seeded property test: the solver against the brute-force oracle on small
random quotient graphs."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqcc.circuit import Commodity
from dqcc.flow import (
    SolverStats,
    brute_force_oracle,
    check_solution,
    e_depth,
    quickest,
    solve_fixed_horizon,
)
from dqcc.network import QuotientGraph
from conftest import make_relations


@st.composite
def instances(draw):
    """A connected quotient graph with capacities 1-2 and up to five
    commodities. Later commodities often reuse an earlier one's endpoints,
    so same-layer groups contend for a bottleneck link; pairs in distinct
    layers share a step at random."""
    n = draw(st.integers(2, 4))
    nodes = tuple(f"P{i}" for i in range(n))
    edges = {(nodes[draw(st.integers(0, i - 1))], nodes[i]) for i in range(1, n)}
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()) and draw(st.booleans()):
                edges.add((nodes[a], nodes[b]))
    q = QuotientGraph(nodes, {e: draw(st.integers(1, 2)) for e in sorted(edges)})

    k = draw(st.integers(1, 5))
    coms: list[Commodity] = []
    layer = 0
    for i in range(1, k + 1):
        if coms and draw(st.booleans()):
            control, target = coms[-1].control_proc, coms[-1].target_proc
        else:
            control, target = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        if coms and draw(st.booleans()):
            layer += 1
        coms.append(Commodity(i, control, target, f"c{i}", f"t{i}", layer))
    sharing = {
        (a.index, b.index)
        for a in coms
        for b in coms
        if a.layer < b.layer and draw(st.booleans())
    }
    rel = make_relations(coms, qp=lambda a, b: (a.index, b.index) in sharing)
    return q, coms, rel


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_quickest_matches_oracle(instance):
    q, coms, rel = instance
    stats = SolverStats()
    sol = quickest(q, coms, rel, stats)
    ref = brute_force_oracle(q, coms, rel, max_k=5, max_d=5)
    assert (e_depth(sol), sol.total_flow) == (e_depth(ref), ref.total_flow)
    assert sol.steps == ref.steps
    assert check_solution(q, coms, rel, sol) == []
    assert stats.invocations <= math.ceil(math.log2(len(coms))) + 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_fixed_horizon_returns_the_quickest_schedule(instance):
    """Below the quickest depth no horizon is feasible; at or above it the
    search returns the quickest schedule itself."""
    q, coms, rel = instance
    sol = quickest(q, coms, rel)
    for d in range(1, len(coms) + 1):
        found = solve_fixed_horizon(q, coms, rel, d)
        if d < e_depth(sol):
            assert found is None
        else:
            assert found == sol
