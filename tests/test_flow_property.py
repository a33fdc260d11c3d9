"""Seeded property tests on small random quotient graphs: the solver against
the brute-force oracle, and the checker against its loop definition."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqcc.circuit import Commodity
from dqcc.flow import (
    Solution,
    SolverStats,
    brute_force_oracle,
    check_solution,
    e_depth,
    quickest,
    solve_fixed_horizon,
)
from dqcc.network import QuotientGraph, edge_key
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
    assert sol.paths == ref.paths  # the first minimum in path-product order
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


def loop_check_solution(q, commodities, relations, solution):
    """Reference definition of ``check_solution``: every (commodity, step,
    processor) and every (edge, step) of the horizon is visited."""
    problems = []
    d = solution.d
    f = {}
    for c in commodities:
        i = c.index
        if i not in solution.steps or i not in solution.paths:
            problems.append(f"commodity {i} missing from solution")
            continue
        tau = solution.steps[i]
        path = solution.paths[i]
        if not (1 <= tau <= d):
            problems.append(f"commodity {i} completes outside the horizon: {tau}")
        if path[0] != c.target_proc or path[-1] != c.control_proc:
            problems.append(f"commodity {i} path endpoints {path[0]}..{path[-1]} wrong")
        if len(set(path)) != len(path):
            problems.append(f"commodity {i} path revisits a processor")
        for a, b in zip(path, path[1:]):
            if edge_key(a, b) not in q.capacity:
                problems.append(f"commodity {i} uses missing edge {a}-{b}")
            f[((a, b), i, tau)] = f.get(((a, b), i, tau), 0) + 1

    inflow, outflow, load = {}, {}, {}
    for ((a, b), i, tau), v in f.items():
        inflow[(b, i, tau)] = inflow.get((b, i, tau), 0) + v
        outflow[(a, i, tau)] = outflow.get((a, i, tau), 0) + v
        key = (edge_key(a, b), tau)
        load[key] = load.get(key, 0) + v

    def net(node, i, tau):
        return inflow.get((node, i, tau), 0) - outflow.get((node, i, tau), 0)

    for c in commodities:
        i = c.index
        for tau in range(1, d + 1):
            for node in q.nodes:
                if node in (c.control_proc, c.target_proc):
                    continue
                if net(node, i, tau) != 0:
                    problems.append(f"conservation violated at {node} for {i} at step {tau}")
        net_c = sum(net(c.control_proc, i, t) for t in range(1, d + 1))
        net_t = sum(net(c.target_proc, i, t) for t in range(1, d + 1))
        if net_c != 1:
            problems.append(f"demand at control processor of {i} is {net_c}, want +1")
        if net_t != -1:
            problems.append(f"demand at target processor of {i} is {net_t}, want -1")

    for edge, cap in q.capacity.items():
        for tau in range(1, d + 1):
            used = load.get((edge, tau), 0)
            if used > cap:
                problems.append(f"capacity exceeded on {edge} at step {tau}: {used} > {cap}")

    for c in commodities:
        for other in commodities:
            i, j = other.index, c.index
            if not relations.prec(i, j):
                continue
            ti, tj = solution.steps.get(i), solution.steps.get(j)
            if ti is None or tj is None:
                continue
            if relations.qp(i, j):
                if tj < ti:
                    problems.append(f"{j} completes before its sharable predecessor {i}")
            elif tj <= ti:
                problems.append(f"{j} does not strictly follow its predecessor {i}")
    return problems


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances(), st.data())
def test_checker_matches_loop_definition(instance, data):
    """On the solver's schedule and on schedules with a wrong step, a
    missing edge, an unknown processor, an overloaded edge or a missing
    commodity (one at a time, and the first four at once) the checker
    reports the problems, in the order, of the loops over the whole
    horizon."""
    q, coms, rel = instance
    sol = quickest(q, coms, rel)
    pick = st.sampled_from(coms)
    late, short, lost = (data.draw(pick) for _ in range(3))
    wrong_step = {late.index: data.draw(st.integers(0, sol.d + 1))}
    missing_edge = {short.index: (short.target_proc, short.control_proc)}
    unknown = {lost.index: (lost.target_proc, "PX")}
    # Crowding every commodity into steps 1 and 2 overloads edges at both;
    # steps 0 and d + 1 lie outside the horizon.
    crowded = {c.index: data.draw(st.sampled_from([0, 1, 2, sol.d + 1])) for c in coms}
    mutants = [
        Solution(sol.d, sol.steps | wrong_step, sol.paths, sol.total_flow),
        Solution(sol.d, sol.steps, sol.paths | missing_edge, sol.total_flow),
        Solution(sol.d, sol.steps, sol.paths | unknown, sol.total_flow),
        Solution(sol.d, crowded, sol.paths, sol.total_flow),
        Solution(sol.d, crowded | wrong_step, sol.paths | missing_edge | unknown, sol.total_flow),
        Solution(sol.d, {i: t for i, t in sol.steps.items() if i != late.index}, sol.paths,
                 sol.total_flow),
    ]
    for s in [sol, *mutants]:
        assert check_solution(q, coms, rel, s) == loop_check_solution(q, coms, rel, s)
