import math
import random

import pytest

from dqcc.circuit import Commodity
from dqcc.flow import (
    InstanceTooLarge,
    Solution,
    SolverStats,
    brute_force_oracle,
    check_solution,
    dump_solution,
    e_depth,
    quickest,
    solve_fixed_horizon,
)
from dqcc.network import QuotientGraph
from dqcc.pipeline import compile
from conftest import make_relations


def two_proc(capacity: int) -> QuotientGraph:
    return QuotientGraph(("P1", "P2"), {("P1", "P2"): capacity})


def same_layer(k: int) -> list[Commodity]:
    return [Commodity(i + 1, "P1", "P2", f"a{i}", f"b{i}", 0) for i in range(k)]


def chain(k: int) -> list[Commodity]:
    return [Commodity(i + 1, "P1", "P2", "hub", f"t{i}", i) for i in range(k)]


def line3() -> QuotientGraph:
    return QuotientGraph(("P1", "P2", "P3"), {("P1", "P2"): 2, ("P2", "P3"): 1})


def test_single_layer_capacity_bound():
    coms = same_layer(3)
    rel = make_relations(coms)
    assert solve_fixed_horizon(two_proc(3), coms, rel, 1).total_flow == 3
    assert solve_fixed_horizon(two_proc(1), coms, rel, 2) is None
    sol = solve_fixed_horizon(two_proc(1), coms, rel, 3)
    assert sorted(sol.steps.values()) == [1, 2, 3]


def test_bottleneck_two_commodities():
    coms = [
        Commodity(1, "P1", "P3", "x1", "y1", 0),
        Commodity(2, "P1", "P3", "x2", "y2", 0),
    ]
    rel = make_relations(coms)
    assert solve_fixed_horizon(line3(), coms, rel, 1) is None
    sol = solve_fixed_horizon(line3(), coms, rel, 2)
    assert sol.total_flow == 4
    assert sorted(sol.steps.values()) == [1, 2]
    for path in sol.paths.values():
        assert path == ("P3", "P2", "P1")


def test_horizon_is_an_upper_bound_not_a_target():
    # Two same-layer operations between P3 and P1 on a triangle of unit
    # links: one step routes them over P3-P1 and P3-P2-P1 (flow 3), two
    # steps over P3-P1 twice (flow 2). A horizon of 2 still returns the
    # quicker schedule.
    q = QuotientGraph(
        ("P1", "P2", "P3"), {("P1", "P2"): 1, ("P1", "P3"): 1, ("P2", "P3"): 1}
    )
    coms = [
        Commodity(1, "P1", "P3", "x1", "y1", 0),
        Commodity(2, "P1", "P3", "x2", "y2", 0),
    ]
    rel = make_relations(coms)
    sol = solve_fixed_horizon(q, coms, rel, 2)
    assert (sol.d, e_depth(sol), sol.total_flow) == (1, 1, 3)
    assert sol == quickest(q, coms, rel)


def test_serial_chain_needs_full_horizon():
    coms = chain(3)
    rel = make_relations(coms)  # pairwise non-sharing
    assert solve_fixed_horizon(two_proc(3), coms, rel, 2) is None
    sol = solve_fixed_horizon(two_proc(3), coms, rel, 3)
    assert [sol.steps[i] for i in (1, 2, 3)] == [1, 2, 3]


def test_quickest_single_commodity_shortest_path():
    coms = [Commodity(1, "P1", "P3", "x", "y", 0)]
    sol = quickest(line3(), coms, make_relations(coms))
    assert e_depth(sol) == 1
    assert sol.paths[1] == ("P3", "P2", "P1")
    assert sol.total_flow == 2


def test_quickest_chain_with_and_without_sharing():
    for k in (3, 4, 5):
        coms = chain(k)
        off = make_relations(coms)
        on = make_relations(coms, qp=lambda a, b: True)
        assert e_depth(quickest(two_proc(k), coms, off)) == k
        assert e_depth(quickest(two_proc(k), coms, on)) == 1
        # sharing still cannot beat capacity
        assert e_depth(quickest(two_proc(1), coms, on)) == k


def test_feasibility_monotone_in_horizon():
    coms = same_layer(3)
    rel = make_relations(coms)
    feasible = [solve_fixed_horizon(two_proc(1), coms, rel, d) is not None for d in (1, 2, 3, 4)]
    assert feasible == [False, False, True, True]


def test_relaxing_to_sharing_never_hurts():
    rng = random.Random(4)
    for _ in range(10):
        k = rng.randint(2, 4)
        coms = [
            Commodity(i + 1, "P1", "P2", f"c{i}", f"t{i}", layer=i)
            for i in range(k)
        ]
        cap = rng.randint(1, 3)
        strict = make_relations(coms)
        relaxed = make_relations(coms, qp=lambda a, b: True)
        d_strict = e_depth(quickest(two_proc(cap), coms, strict))
        d_relaxed = e_depth(quickest(two_proc(cap), coms, relaxed))
        assert d_relaxed <= d_strict


def test_flow_meets_distance_bound_without_congestion():
    q = QuotientGraph(
        ("P1", "P2", "P3"), {("P1", "P2"): 4, ("P2", "P3"): 4}
    )
    coms = [
        Commodity(1, "P1", "P3", "a", "b", 0),
        Commodity(2, "P2", "P3", "c", "d", 0),
    ]
    sol = quickest(q, coms, make_relations(coms))
    assert sol.total_flow == 2 + 1  # sum of shortest-path distances
    assert e_depth(sol) == 1


def test_solver_matches_oracle_on_bottleneck():
    coms = [
        Commodity(1, "P1", "P3", "x1", "y1", 0),
        Commodity(2, "P1", "P3", "x2", "y2", 0),
    ]
    rel = make_relations(coms)
    sol = quickest(line3(), coms, rel)
    ref = brute_force_oracle(line3(), coms, rel)
    assert (e_depth(sol), sol.total_flow) == (e_depth(ref), ref.total_flow)


def test_oracle_handles_empty_instance():
    sol = brute_force_oracle(two_proc(1), [], make_relations([]))
    assert sol.d == 0 and sol.total_flow == 0 and e_depth(sol) == 0


def test_oracle_rejects_large_instances():
    coms = same_layer(5)
    with pytest.raises(InstanceTooLarge):
        brute_force_oracle(two_proc(5), coms, make_relations(coms), max_k=4)
    with pytest.raises(InstanceTooLarge):
        brute_force_oracle(
            two_proc(1), same_layer(4), make_relations(same_layer(4)), max_k=4, max_d=2
        )


def test_checker_accepts_solver_output():
    coms = chain(3)
    rel = make_relations(coms)
    sol = quickest(two_proc(2), coms, rel)
    assert check_solution(two_proc(2), coms, rel, sol) == []


def test_checker_flags_violations():
    coms = chain(2)
    rel = make_relations(coms)
    good = quickest(two_proc(2), coms, rel)
    # break precedence
    bad = Solution(good.d, {1: 2, 2: 1}, dict(good.paths), good.total_flow)
    assert check_solution(two_proc(2), coms, rel, bad) == [
        "2 does not strictly follow its predecessor 1"
    ]
    # break capacity
    coms2 = same_layer(2)
    rel2 = make_relations(coms2)
    squeezed = Solution(1, {1: 1, 2: 1}, {1: ("P2", "P1"), 2: ("P2", "P1")}, 2)
    assert check_solution(two_proc(1), coms2, rel2, squeezed) == [
        "capacity exceeded on ('P1', 'P2') at step 1: 2 > 1"
    ]
    # capacity problems come edge by edge, then step by step
    coms4 = [Commodity(i, "P3" if i < 3 else "P1", "P2", f"a{i}", f"b{i}", 0) for i in range(1, 6)]
    crowded = Solution(
        2, {1: 1, 2: 1, 3: 2, 4: 2, 5: 2}, {i: ("P2", "P3" if i < 3 else "P1") for i in range(1, 6)}, 5
    )
    assert check_solution(line3(), coms4, make_relations(coms4), crowded) == [
        "capacity exceeded on ('P1', 'P2') at step 2: 3 > 2",
        "capacity exceeded on ('P2', 'P3') at step 1: 2 > 1",
    ]
    # wrong endpoints
    flipped = Solution(good.d, dict(good.steps), {i: p[::-1] for i, p in good.paths.items()}, good.total_flow)
    assert check_solution(two_proc(2), coms, rel, flipped) == [
        "commodity 1 path endpoints P1..P2 wrong",
        "commodity 2 path endpoints P1..P2 wrong",
        "demand at control processor of 1 is -1, want +1",
        "demand at target processor of 1 is 1, want -1",
        "demand at control processor of 2 is -1, want +1",
        "demand at target processor of 2 is 1, want -1",
    ]
    # cycle
    coms3 = [Commodity(1, "P1", "P3", "x", "y", 0)]
    rel3 = make_relations(coms3)
    loopy = Solution(1, {1: 1}, {1: ("P3", "P2", "P3", "P2", "P1")}, 4)
    assert check_solution(line3(), coms3, rel3, loopy) == [
        "commodity 1 path revisits a processor",
        "capacity exceeded on ('P2', 'P3') at step 1: 3 > 1",
    ]


def test_invocation_bound():
    for k in range(1, 17):
        coms = chain(k)
        stats = SolverStats()
        quickest(two_proc(1), coms, make_relations(coms), stats)
        assert stats.invocations <= math.ceil(math.log2(k)) + 1 if k > 1 else stats.invocations == 1


def test_dump_format_round_trip_shape():
    coms = [Commodity(1, "P1", "P3", "x", "y", 0)]
    sol = quickest(line3(), coms, make_relations(coms))
    text = dump_solution(sol)
    assert text.splitlines() == ["1 tau=1 path=P3-P2,P2-P1", "e_depth=1 total_flow=2"]


def test_determinism():
    coms = chain(3)
    rel = make_relations(coms, qp=lambda a, b: True)
    a = dump_solution(quickest(two_proc(2), coms, rel))
    b = dump_solution(quickest(two_proc(2), coms, rel))
    assert a == b


def test_late_step_restores_optimum():
    # 1 and 2 contend for P1-P2; 3 may share a step with 1 but not with 2,
    # so the optimum runs 2 first and 1 later than its position.
    q = QuotientGraph(("P1", "P2", "P3"), {("P1", "P2"): 1, ("P2", "P3"): 1})
    coms = [
        Commodity(1, "P2", "P1", "a", "b", 0),
        Commodity(2, "P2", "P1", "c", "d", 0),
        Commodity(3, "P3", "P2", "e", "f", 1),
    ]
    rel = make_relations(coms, qp=lambda a, b: (a.index, b.index) == (1, 3))
    sol = quickest(q, coms, rel)
    ref = brute_force_oracle(q, coms, rel)
    assert sol.steps == ref.steps == {1: 2, 2: 1, 3: 2}
    assert (e_depth(sol), sol.total_flow) == (e_depth(ref), ref.total_flow) == (2, 3)
    assert check_solution(q, coms, rel, sol) == []


def ring_network(p: int) -> str:
    """p processors in a ring, two computation qubits and one link per hop."""
    lines = [f"processor P{i} {{ comp q{i}_0 q{i}_1 comm l{i} r{i} }}" for i in range(p)]
    lines += [f"local q{i}_{j} {c}{i}" for i in range(p) for j in (0, 1) for c in "lr"]
    lines += [f"elink r{i} l{(i + 1) % p}" for i in range(p)]
    return "\n".join(lines) + "\n"


def test_late_step_on_ring_instance():
    circuit = """\
qubits q0_0 q0_1 q1_0 q1_1 q2_0 q2_1 q3_0 q3_1
cx q2_0 q2_1
t q0_0
cx q1_1 q1_0
cx q1_1 q3_0
cx q3_1 q3_0
h q1_1
cx q1_1 q3_1
cx q0_0 q2_1
h q0_0
t q1_1
t q0_0
h q1_1
cx q1_1 q1_0
t q1_1
"""
    r = compile(circuit, ring_network(4), coherence=4, emit=False)
    ref = brute_force_oracle(r.quotient, r.commodities, r.relations)
    assert (e_depth(r.solution), r.solution.total_flow) == (e_depth(ref), ref.total_flow) == (2, 6)
    assert check_solution(r.quotient, r.commodities, r.relations, r.solution) == []
