"""Seeded property tests of the dependency DAG on random layerized circuits
and random sets of remote gates.

``cone``, the DAG's backward walk, is compared with the algorithm it
replaced, a forward walk per gate pair, which found that a later gate does
not depend on an earlier one. The emitter's placement of local gates, read
from ``step_bounds``, is compared with a definition built from cones alone:
a step's fragment holds the local gates that depend on one of its
operations and that one of its operations depends on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqcc.circuit import layerize, parse_circuit
from dqcc.expand import EmitError, place_gates


def forward_independent(circ, a, b):
    """Gate b does not depend on gate a, whose layer is strictly lower."""
    cone = set(circ.layers[a[0]][a[1]].qubits)
    for lay in range(a[0] + 1, b[0]):
        for g in circ.layers[lay]:
            if cone & set(g.qubits):
                cone.update(g.qubits)
    return not (cone & set(circ.layers[b[0]][b[1]].qubits))


@st.composite
def circuits(draw):
    """Up to 24 gates over 2-6 qubits, half of them cx, a random set of
    "remote" positions and a nonempty "step" among them."""
    qubits = [f"q{i}" for i in range(draw(st.integers(2, 6)))]
    lines = ["qubits " + " ".join(qubits)]
    for _ in range(draw(st.integers(1, 24))):
        if draw(st.booleans()):
            a, b = draw(st.lists(st.sampled_from(qubits), min_size=2, max_size=2, unique=True))
            lines.append(f"cx {a} {b}")
        else:
            lines.append(f"{draw(st.sampled_from('ht'))} {draw(st.sampled_from(qubits))}")
    circ = layerize(parse_circuit("\n".join(lines) + "\n"))
    positions = [(l, s) for l, layer in enumerate(circ.layers) for s in range(len(layer))]
    remote = draw(st.sets(st.sampled_from(positions), min_size=1))
    members = draw(st.sets(st.sampled_from(sorted(remote)), min_size=1))
    return circ, positions, remote, members


def roots(circ, positions):
    return [(p, q) for p in positions for q in circ.layers[p[0]][p[1]].qubits]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(circuits())
def test_cone_matches_the_forward_walk(drawn):
    circ, positions, remote, members = drawn
    for b in positions:
        for a in positions:
            if a[0] <= b[0] and a != b:
                independent = a[0] == b[0] or forward_independent(circ, a, b)
                assert (a not in circ.cone(roots(circ, [b]))) == independent


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(circuits(), st.data())
def test_placement_depends_only_on_the_member_set(drawn, data):
    circ, positions, remote, _ = drawn
    ancestors = {p: circ.cone(roots(circ, [p])) for p in positions}
    steps = {p: data.draw(st.integers(1, 4)) for p in sorted(remote)}
    if data.draw(st.booleans()):
        # Raise each step to its latest ancestor's: the schedule respects
        # the DAG. Otherwise it may break a dependency.
        for p in sorted(remote):
            steps[p] = max([steps[p]] + [steps[a] for a in ancestors[p] & remote])
    broken = any(steps[a] > steps[p] for p in remote for a in ancestors[p] & remote)
    if broken:
        with pytest.raises(EmitError):
            place_gates(circ, steps)
        return
    fragments, prefixes = place_gates(circ, steps)
    placed = [p for part in (fragments, prefixes) for held in part.values() for p in held]
    assert sorted(placed) == positions  # every gate exactly once
    for s in set(steps.values()):
        members = {p for p in remote if steps[p] == s}
        below = circ.cone(roots(circ, members))
        between = {p for p in below - remote if ancestors[p] & members}
        assert set(fragments[s]) == members | between
    for s, held in prefixes.items():
        for p in held:
            assert s == 1 + max((steps[a] for a in ancestors[p] & remote), default=0)
