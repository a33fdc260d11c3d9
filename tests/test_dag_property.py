"""Seeded property tests of the dependency DAG on random layerized circuits
and random sets of remote gates.

``dependencies``, one forward pass over the DAG, is compared with a
reference kept outside the package: a forward walk per gate pair, which
finds that a later gate does not depend on an earlier one. The emitter's
placement of local gates, read from ``step_bounds``, is compared with a
definition built from that reference alone: a step's fragment holds the
local gates that depend on one of its operations and that one of its
operations depends on."""

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


def ancestors_of(circ, positions, b):
    """The gates b depends on, by the forward walk."""
    return {a for a in positions if a[0] < b[0] and not forward_independent(circ, a, b)}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(circuits())
def test_dependencies_match_the_forward_walk(drawn):
    circ, positions, _, _ = drawn
    bit = {p: 1 << i for i, p in enumerate(positions)}
    found = circ.dependencies(bit)
    for b in positions:
        ancestors = ancestors_of(circ, positions, b)
        for a in positions:
            assert bool(found[b] & bit[a]) == (a in ancestors)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(circuits(), st.data())
def test_placement_depends_only_on_the_member_set(drawn, data):
    circ, positions, remote, _ = drawn
    ancestors = {p: ancestors_of(circ, positions, p) for p in positions}
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
        below = set().union(*(ancestors[m] for m in members))
        between = {p for p in below - remote if ancestors[p] & members}
        assert set(fragments[s]) == members | between
    for s, held in prefixes.items():
        for p in held:
            assert s == 1 + max((steps[a] for a in ancestors[p] & remote), default=0)
