"""Seeded property test: the dependency DAG's backward walk, ``cone``,
answers both dependency questions of the compiler on random layerized
circuits and random sets of remote gates.

The references are the two algorithms ``cone`` replaced, kept here only to
compare against: a forward walk per gate pair, which found that a later
gate does not depend on an earlier one, and the emitter's backward sweep
over a step's layer span, which collected the local gates the step's
members depend on, passing over every remote gate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dqcc.circuit import layerize, parse_circuit


def forward_independent(circ, a, b):
    """Gate b does not depend on gate a, whose layer is strictly lower."""
    cone = set(circ.layers[a[0]][a[1]].qubits)
    for lay in range(a[0] + 1, b[0]):
        for g in circ.layers[lay]:
            if cone & set(g.qubits):
                cone.update(g.qubits)
    return not (cone & set(circ.layers[b[0]][b[1]].qubits))


def span_sweep(circ, members, remote):
    """The gates outside ``remote`` in the members' layer span that the
    members depend on."""
    wires, needed = set(), set()
    for lay in range(max(l for l, _ in members), min(l for l, _ in members) - 1, -1):
        for l, s in members:
            if l == lay:
                wires.update(circ.layers[l][s].qubits)
        for slot, gate in enumerate(circ.layers[lay]):
            if (lay, slot) not in remote and wires & set(gate.qubits):
                needed.add((lay, slot))
                wires.update(gate.qubits)
    return needed


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
def test_cone_matches_both_replaced_algorithms(drawn):
    circ, positions, remote, members = drawn
    for b in positions:
        for a in positions:
            if a[0] <= b[0] and a != b:
                independent = a[0] == b[0] or forward_independent(circ, a, b)
                assert (a not in circ.cone(roots(circ, [b]), floor=a[0])) == independent
    floor = min(l for l, _ in members)
    got = circ.cone(roots(circ, members), floor=floor, passing=remote)
    assert got == span_sweep(circ, members, remote)
