"""Seeded property test: whenever ``rewrite_step`` merges a fragment of
telegates, the merged fragment is equivalent to the sequential one."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqcc.circuit import Commodity
from dqcc.rewrite import ExtendedCircuit, bare_telegate, cx, h, rewrite_step, t
from dqcc.simulate import equivalent_fragments

WIRES = ("q0", "q1", "q2")


@st.composite
def telegate_fragments(draw):
    """2-3 bare telegates between the three wires, with up to three local
    h, t or cx gates on the same wires between consecutive telegates."""
    pair = st.lists(st.sampled_from(WIRES), min_size=2, max_size=2, unique=True)
    local = st.one_of(
        st.builds(h, st.sampled_from(WIRES)),
        st.builds(t, st.sampled_from(WIRES)),
        pair.map(lambda w: cx(*w)),
    )
    gates = []
    for i in range(1, draw(st.integers(2, 3)) + 1):
        if i > 1:
            gates += draw(st.lists(local, max_size=3))
        control, target = draw(pair)
        gates += bare_telegate(Commodity(i, "P1", "P2", control, target, i))
    return gates


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(telegate_fragments())
def test_merged_fragment_is_equivalent(gates):
    out = rewrite_step(gates)
    if out is None:
        return
    rep = equivalent_fragments(
        ExtendedCircuit(WIRES, tuple(out.in_step + out.corrections)),
        ExtendedCircuit(WIRES, tuple(gates)),
    )
    assert rep.equal, ([str(g) for g in gates], rep.max_deviation)
