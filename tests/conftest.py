"""Shared instances: the worked example circuit and reference architectures."""

import pytest

from dqcc.circuit import Commodity, extract_commodities, layerize, parse_circuit
from dqcc.network import parse_network, quotient
from dqcc.relations import RelationTable
from dqcc.rewrite import ExtendedCircuit, cx, e, h, m, px, pz

# Four-qubit, nine-gate example circuit: five cx, layered depth 7, every
# two-qubit gate touching q3.
EXAMPLE_CIRCUIT = """\
qubits q1 q2 q3 q4
cx q3 q1
cx q3 q2
h q3
cx q3 q4
t q2
t q3
h q4
cx q2 q3
cx q3 q4
"""

# Three-processor toy: 6 computation qubits, 6 communication qubits,
# 3 entanglement links, 10 local couplings.
TOY_NETWORK = """\
processor P1 { comp q1 q2 comm c1 c2 }
processor P2 { comp q3 comm c3 c4 c5 }
processor P3 { comp q4 q5 q6 comm c6 }
local q1 q2
local q1 c1
local q2 c2
local c3 c4
local c3 c5
local c4 q3
local c5 q3
local c6 q4
local c6 q6
local q6 q5
elink c1 c3
elink c2 c4
elink c5 c6
"""

# Four single-computation-qubit processors in a line, capacity 1 per hop.
LINE4_NETWORK = """\
processor P1 { comp q1 comm a1 }
processor P2 { comp q2 comm a2 b2 }
processor P3 { comp q3 comm a3 b3 }
processor P4 { comp q4 comm a4 }
local q1 a1
local q2 a2
local q2 b2
local a2 b2
local q3 a3
local q3 b3
local a3 b3
local q4 a4
elink a1 a2
elink b2 a3
elink b3 a4
"""


@pytest.fixture
def example_circuit():
    return layerize(parse_circuit(EXAMPLE_CIRCUIT))


@pytest.fixture
def toy_network():
    return parse_network(TOY_NETWORK)


@pytest.fixture
def line4():
    net = parse_network(LINE4_NETWORK)
    return net, quotient(net)


def hub_chain(k: int) -> str:
    """k pairwise-conflicting remote cx, one per layer: every gate keeps
    the hub qubit as control."""
    qs = " ".join(["hub"] + [f"q{i}" for i in range(1, k + 1)])
    gates = "\n".join(f"cx hub q{i}" for i in range(1, k + 1))
    return f"qubits {qs}\n{gates}\n"


def hub_network(k: int, capacity: int) -> str:
    """Two processors: the hub alone on P1, the k targets on P2, with the
    requested number of parallel links."""
    a_comm = " ".join(f"ca{i}" for i in range(capacity))
    b_comm = " ".join(f"cb{i}" for i in range(capacity))
    targets = " ".join(f"q{i}" for i in range(1, k + 1))
    lines = [
        f"processor P1 {{ comp hub comm {a_comm} }}",
        f"processor P2 {{ comp {targets} comm {b_comm} }}",
    ]
    lines += [f"local hub ca{i}" for i in range(capacity)]
    lines += [f"local q{j} cb{i}" for i in range(capacity) for j in range(1, k + 1)]
    lines += [f"elink ca{i} cb{i}" for i in range(capacity)]
    return "\n".join(lines) + "\n"


def make_relations(commodities: list[Commodity], qp=None) -> RelationTable:
    """Relation table straight from layers, with an optional predicate for
    the sharing relation on distinct-layer pairs (default: never)."""
    table = RelationTable()
    for a in range(len(commodities)):
        for b in range(a + 1, len(commodities)):
            ci, cj = commodities[a], commodities[b]
            key = (ci.index, cj.index)
            table.precedes[key] = ci.layer < cj.layer
            if ci.layer == cj.layer:
                table.shares_step[key] = True
            else:
                table.shares_step[key] = bool(qp(ci, cj)) if qp else False
    return table


def commodities_of(circuit_text: str, network_text: str):
    net = parse_network(network_text)
    circ = layerize(parse_circuit(circuit_text))
    return circ, net, extract_commodities(circ, net.placement())


# Three telegates of cx qa qb whose Bell pairs all open before the first is
# used, as emission opens every pair of a step up front.
_TELEGATES = [
    (e(f"c{i}", f"d{i}"), cx("qa", f"c{i}"), cx(f"d{i}", "qb"), h(f"d{i}"),
     m(f"c{i}", f"x{i}"), m(f"d{i}", f"y{i}"), pz("qa", frozenset({f"y{i}"})),
     px("qb", frozenset({f"x{i}"})))
    for i in range(3)
]
PAIRS_UP_FRONT = ExtendedCircuit(
    ("qa", "qb"), tuple(t[0] for t in _TELEGATES) + tuple(g for t in _TELEGATES for g in t[1:])
)
