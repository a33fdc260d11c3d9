import pytest

from dqcc.circuit import (
    CircuitError,
    Gate,
    LogicalCircuit,
    commodity_slots,
    extract_commodities,
    layerize,
    parse_circuit,
)
from conftest import EXAMPLE_CIRCUIT


def test_parse_single_gate():
    circ = parse_circuit("qubits q0\nh q0\n")
    assert circ.qubits == ("q0",)
    assert circ.gates() == [Gate("h", ("q0",))]
    assert circ.depth == 1  # singleton layers before layering


def test_parse_example_circuit_is_flat():
    circ = parse_circuit(EXAMPLE_CIRCUIT)
    assert len(circ.gates()) == 9
    assert circ.depth == 9
    assert sum(g.kind == "cx" for g in circ.gates()) == 5


def test_parse_comments_and_blank_lines():
    circ = parse_circuit("# intro\nqubits a b\n\ncx a b  # remote maybe\n")
    assert circ.gates() == [Gate("cx", ("a", "b"))]


def test_parse_errors():
    with pytest.raises(CircuitError, match="unknown gate"):
        parse_circuit("qubits a\nrz a\n")
    with pytest.raises(CircuitError, match="undeclared qubit"):
        parse_circuit("qubits a\nh b\n")
    with pytest.raises(CircuitError, match="equal operands"):
        parse_circuit("qubits q1\ncx q1 q1\n")
    with pytest.raises(CircuitError, match="before qubits"):
        parse_circuit("h q0\n")
    with pytest.raises(CircuitError, match="duplicate qubit"):
        parse_circuit("qubits a a\nh a\n")
    with pytest.raises(CircuitError, match="qubit name '_c1a': the prefix '_' is reserved"):
        LogicalCircuit(("a", "_c1a"), ())


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits q1 q2\nh q1\ncx q1 q9\n", "line 3: undeclared qubit 'q9'"),
        ("qubits q1 q1\n", "line 1: duplicate qubit declaration"),
        ("qubits _r0\nh _r0\n", "line 1: qubit name '_r0': the prefix '_' is reserved"),
    ],
    ids=["undeclared", "duplicate", "reserved"],
)
def test_parse_errors_name_their_line(text, message):
    with pytest.raises(CircuitError) as info:
        parse_circuit(text)
    assert str(info.value) == message


def test_layerize_example_circuit():
    circ = layerize(parse_circuit(EXAMPLE_CIRCUIT))
    assert circ.depth == 7
    two_qubit_layers = [i for i, layer in enumerate(circ.layers) if any(g.kind == "cx" for g in layer)]
    assert len(two_qubit_layers) == 5  # the five cx never share a layer
    # the first two cx both touch q3 and cannot merge
    assert [str(g) for g in circ.layers[0]] == ["cx q3 q1"]
    assert [str(g) for g in circ.layers[1]] == ["cx q3 q2"]
    assert {str(g) for g in circ.layers[2]} == {"h q3", "t q2"}


def test_layerize_idempotent():
    once = layerize(parse_circuit(EXAMPLE_CIRCUIT))
    assert layerize(once) == once


def test_layerize_merges_disjoint_cx():
    circ = layerize(parse_circuit("qubits a b c d\ncx a b\ncx c d\n"))
    assert circ.depth == 1
    assert len(circ.layers[0]) == 2


def test_layerize_preserves_per_qubit_order():
    circ = layerize(parse_circuit(EXAMPLE_CIRCUIT))
    seen: dict[str, list[int]] = {}
    for idx, layer in enumerate(circ.layers):
        for g in layer:
            for q in g.qubits:
                seen.setdefault(q, []).append(idx)
    flat = parse_circuit(EXAMPLE_CIRCUIT)
    for q, layers in seen.items():
        assert layers == sorted(layers)
        count = sum(q in g.qubits for g in flat.gates())
        assert len(layers) == count


def test_layer_invariant_rejects_sharing():
    with pytest.raises(CircuitError, match="reuses qubit"):
        LogicalCircuit(("a", "b"), ((Gate("h", ("a",)), Gate("cx", ("a", "b"))),))


def test_extract_commodities_all_remote(example_circuit):
    placement = {"q1": "P1", "q2": "P2", "q3": "P3", "q4": "P4"}
    coms = extract_commodities(example_circuit, placement)
    assert len(coms) == 5
    assert [c.index for c in coms] == [1, 2, 3, 4, 5]
    assert [c.layer for c in coms] == sorted(c.layer for c in coms)
    assert coms[0].control_proc == "P3" and coms[0].target_proc == "P1"
    assert coms[3].control_proc == "P2" and coms[3].target_proc == "P3"


def test_extract_commodities_single_processor(example_circuit):
    placement = {q: "P1" for q in example_circuit.qubits}
    assert extract_commodities(example_circuit, placement) == []


def test_extract_commodities_conflict_pair():
    circ = layerize(parse_circuit("qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n"))
    coms = extract_commodities(circ, {"q1": "P1", "q2": "P2", "q3": "P3"})
    assert len(coms) == 2
    assert coms[0].layer < coms[1].layer


def test_extract_commodities_unplaced(example_circuit):
    with pytest.raises(CircuitError, match="unplaced"):
        extract_commodities(example_circuit, {"q1": "P1"})


def test_extract_commodities_mixed_local_remote():
    circ = layerize(parse_circuit("qubits a b c\ncx a b\ncx b c\n"))
    coms = extract_commodities(circ, {"a": "P1", "b": "P1", "c": "P2"})
    assert len(coms) == 1
    assert coms[0].index == 1 and coms[0].control_qubit == "b"


def test_commodity_slots_hold_each_commodity_cx(example_circuit):
    placement = {"q1": "P1", "q2": "P2", "q3": "P3", "q4": "P4"}
    coms = extract_commodities(example_circuit, placement)
    slots = commodity_slots(example_circuit, coms)
    assert sorted(slots) == [c.index for c in coms]
    assert len(set(slots.values())) == len(coms)
    for c in coms:
        layer, slot = slots[c.index]
        assert layer == c.layer
        assert example_circuit.layers[layer][slot] == Gate("cx", c.operands)
