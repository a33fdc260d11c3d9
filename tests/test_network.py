import pytest

from dqcc.network import (
    NetworkError,
    links_by_edge,
    parse_network,
    quotient,
)
from conftest import TOY_NETWORK


def test_parse_toy_counts(toy_network):
    assert len(toy_network.processors) == 3
    assert len(toy_network.placement()) == 6
    assert len(toy_network.communication_qubits) == 6
    assert len(toy_network.links) == 3
    assert len(toy_network.locals_) == 10
    assert toy_network.processor_of("q3") == "P2"
    assert toy_network.placement()["q5"] == "P3"


def test_parse_rejects_link_on_computation_qubit():
    text = TOY_NETWORK + "elink q1 c3\n"
    with pytest.raises(NetworkError, match="computation qubit"):
        parse_network(text)


def test_parse_rejects_intra_processor_link():
    text = TOY_NETWORK + "elink c3 c4\n"
    with pytest.raises(NetworkError, match="inside one processor"):
        parse_network(text)


@pytest.mark.parametrize(
    "extra, qubit", [("elink c1 c6", "c1"), ("elink c1 c3", "c1"), ("elink c3 c1", "c3")]
)
def test_parse_rejects_a_second_link_on_a_communication_qubit(extra, qubit):
    # c1 already ends the link c1-c3 on line 14; the last two repeat it.
    message = f"line 17: communication qubit {qubit!r} already ends the link on line 14"
    with pytest.raises(NetworkError, match=f"^{message}$"):
        parse_network(TOY_NETWORK + extra + "\n")


def test_parse_rejects_disconnected():
    text = """
    processor P1 { comp q1 comm c1 }
    processor P2 { comp q2 comm c2 }
    local q1 c1
    local q2 c2
    """
    with pytest.raises(NetworkError, match="disconnected"):
        parse_network(text)


def test_parse_rejects_duplicate_names():
    text = "processor P1 { comp q1 comm q1 }\n"
    with pytest.raises(NetworkError, match="duplicate node"):
        parse_network(text)


@pytest.mark.parametrize("block", ["comp q1 _r0", "comp q1 comm _c1a"])
def test_parse_rejects_reserved_node_names(block):
    with pytest.raises(NetworkError, match="line 1: qubit name '_.*': the prefix '_' is reserved"):
        parse_network(f"processor P1 {{ {block} }}\n")


@pytest.mark.parametrize("extra", ["local q1 zz", "elink zz c1"])
def test_parse_rejects_an_undeclared_node_on_its_line(extra):
    # TOY_NETWORK ends on line 16, so the added line is line 17.
    with pytest.raises(NetworkError, match="^line 17: undeclared node 'zz'$"):
        parse_network(TOY_NETWORK + extra + "\n")


def test_parse_rejects_cross_processor_local():
    text = TOY_NETWORK + "local q1 q3\n"
    with pytest.raises(NetworkError, match="crosses processors"):
        parse_network(text)


def test_quotient_of_toy(toy_network):
    q = quotient(toy_network)
    assert q.capacity == {("P1", "P2"): 2, ("P2", "P3"): 1}
    assert ("P1", "P3") not in q.capacity  # no mutual links, no edge
    assert sum(q.capacity.values()) == len(toy_network.links)


def test_quotient_parallel_links():
    lines = [
        "processor A { comm " + " ".join(f"x{i}" for i in range(5)) + " comp qa }",
        "processor B { comm " + " ".join(f"y{i}" for i in range(5)) + " comp qb }",
    ]
    lines += [f"elink x{i} y{i}" for i in range(5)]
    q = quotient(parse_network("\n".join(lines)))
    assert q.capacity == {("A", "B"): 5}


def test_quotient_invariant_under_relabeling(toy_network):
    renamed = TOY_NETWORK
    for old, new in [("c1", "z9"), ("c2", "z8"), ("c3", "z7")]:
        renamed = renamed.replace(old, new)
    q1, q2 = quotient(toy_network), quotient(parse_network(renamed))
    assert sorted(q1.capacity.values()) == sorted(q2.capacity.values())


def test_links_by_edge_orientation(toy_network):
    table = links_by_edge(toy_network)
    assert table[("P1", "P2")] == [("c1", "c3"), ("c2", "c4")]
    assert table[("P2", "P3")] == [("c5", "c6")]


def test_node_maps_match_declaration_scans(toy_network):
    # processor_of and local_neighbors answer from maps built once per
    # graph; they must agree with scanning the declarations.
    for name, (comp, comm) in toy_network.processors.items():
        for node in comp + comm:
            assert toy_network.processor_of(node) == name
            scan = [b if a == node else a for a, b in toy_network.locals_ if node in (a, b)]
            assert toy_network.local_neighbors(node) == scan
    assert toy_network.local_neighbors("c3") == ["c4", "c5"]
    assert toy_network.local_neighbors("q3") == ["c4", "c5"]
    # Each call hands out a new list: mutating one leaves the graph alone.
    toy_network.local_neighbors("q1").append("intruder")
    assert toy_network.local_neighbors("q1") == ["q2", "c1"]
    with pytest.raises(NetworkError, match="unknown node 'nowhere'"):
        toy_network.processor_of("nowhere")
    assert toy_network.local_neighbors("nowhere") == []
