import random

from dqcc.circuit import extract_commodities, layerize, parse_circuit
from dqcc.flow import e_depth, quickest
from dqcc.network import quotient
from dqcc.relations import build_relations
from dqcc.rewrite import PredicateStats
from conftest import commodities_of, hub_chain, hub_network


def cascade():
    # three remote cx in logical conflict on the middle qubit
    src = "qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\ncx q3 q2\n"
    circ = layerize(parse_circuit(src))
    coms = extract_commodities(circ, {"q1": "P1", "q2": "P2", "q3": "P3"})
    return circ, coms


def test_precedence_follows_layers():
    circ, coms = cascade()
    table = build_relations(coms, circ, budget=4)
    assert table.prec(1, 2) and table.prec(2, 3) and table.prec(1, 3)
    assert not table.prec(2, 1)
    # irreflexive and asymmetric by construction
    assert not table.prec(1, 1)


def test_same_layer_pairs_share_and_never_precede():
    src = "qubits a b c d\ncx a b\ncx c d\n"
    circ = layerize(parse_circuit(src))
    coms = extract_commodities(circ, {"a": "P1", "b": "P2", "c": "P3", "d": "P4"})
    table = build_relations(coms, circ, budget=0)
    assert not table.prec(1, 2)
    assert table.qp(1, 2)


def test_sharing_not_transitive_under_tight_budget():
    circ, coms = cascade()
    table = build_relations(coms, circ, budget=1)
    assert table.qp(1, 2)
    assert table.qp(2, 3)
    assert not table.qp(1, 3)  # the two single-layer merges do not stack


def test_generous_budget_restores_the_chain():
    circ, coms = cascade()
    table = build_relations(coms, circ, budget=4)
    assert table.qp(1, 3)


def test_disabled_quasi_parallelism():
    circ, coms = cascade()
    table = build_relations(coms, circ, budget=8, enable_qp=False)
    assert not table.qp(1, 2) and not table.qp(2, 3)


def test_dump_format():
    circ, coms = cascade()
    table = build_relations(coms, circ, budget=1)
    lines = table.dump().splitlines()
    assert lines[0] == "1 2 prec=1 qp=1"
    assert lines[-1] == "2 3 prec=1 qp=1"
    assert "1 3 prec=1 qp=0" in lines


def test_disabling_qp_never_lowers_depth():
    rng = random.Random(20)
    for trial in range(12):
        k = rng.randint(2, 4)
        chain = hub_chain(k)
        cap = rng.randint(1, k)
        circ, net, coms = commodities_of(chain, hub_network(k, cap))
        q = quotient(net)
        on = build_relations(coms, circ, budget=6, enable_qp=True)
        off = build_relations(coms, circ, budget=6, enable_qp=False)
        d_on = e_depth(quickest(q, coms, on))
        d_off = e_depth(quickest(q, coms, off))
        assert d_on <= d_off


def test_each_pair_evaluated_at_most_once_per_build():
    # The pivot recursion of a long pair must read the shorter pairs' costs
    # from the build's table, not evaluate them again.
    for k in (6, 10, 16, 24):
        circ, _, coms = commodities_of(hub_chain(k), hub_network(k, 1))
        stats = PredicateStats()
        build_relations(coms, circ, budget=4, stats=stats)
        assert stats.recursive_calls <= k * (k - 1) // 2
