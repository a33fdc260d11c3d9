import pytest

from dqcc.circuit import extract_commodities, layerize, parse_circuit
from dqcc.relations import MergeCosts
from dqcc.rewrite import (
    ExtendedCircuit,
    PredicateStats,
    bare_telegate,
    cx,
    e,
    h,
    lifetime,
    lifetimes,
    m,
    push_backward,
    px,
    pz,
    rewrite_step,
    t,
)
from dqcc.simulate import equivalent_fragments

F = frozenset
B = F({"b"})


def conflict_pair(src="qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n"):
    circ = layerize(parse_circuit(src))
    coms = extract_commodities(circ, {f"q{i}": f"P{i}" for i in range(1, 9)})
    return circ, coms


def cost_of(circ, coms, ci, cj, stats=None):
    """The pair's merge cost, evaluated in a fresh table."""
    return MergeCosts(circ, coms, stats).cost(ci, cj)


def shares(circ, coms, ci, cj, budget):
    """The sharing decision ``build_relations`` makes for the pair."""
    cost = cost_of(circ, coms, ci, cj)
    return cost is not None and cost <= budget


def merged_pair(circ, coms, ci, cj):
    """The pair's sequential fragment and its rewrite (None when the rule
    engine cannot merge it)."""
    seq = MergeCosts(circ, coms).fragment(ci, cj)
    return seq, rewrite_step(seq)


# --- the forward pass: a Pauli frame swept through the fragment ---------


@pytest.mark.parametrize(
    "gates, in_step, corrections, rules",
    [
        # h swaps a qubit's X and Z parts
        pytest.param([px("a", B), h("a")], [h("a")], [pz("a", B)], 1, id="x-through-h"),
        pytest.param([pz("a", B), h("a")], [h("a")], [px("a", B)], 1, id="z-through-h"),
        # cx copies an X on the control onto the target, a Z on the target
        # onto the control; the other two parts commute
        pytest.param([px("a", B), cx("a", "b")], [cx("a", "b")], [px("a", B), px("b", B)], 1,
                     id="x-on-control-copies"),
        pytest.param([pz("b", B), cx("a", "b")], [cx("a", "b")], [pz("a", B), pz("b", B)], 1,
                     id="z-on-target-copies"),
        pytest.param([pz("a", B), cx("a", "b")], [cx("a", "b")], [pz("a", B)], 0,
                     id="z-on-control-commutes"),
        pytest.param([px("b", B), cx("a", "b")], [cx("a", "b")], [px("b", B)], 0,
                     id="x-on-target-commutes"),
        # a Z passes a t; an X cannot
        pytest.param([pz("a", B), t("a")], [t("a")], [pz("a", B)], 0, id="z-through-t"),
        pytest.param([px("a", B), t("a")], None, None, 0, id="x-refused-at-t"),
        # an X before a measurement folds into every later reader of the bit
        pytest.param([px("c", B), m("c", "mb"), px("v", F({"mb"}))], [m("c", "mb")],
                     [px("v", F({"mb", "b"}))], 1, id="x-folds-into-an-x-reader"),
        pytest.param([px("c", B), m("c", "mb"), pz("w", F({"mb", "o"}))], [m("c", "mb")],
                     [pz("w", F({"mb", "o", "b"}))], 1, id="x-folds-into-a-z-reader"),
        pytest.param([px("c", B), m("c", "mb"), px("u", F({"o"}))], [m("c", "mb")],
                     [px("u", F({"o"}))], 1, id="x-fold-skips-other-bits"),
        # a Z before a measurement only changes the branch phase
        pytest.param([pz("c", B), m("c", "mb"), px("v", F({"mb"}))], [m("c", "mb")],
                     [px("v", F({"mb"}))], 1, id="z-dropped-at-m"),
        # an empty exponent changes nothing
        pytest.param([px("c", F()), m("c", "mb"), px("v", F({"mb"}))], [m("c", "mb")],
                     [px("v", F({"mb"}))], 0, id="empty-x-at-m"),
        pytest.param([px("a", F()), t("a")], [t("a")], [], 0, id="empty-x-at-t"),
    ],
)
def test_frame_through_one_gate(gates, in_step, corrections, rules):
    counter = [0]
    out = rewrite_step(gates, counter)
    if in_step is None:
        assert out is None
    else:
        assert (out.in_step, out.corrections) == (in_step, corrections)
        assert counter == [rules]


def test_x_cancelled_before_a_t_clears_it():
    # The X on q1 is copied onto q0, and the second cx copies it back onto
    # q1, where the two copies cancel before `t q1`.
    gates = [h("s"), m("s", "b"), px("q1", B), cx("q1", "q0"), cx("q0", "q1"), t("q1")]
    out = rewrite_step(gates)
    assert out is not None and out.corrections == [px("q0", B)]
    register = ("s", "q0", "q1")
    rep = equivalent_fragments(
        ExtendedCircuit(register, tuple(out.in_step + out.corrections)),
        ExtendedCircuit(register, tuple(gates)),
    )
    assert rep.equal, rep.max_deviation


def test_x_fold_updates_every_reader_of_the_bit():
    # The X on a is copied onto c, then folds into the measurement of a,
    # whose bit b three things read: the Z already parked on p, the copy on
    # c still queued, and the later correction on r. Each takes the X's
    # exponent {b, s}; the copy's exponent cancels and it is dropped.
    gates = [
        pz("p", F({"b"})),
        px("a", F({"b", "s"})),
        cx("a", "c"),
        m("a", "b"),
        pz("r", F({"b"})),
    ]
    counter = [0]
    out = rewrite_step(gates, counter)
    assert out.in_step == [cx("a", "c"), m("a", "b")]
    assert out.corrections == [pz("p", F({"s"})), pz("r", F({"s"}))]
    assert counter == [2]  # the copy through the cx and the fold


# --- push_backward ------------------------------------------------------


def test_backward_t_on_control():
    assert push_backward(cx("a", "b"), t("a")) == [cx("a", "b"), t("a")]
    assert push_backward(cx("a", "b"), t("b")) is None


def test_backward_cx_sharing():
    assert push_backward(cx("a", "b"), cx("c", "b")) is not None  # common target
    assert push_backward(cx("a", "b"), cx("a", "c")) is not None  # common control
    assert push_backward(cx("a", "b"), cx("b", "c")) is None
    assert push_backward(cx("a", "b"), cx("c", "a")) is None


def test_backward_single_h_flips():
    out = push_backward(cx("a", "b"), h("b"))
    assert out == [h("a"), cx("b", "a"), h("b"), h("a")]


# --- lifetime -----------------------------------------------------------


def test_lifetime_of_bare_telegate():
    circ, coms = conflict_pair("qubits q1 q2\ncx q1 q2\n")
    frag = bare_telegate(coms[0])
    comm_c, comm_t = "_c1a", "_c1b"
    assert lifetime(frag, comm_c) == 1  # its cx, then measured
    assert lifetime(frag, comm_t) == 2  # cx then h before the measurement


def test_lifetime_e_then_m_is_zero():
    frag = [e("a", "b"), m("a", "x"), m("b", "y")]
    assert lifetime(frag, "a") == 0


def test_lifetime_requires_pair():
    with pytest.raises(ValueError):
        lifetime([e("a", "b"), m("a", "x")], "b" + "?")


def test_lifetimes_takes_every_paired_qubit_from_one_layering():
    circ, coms = conflict_pair()
    _, out = merged_pair(circ, coms, coms[0], coms[1])
    frag = list(out.in_step) + [e("u", "v"), m("u", "x")]  # v is never measured
    every = lifetimes(frag)
    assert set(every) == {"_c1a", "_c1b", "_c2a", "_c2b", "u"}
    assert every == {q: lifetime(frag, q) for q in every}
    assert lifetimes(bare_telegate(coms[0])) == {"_c1a": 1, "_c1b": 2}


def test_merged_conflict_pair_max_lifetime_two():
    circ, coms = conflict_pair()
    _, out = merged_pair(circ, coms, coms[0], coms[1])
    peaks = {q: lifetime(list(out.in_step), q) for q in ("_c1a", "_c1b", "_c2a", "_c2b")}
    assert max(peaks.values()) == 2


# --- merge engine and the sharing predicate -----------------------------


def test_conflict_pair_merge_matches_protocol_rewrite():
    circ, coms = conflict_pair()
    assert cost_of(circ, coms, coms[0], coms[1]) == 1
    _, out = merged_pair(circ, coms, coms[0], coms[1])
    by_qubit = {(g.qubits[0], g.kind): g.expr for g in out.corrections}
    assert by_qubit[("q1", "pz")] == F({"_b1b"})
    assert by_qubit[("q2", "pz")] == F({"_b2b"})
    assert by_qubit[("q2", "px")] == F({"_b1a"})
    assert by_qubit[("q3", "px")] == F({"_b1a", "_b2a"})  # forwarded bit


def test_predicate_budget_semantics():
    circ, coms = conflict_pair()
    ok0 = shares(circ, coms, coms[0], coms[1], 0)
    ok1 = shares(circ, coms, coms[0], coms[1], 1)
    assert not ok0 and ok1 and merged_pair(circ, coms, coms[0], coms[1])[1] is not None


def test_predicate_same_layer_true_any_budget():
    circ, coms = conflict_pair("qubits q1 q2 q3 q4\ncx q1 q2\ncx q3 q4\n")
    assert coms[0].layer == coms[1].layer
    stats = PredicateStats()
    assert cost_of(circ, coms, coms[0], coms[1], stats) == 0
    assert stats.rule_applications == 0  # decided without a rewrite


def test_predicate_independent_pair_true():
    # i and j sit in contiguous layers yet share no cone: the middle gate
    # keeps them apart but never connects their operands.
    circ, coms = conflict_pair("qubits q1 q2 q3 q4\ncx q1 q2\ncx q4 q3\ncx q3 q4\n")
    first, third = coms[0], coms[2]
    assert first.layer != third.layer
    assert shares(circ, coms, first, third, 0)


def test_predicate_budget_monotonic():
    circ, coms = conflict_pair(
        "qubits q1 q2 q3 q4\ncx q1 q2\nh q2\ncx q2 q3\nh q3\ncx q4 q3\n"
    )
    results = [shares(circ, coms, coms[0], coms[2], b) for b in range(0, 8)]
    assert results == sorted(results)  # False ... then True forever


def test_predicate_blocked_by_t_on_shared_wire():
    circ, coms = conflict_pair("qubits q1 q2 q3\ncx q1 q2\nt q2\ncx q2 q3\n")
    assert cost_of(circ, coms, coms[0], coms[1]) is None
    assert not shares(circ, coms, coms[0], coms[1], 99)


def test_predicate_passes_t_on_control_wire():
    circ, coms = conflict_pair("qubits q1 q2 q3\ncx q2 q1\nt q2\ncx q2 q3\n")
    assert cost_of(circ, coms, coms[0], coms[1]) is not None
    sequential, out = merged_pair(circ, coms, coms[0], coms[1])
    merged = ExtendedCircuit(("q1", "q2", "q3"), tuple(out.in_step + out.corrections))
    seq = ExtendedCircuit(("q1", "q2", "q3"), tuple(sequential))
    assert equivalent_fragments(merged, seq).equal


def test_recursion_through_intermediate_remote():
    circ, coms = conflict_pair("qubits q1 q2 q3 q4\ncx q1 q2\ncx q2 q3\ncx q3 q4\n")
    stats = PredicateStats()
    cost = cost_of(circ, coms, coms[0], coms[2], stats)
    assert cost == 2  # both pairwise merges cost one layer each
    # composite pairs run no rewrite of their own: only their sub-pairs do
    halves = [PredicateStats(), PredicateStats()]
    cost_of(circ, coms, coms[0], coms[1], halves[0])
    cost_of(circ, coms, coms[1], coms[2], halves[1])
    assert stats.rule_applications == sum(h.rule_applications for h in halves)
    assert stats.recursive_calls >= 3


def test_merge_plans_are_equivalent_to_sequential():
    cases = [
        "qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q1 q2\ncx q3 q2\n",
        "qubits q1 q2 q3\ncx q2 q1\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q2 q1\ncx q3 q2\n",
        "qubits q1 q2 q3\ncx q1 q2\nh q2\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q1 q2\nh q2\nh q1\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q1 q2\nt q1\ncx q2 q3\n",
    ]
    for src in cases:
        circ, coms = conflict_pair(src)
        assert cost_of(circ, coms, coms[0], coms[1]) is not None, src
        sequential, out = merged_pair(circ, coms, coms[0], coms[1])
        qubits = tuple(circ.qubits)
        merged = ExtendedCircuit(qubits, tuple(out.in_step + out.corrections))
        seq = ExtendedCircuit(qubits, tuple(sequential))
        rep = equivalent_fragments(merged, seq)
        assert rep.equal, (src, rep.max_deviation)


def test_commuted_cx_moves_in_front_of_the_gate_it_passes():
    # The pre-processing cx of `cx q1 q3` commutes past the local `cx q1 q4`
    # (common control). `h q4` lies between the two, so swapping the two
    # cx gates would move `cx q1 q4` past `h q4` and change the fragment.
    circ = layerize(parse_circuit("qubits q1 q2 q3 q4\ncx q1 q2\ncx q1 q4\nh q4\ncx q1 q3\n"))
    coms = extract_commodities(circ, {"q1": "P1", "q4": "P1", "q2": "P2", "q3": "P3"})
    sequential, out = merged_pair(circ, coms, coms[0], coms[1])
    rep = equivalent_fragments(
        ExtendedCircuit(circ.qubits, tuple(out.in_step + out.corrections)),
        ExtendedCircuit(circ.qubits, tuple(sequential)),
    )
    assert rep.equal, rep.max_deviation


def test_rewrite_outputs_no_inline_paulis():
    circ, coms = conflict_pair()
    _, out = merged_pair(circ, coms, coms[0], coms[1])
    assert all(g.kind not in ("px", "pz") for g in out.in_step)
    assert all(g.kind in ("px", "pz") for g in out.corrections)
    # every fragment gate still one of the extended kinds
    assert {g.kind for g in out.in_step} <= {"e", "cx", "h", "t", "m"}


def test_rewrite_step_keeps_rule_count():
    circ, coms = conflict_pair()
    seq = list(bare_telegate(coms[0])) + list(bare_telegate(coms[1]))
    counter = [0]
    out = rewrite_step(seq, counter)
    assert out is not None and counter[0] > 0


def test_randomized_merges_stay_sound():
    import random

    rng = random.Random(13)
    merged_count = 0
    for _ in range(60):
        first = rng.choice(["cx q1 q2", "cx q2 q1"])
        second = rng.choice(["cx q2 q3", "cx q3 q2"])
        locals_ = [
            rng.choice(["h q1", "h q2", "h q3", "t q1", "t q2", "t q3", "cx q2 q4", "cx q4 q2"])
            for _ in range(rng.randint(0, 3))
        ]
        src = "qubits q1 q2 q3 q4\n" + "\n".join([first, *locals_, second]) + "\n"
        circ = layerize(parse_circuit(src))
        coms = extract_commodities(
            circ, {"q1": "P1", "q2": "P2", "q3": "P3", "q4": "P2"}
        )
        if len(coms) != 2:
            continue
        if cost_of(circ, coms, coms[0], coms[1]) is None:
            continue
        sequential, out = merged_pair(circ, coms, coms[0], coms[1])
        merged_count += 1
        qubits = tuple(circ.qubits)
        rep = equivalent_fragments(
            ExtendedCircuit(qubits, tuple(out.in_step + out.corrections)),
            ExtendedCircuit(qubits, tuple(sequential)),
        )
        assert rep.equal, (src, rep.max_deviation)
    assert merged_count >= 25  # the generator must keep feeding real merges


def test_merge_never_deepens_fragment():
    from dqcc.rewrite import asap_layers

    cases = [
        "qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q1 q2\nh q2\ncx q2 q3\n",
        "qubits q1 q2 q3 q4\ncx q1 q2\nh q2\ncx q2 q3\nh q3\ncx q4 q3\n",
    ]
    for src in cases:
        circ, coms = conflict_pair(src)
        sequential, out = merged_pair(circ, coms, coms[0], coms[1])
        merged_depth = max(asap_layers(out.in_step + out.corrections))
        sequential_depth = max(asap_layers(sequential))
        assert merged_depth <= sequential_depth, src


def test_merge_keeps_two_pre_cx_per_telegate():
    # the backward rules may flip a pre-processing cx but never split or
    # absorb it: each telegate still contributes two comm-touching cx
    for src in (
        "qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q1 q2\nh q2\ncx q2 q3\n",
    ):
        circ, coms = conflict_pair(src)
        _, out = merged_pair(circ, coms, coms[0], coms[1])
        comm = {q for g in out.in_step if g.kind == "e" for q in g.qubits}
        touching = [g for g in out.in_step if g.kind == "cx" and comm & set(g.qubits)]
        assert len(touching) == 4
