import pytest

from dqcc.circuit import extract_commodities, layerize, parse_circuit
from dqcc.rewrite import (
    ExtendedCircuit,
    PauliTerm,
    PredicateStats,
    bare_telegate,
    cx,
    e,
    forward_measurement_bit,
    h,
    lifetime,
    lifetimes,
    m,
    merge_cost,
    push_backward,
    push_forward,
    px,
    pz,
    quasi_parallel,
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


# --- push_forward -------------------------------------------------------


def test_forward_x_on_control_duplicates():
    out = push_forward(PauliTerm("x", "a", B), cx("a", "b"))
    assert {(p.kind, p.qubit) for p in out} == {("x", "a"), ("x", "b")}


def test_forward_z_on_target_duplicates():
    out = push_forward(PauliTerm("z", "b", B), cx("a", "b"))
    assert {(p.kind, p.qubit) for p in out} == {("z", "a"), ("z", "b")}


def test_forward_commuting_cases():
    assert push_forward(PauliTerm("z", "a", B), cx("a", "b")) == [PauliTerm("z", "a", B)]
    assert push_forward(PauliTerm("x", "b", B), cx("a", "b")) == [PauliTerm("x", "b", B)]


def test_forward_through_t():
    assert push_forward(PauliTerm("z", "a", B), t("a")) == [PauliTerm("z", "a", B)]
    assert push_forward(PauliTerm("x", "a", B), t("a")) is None


def test_forward_through_h_swaps_kind():
    assert push_forward(PauliTerm("x", "a", B), h("a")) == [PauliTerm("z", "a", B)]
    assert push_forward(PauliTerm("z", "a", B), h("a")) == [PauliTerm("x", "a", B)]


def test_forward_measurement_bit_rewrites_dependents():
    meas = m("c", "mb")
    down = [px("v", F({"mb"})), pz("w", F({"mb", "o"})), px("u", F({"o"}))]
    out = forward_measurement_bit(PauliTerm("x", "c", B), meas, down)
    assert out[0].expr == F({"mb", "b"})
    assert out[1].expr == F({"mb", "o", "b"})
    assert out[2].expr == F({"o"})


def test_forward_measurement_bit_empty_expr_is_noop():
    down = [px("v", F({"mb"}))]
    out = forward_measurement_bit(PauliTerm("x", "c", F()), m("c", "mb"), down)
    assert out == down


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
    _, plan = merge_cost(coms[0], coms[1], circ, coms)
    frag = list(plan.in_step) + [e("u", "v"), m("u", "x")]  # v is never measured
    every = lifetimes(frag)
    assert set(every) == {"_c1a", "_c1b", "_c2a", "_c2b", "u"}
    assert every == {q: lifetime(frag, q) for q in every}
    assert lifetimes(bare_telegate(coms[0])) == {"_c1a": 1, "_c1b": 2}


def test_merged_conflict_pair_max_lifetime_two():
    circ, coms = conflict_pair()
    _, plan = merge_cost(coms[0], coms[1], circ, coms)
    peaks = {q: lifetime(list(plan.in_step), q) for q in ("_c1a", "_c1b", "_c2a", "_c2b")}
    assert max(peaks.values()) == 2


# --- merge engine and the sharing predicate -----------------------------


def test_conflict_pair_merge_matches_protocol_rewrite():
    circ, coms = conflict_pair()
    cost, plan = merge_cost(coms[0], coms[1], circ, coms)
    assert cost == 1
    by_qubit = {(g.qubits[0], g.kind): g.expr for g in plan.corrections}
    assert by_qubit[("q1", "pz")] == F({"_b1b"})
    assert by_qubit[("q2", "pz")] == F({"_b2b"})
    assert by_qubit[("q2", "px")] == F({"_b1a"})
    assert by_qubit[("q3", "px")] == F({"_b1a", "_b2a"})  # forwarded bit


def test_predicate_budget_semantics():
    circ, coms = conflict_pair()
    ok0, _ = quasi_parallel(coms[0], coms[1], 0, circ, coms)
    ok1, plan = quasi_parallel(coms[0], coms[1], 1, circ, coms)
    assert not ok0 and ok1 and plan is not None


def test_predicate_same_layer_true_any_budget():
    circ, coms = conflict_pair("qubits q1 q2 q3 q4\ncx q1 q2\ncx q3 q4\n")
    assert coms[0].layer == coms[1].layer
    ok, plan = quasi_parallel(coms[0], coms[1], 0, circ, coms)
    assert ok and plan is None


def test_predicate_independent_pair_true():
    # i and j sit in contiguous layers yet share no cone: the middle gate
    # keeps them apart but never connects their operands.
    circ, coms = conflict_pair("qubits q1 q2 q3 q4\ncx q1 q2\ncx q4 q3\ncx q3 q4\n")
    first, third = coms[0], coms[2]
    assert first.layer != third.layer
    ok, _ = quasi_parallel(first, third, 0, circ, coms)
    assert ok


def test_predicate_budget_monotonic():
    circ, coms = conflict_pair(
        "qubits q1 q2 q3 q4\ncx q1 q2\nh q2\ncx q2 q3\nh q3\ncx q4 q3\n"
    )
    results = [
        quasi_parallel(coms[0], coms[2], b, circ, coms)[0] for b in range(0, 8)
    ]
    assert results == sorted(results)  # False ... then True forever


def test_predicate_blocked_by_t_on_shared_wire():
    circ, coms = conflict_pair("qubits q1 q2 q3\ncx q1 q2\nt q2\ncx q2 q3\n")
    cost, _ = merge_cost(coms[0], coms[1], circ, coms)
    assert cost is None
    ok, _ = quasi_parallel(coms[0], coms[1], 99, circ, coms)
    assert not ok


def test_predicate_passes_t_on_control_wire():
    circ, coms = conflict_pair("qubits q1 q2 q3\ncx q2 q1\nt q2\ncx q2 q3\n")
    cost, plan = merge_cost(coms[0], coms[1], circ, coms)
    assert cost is not None
    merged = ExtendedCircuit(("q1", "q2", "q3"), plan.in_step + plan.corrections)
    seq = ExtendedCircuit(("q1", "q2", "q3"), plan.sequential)
    assert equivalent_fragments(merged, seq).equal


def test_recursion_through_intermediate_remote():
    circ, coms = conflict_pair("qubits q1 q2 q3 q4\ncx q1 q2\ncx q2 q3\ncx q3 q4\n")
    stats = PredicateStats()
    cost, plan = merge_cost(coms[0], coms[2], circ, coms, stats)
    assert cost == 2  # both pairwise merges cost one layer each
    assert plan is None  # composite pairs carry no single plan
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
        cost, plan = merge_cost(coms[0], coms[1], circ, coms)
        assert cost is not None, src
        qubits = tuple(circ.qubits)
        merged = ExtendedCircuit(qubits, plan.in_step + plan.corrections)
        seq = ExtendedCircuit(qubits, plan.sequential)
        rep = equivalent_fragments(merged, seq)
        assert rep.equal, (src, rep.max_deviation)


def test_rewrite_outputs_no_inline_paulis():
    circ, coms = conflict_pair()
    _, plan = merge_cost(coms[0], coms[1], circ, coms)
    assert all(g.kind not in ("px", "pz") for g in plan.in_step)
    assert all(g.kind in ("px", "pz") for g in plan.corrections)
    # every fragment gate still one of the extended kinds
    assert {g.kind for g in plan.in_step} <= {"e", "cx", "h", "t", "m"}


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
        cost, plan = merge_cost(coms[0], coms[1], circ, coms)
        if cost is None:
            continue
        merged_count += 1
        qubits = tuple(circ.qubits)
        rep = equivalent_fragments(
            ExtendedCircuit(qubits, plan.in_step + plan.corrections),
            ExtendedCircuit(qubits, plan.sequential),
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
        _, plan = merge_cost(coms[0], coms[1], circ, coms)
        merged_depth = max(asap_layers(list(plan.in_step) + list(plan.corrections)))
        sequential_depth = max(asap_layers(list(plan.sequential)))
        assert merged_depth <= sequential_depth, src


def test_merge_keeps_two_pre_cx_per_telegate():
    # the backward rules may flip a pre-processing cx but never split or
    # absorb it: each telegate still contributes two comm-touching cx
    for src in (
        "qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n",
        "qubits q1 q2 q3\ncx q1 q2\nh q2\ncx q2 q3\n",
    ):
        circ, coms = conflict_pair(src)
        _, plan = merge_cost(coms[0], coms[1], circ, coms)
        comm = {q for g in plan.in_step if g.kind == "e" for q in g.qubits}
        touching = [g for g in plan.in_step if g.kind == "cx" and comm & set(g.qubits)]
        assert len(touching) == 4
