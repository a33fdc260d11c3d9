import re
import tracemalloc

import numpy as np
import pytest

from dqcc import simulate
from dqcc.circuit import parse_circuit
from dqcc.rewrite import ExtendedCircuit, cx, e, h, m, px, pz, t
from dqcc.simulate import (
    Ensemble,
    SimulationError,
    _hs_distance,
    equivalent,
    equivalent_fragments,
    run,
)
from conftest import PAIRS_UP_FRONT

F = frozenset


def telegate(qc, qt, cw, cr, bw, br):
    return (
        e(cw, cr),
        cx(qc, cw),
        cx(cr, qt),
        h(cr),
        m(cw, bw),
        m(cr, br),
        pz(qc, F({br})),
        px(qt, F({bw})),
    )


def test_single_entangling_gate_amplitudes():
    ens = run(ExtendedCircuit((), (e("a", "b"),)))
    assert len(ens.probs) == 1
    vec = ens.vectors(("a", "b"))[0]
    assert np.allclose(vec, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_empty_circuit_keeps_input():
    state = np.array([0.6, 0.8j], dtype=complex)
    ens = run(ExtendedCircuit(("q",), ()), state)
    assert len(ens.probs) == 1
    assert np.allclose(ens.vectors(("q",))[0], state)


def test_vectors_permute_the_columns_of_every_row():
    ens = Ensemble(("a", "b"), np.eye(4, dtype=complex)[[1, 2]], (), [(), ()], [0.5, 0.5], 2)
    # Row 0 is |01> over (a, b), row 1 is |10>; over (b, a) they swap.
    assert np.array_equal(ens.vectors(("b", "a")), np.eye(4)[[2, 1]])
    assert np.array_equal(ens.vectors(("a", "b")), ens.amps)
    with pytest.raises(SimulationError, match="holds"):
        ens.vectors(("a", "c"))


def test_telegate_on_10_gives_11_in_all_branches():
    circ = ExtendedCircuit(("qa", "qb"), telegate("qa", "qb", "c1", "c2", "b1", "b2"))
    inp = np.zeros(4, dtype=complex)
    inp[2] = 1.0  # |10>
    ens = run(circ, inp)
    # The corrections make the four outcomes one state, so they merge.
    assert len(ens.probs) == 1
    assert abs(ens.probs[0] - 1.0) < 1e-12
    assert abs(ens.vectors(("qa", "qb"))[0, 3]) > 1 - 1e-12


def test_branch_probabilities_sum_to_one():
    circ = ExtendedCircuit(("qa", "qb"), telegate("qa", "qb", "c1", "c2", "b1", "b2"))
    rng = np.random.default_rng(3)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    ens = run(circ, vec)
    assert abs(sum(ens.probs) - 1.0) < 1e-12


def test_corrections_make_branches_agree():
    # Teleportation-style determinism: every branch carries the same
    # post-correction state on the computation qubits.
    circ = ExtendedCircuit(("qa", "qb"), telegate("qa", "qb", "c1", "c2", "b1", "b2"))
    rng = np.random.default_rng(5)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    ref, *others = run(circ, vec).vectors(("qa", "qb"))
    for other in others:
        assert abs(abs(np.vdot(ref, other)) - 1.0) < 1e-12


def test_measurement_free_circuit_single_branch():
    circ = ExtendedCircuit(("q",), (h("q"), t("q"), h("q")))
    assert len(run(circ).probs) == 1


def test_deterministic_measurement_prunes_branches():
    # h then h restores |0>, so the measurement has one surviving branch;
    # the bit is dropped after px reads it, and r left in |0> shows b = 0.
    circ = ExtendedCircuit(("q", "r"), (h("q"), h("q"), m("q", "b"), px("r", F({"b"}))))
    ens = run(circ)
    assert len(ens.probs) == 1 and ens.bits == () and ens.vals == [()]
    assert abs(ens.probs[0] - 1.0) < 1e-12
    assert abs(ens.vectors(("r",))[0, 0]) > 1 - 1e-12


def test_gate_on_consumed_qubit_rejected():
    circ = ExtendedCircuit((), (e("a", "b"), m("a", "x"), h("a")))
    with pytest.raises(SimulationError, match="consumed"):
        run(circ)


def test_entangling_live_qubit_rejected():
    circ = ExtendedCircuit(("q",), (e("q", "c"),))
    with pytest.raises(SimulationError, match="live"):
        run(circ)


def test_unmeasured_bit_rejected():
    circ = ExtendedCircuit(("q",), (px("q", F({"nope"})),))
    with pytest.raises(SimulationError, match="unmeasured"):
        run(circ)


@pytest.mark.parametrize("gate", [cx("q", "q"), e("c", "c")])
def test_gate_repeating_a_qubit_rejected(gate):
    with pytest.raises(SimulationError, match="repeats a qubit"):
        run(ExtendedCircuit(("q",), (gate,)))


def test_memory_budget_refuses_before_allocating(monkeypatch):
    # Six measured wires whose bits stay live until the last gate: 64 rows
    # of one amplitude, so the entangling gate would make an array of 64
    # rows of 4 amplitudes (4 KiB), and 8 KiB with the copy a gate makes.
    wires = tuple(f"w{i}" for i in range(6))
    gates = tuple(g for i, w in enumerate(wires) for g in (h(w), m(w, f"b{i}")))
    gates += (e("a", "b"), px("a", F(f"b{i}" for i in range(6))))
    circuit = ExtendedCircuit(wires, gates)
    monkeypatch.setattr(simulate, "MEMORY_BUDGET", 8191)
    message = "memory budget 8191 B exceeded: e a b needs 8192 B"
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        run(circuit)
    monkeypatch.setattr(simulate, "MEMORY_BUDGET", 8192)
    assert len(run(circuit).probs) == 2  # the px reads the last of each bit


# Two measurements leave four branches with one state. b1 is read by no
# gate, so they merge into two at once; b0 keeps those apart until px
# reads it, and the px leaves r in |0> in one and |1> in the other. No gate
# uses the pairs of e(a, b) or an added e(c, d), so both run last, on the
# two branches of 11 computation qubits: 2 rows of 2**11 amplitudes
# (64 KiB) grow to 2 rows of 2**13 (256 KiB), which e(c, d) would make
# four times wider and copy, 2 MiB in all.
WIDE = ("q", "r") + tuple(f"w{i}" for i in range(11))
SPLIT = (h("q"), m("q", "b0"), h("w0"), m("w0", "b1"), e("a", "b"))
JOIN = (px("r", F({"b0"})),)
BUDGET = 2**21 - 1


def test_split_run_holds_two_branches():
    assert len(run(ExtendedCircuit(WIDE, SPLIT + JOIN)).probs) == 2


@pytest.mark.parametrize(
    "gate, message",
    [
        (px("r", F({"nope"})), "gate xc r nope reads unmeasured bit 'nope'"),
        (t("q"), "gate t q on consumed or unknown qubit 'q'"),
        (e("c", "r"), "entangling gate on live qubit 'r'"),
        (e("c", "d"), f"memory budget {BUDGET} B exceeded: e c d needs {BUDGET + 1} B"),
    ],
)
def test_errors_fire_with_two_branches_live(gate, message, monkeypatch):
    monkeypatch.setattr(simulate, "MEMORY_BUDGET", BUDGET)
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        run(ExtendedCircuit(WIDE, SPLIT + (gate,) + JOIN))


def test_equivalent_telegate_vs_logical_cx():
    logical = parse_circuit("qubits qa qb\ncx qa qb\n")
    phys = ExtendedCircuit(("qa", "qb"), telegate("qa", "qb", "c1", "c2", "b1", "b2"))
    rep = equivalent(phys, logical)
    assert rep.equal and rep.mode == "process" and rep.max_deviation <= 1e-9


def test_equivalent_detects_wrong_correction():
    logical = parse_circuit("qubits qa qb\ncx qa qb\n")
    bad = list(telegate("qa", "qb", "c1", "c2", "b1", "b2"))
    bad[-1] = px("qa", F({"b1"}))  # correction on the wrong qubit
    rep = equivalent(ExtendedCircuit(("qa", "qb"), tuple(bad)), logical)
    assert not rep.equal


def test_ensemble_distance_weighs_probabilities():
    # Every state of one side appears on the other, but with other weights:
    # rho_L = diag(.5, .5) against rho_R = diag(.9, .1).
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    left = Ensemble(("q",), np.array([zero, one]), (), [(), ()], [0.5, 0.5], 2)
    right = Ensemble(
        ("q",), np.array([zero, one, 1j * one]), ("a",), [(0,), (1,), (1,)], [0.9, 0.05, 0.05], 3
    )
    assert abs(_hs_distance(left, right) - 0.32) < 1e-12
    # Labels, order and global phase do not count.
    same = Ensemble(("q",), np.array([-one, 1j * zero]), ("b",), [(1,), (0,)], [0.5, 0.5], 2)
    assert _hs_distance(left, same) < 1e-15


def test_swap_fragment_equals_bare_entanglement():
    swap = ExtendedCircuit(
        (),
        (
            e("cu", "cv"),
            e("cw", "cr"),
            cx("cv", "cw"),
            h("cv"),
            m("cv", "bv"),
            m("cw", "bw"),
            pz("cu", F({"bv"})),
            px("cr", F({"bw"})),
        ),
    )
    bare = ExtendedCircuit((), (e("cu", "cr"),))
    rep = equivalent_fragments(swap, bare)
    assert rep.equal


def test_fragments_with_different_output_registers_are_rejected():
    # The reference wires the check adds are not part of the message.
    left = ExtendedCircuit(("q",), (h("q"), e("c", "d")))
    right = ExtendedCircuit(("q",), (h("q"),))
    message = "fragments produce different output registers: ('q', 'c', 'd') vs ('q',)"
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        equivalent_fragments(left, right)


def test_sampled_fallback_mode():
    # Eight computation qubits once pushed the check onto a sampled
    # fallback; the process check now covers them.
    names = tuple(f"q{i}" for i in range(8))
    ident_a = ExtendedCircuit(names, (h("q0"), h("q0")))
    ident_b = ExtendedCircuit(names, ())
    rep = equivalent_fragments(ident_a, ident_b)
    assert rep.equal and rep.mode == "process"


def test_sampled_mode_catches_a_phase_only_difference():
    # A basis input only picks up a phase under t, which the output
    # ensemble cannot see; the entangled reference register can.
    names = tuple(f"q{i}" for i in range(8))
    rep = equivalent_fragments(ExtendedCircuit(names, (t("q3"),)), ExtendedCircuit(names, ()))
    assert rep.mode == "process"
    assert not rep.equal and rep.max_deviation > 0.25


def test_idle_program_qubits_stay_out_of_the_check():
    # 20 declared qubits, 2 in use: the register holds 2 program qubits,
    # their 2 references and 2 communication qubits, not 2**40 amplitudes.
    names = [f"q{i}" for i in range(20)]
    logical = parse_circuit(f"qubits {' '.join(names)}\ncx q0 q1\n")
    gates = telegate("q0", "q1", "c1", "c2", "b1", "b2")
    tracemalloc.start()
    try:
        rep = equivalent(ExtendedCircuit(tuple(names), gates), logical)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.equal and peak < 2**20
    # A gate on an idle qubit brings it into the check.
    rep = equivalent(ExtendedCircuit(tuple(names), gates + (h("q7"),)), logical)
    assert not rep.equal


def test_a_gate_holds_at_most_two_amplitude_arrays():
    # Sixteen computation qubits and one pair: the array peaks at 2**18
    # amplitudes (4 MiB) over every branch. A gate may hold the array it
    # reads and the one it makes, but no array of an earlier gate.
    wires = tuple(f"w{i}" for i in range(16))
    gates = (
        h("w0"), h("w1"), e("c", "d"), cx("w0", "c"), cx("d", "w1"), h("d"), t("w0"),
        m("c", "x"), m("d", "y"), pz("w0", F({"y"})), px("w1", F({"x"})),
    )
    largest = 2**18 * 16
    tracemalloc.start()
    try:
        run(ExtendedCircuit(wires, gates))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * largest + 2**20


def test_pairs_opened_up_front_are_held_only_while_used(monkeypatch):
    # With its references the register has 4 qubits (16 amplitudes, one row
    # between telegates). Each pair opened just before use needs
    # 2 * 4 * 16 * 16 B = 2 KiB; the third pair opened up front would need
    # 32 KiB.
    monkeypatch.setattr(simulate, "MEMORY_BUDGET", 2048)
    logical = parse_circuit("qubits qa qb\ncx qa qb\ncx qa qb\ncx qa qb\n")
    assert equivalent(PAIRS_UP_FRONT, logical).equal
