import pytest

from dqcc.circuit import extract_commodities, layerize, parse_circuit
from dqcc.expand import (
    BitAllocator,
    BoundPath,
    EmitError,
    emit_schedule,
    emit_telegate,
    entanglement_path_fragment,
    parse_physical,
)
from dqcc.flow import e_depth
from dqcc.network import links_by_edge
from dqcc.pipeline import compile, prepare
from dqcc.rewrite import ExtendedCircuit, bare_telegate, lifetime
from dqcc.simulate import equivalent, equivalent_fragments
from conftest import LINE4_NETWORK, hub_chain, hub_network


def hops(m: int) -> list[tuple[str, str]]:
    return [(f"u{t}", f"v{t}") for t in range(m)]


def test_path_fragment_single_link_is_one_stage():
    stages = entanglement_path_fragment(hops(1), BitAllocator(1))
    assert len(stages) == 1
    assert [g.kind for g in stages[0]] == ["e"]


@pytest.mark.parametrize("m", range(2, 9))
def test_path_fragment_stage_depth_constant(m):
    stages = entanglement_path_fragment(hops(m), BitAllocator(1))
    assert len(stages) == 5
    kinds = [sorted({g.kind for g in s}) for s in stages]
    assert kinds == [["e"], ["cx"], ["h"], ["m"], ["px", "pz"]]
    assert len(stages[0]) == m
    assert len(stages[3]) == 2 * (m - 1)


@pytest.mark.parametrize("m", (2, 3))
def test_path_fragment_equals_bare_link(m):
    stages = entanglement_path_fragment(hops(m), BitAllocator(1))
    frag = ExtendedCircuit((), tuple(g for s in stages for g in s))
    bare = ExtendedCircuit((), tuple(entanglement_path_fragment([("u0", f"v{m-1}")], BitAllocator(1))[0]))
    rep = equivalent_fragments(frag, bare)
    assert rep.equal, rep.max_deviation


def test_path_fragment_correction_structure():
    stages = entanglement_path_fragment(hops(4), BitAllocator(2))
    zc, xc = stages[4]
    assert zc.kind == "pz" and zc.qubits == ("u0",)
    assert xc.kind == "px" and xc.qubits == ("v3",)
    h_wires = {g.qubits[0] for g in stages[2]}
    z_sources = {g.qubits[0] for g in stages[3] if g.bit in zc.expr}
    x_sources = {g.qubits[0] for g in stages[3] if g.bit in xc.expr}
    assert z_sources == h_wires  # hadamard-side bits feed the Z correction
    assert z_sources | x_sources == {g.qubits[0] for g in stages[3]}


def fig3_commodity():
    circ = layerize(parse_circuit("qubits qa qb\ncx qa qb\n"))
    return extract_commodities(circ, {"qa": "PA", "qb": "PB"})[0], circ


def test_emit_telegate_single_hop_shape():
    com, _ = fig3_commodity()
    gates = emit_telegate(com, BoundPath((("cw", "cr"),)), BitAllocator(1))
    assert [str(g) for g in gates] == [
        "e cw cr",
        "cx qa cw",
        "cx cr qb",
        "h cr",
        "m cw -> b1_0",
        "m cr -> b1_1",
        "zc qa b1_1",
        "xc qb b1_0",
    ]


def test_emit_telegate_single_hop_equals_cx():
    com, circ = fig3_commodity()
    gates = emit_telegate(com, BoundPath((("cw", "cr"),)), BitAllocator(1))
    rep = equivalent(ExtendedCircuit(("qa", "qb"), tuple(gates)), circ)
    assert rep.equal


@pytest.mark.parametrize("m", (2, 3))
def test_emit_telegate_over_path_equals_cx(m):
    com, circ = fig3_commodity()
    bound = BoundPath(tuple(hops(m)))
    gates = emit_telegate(com, bound, BitAllocator(1))
    rep = equivalent(ExtendedCircuit(("qa", "qb"), tuple(gates)), circ)
    assert rep.equal, rep.max_deviation
    meas = [g for g in gates if g.kind == "m"]
    assert len(meas) == 2 * m  # 2(m-1) swap bits plus the two endpoint bits


def test_schedule_respects_capacity_and_measures_everything():
    r = compile(
        "qubits q1 q2 q3 q4\ncx q3 q1\ncx q3 q2\ncx q3 q4\ncx q2 q3\ncx q3 q4\n"
        .replace("cx q3 q1\n", "cx q3 q1\nh q3\n"),
        LINE4_NETWORK,
        coherence=8,
    )
    for block in r.schedule.blocks[: r.schedule.e_depth]:
        per_edge: dict = {}
        opened: set = set()
        closed: set = set()
        for g in block.gates:
            if g.kind == "e":
                pa, pb = r.net.processor_of(g.qubits[0]), r.net.processor_of(g.qubits[1])
                key = tuple(sorted((pa, pb)))
                per_edge[key] = per_edge.get(key, 0) + 1
                opened.update(g.qubits)
            elif g.kind == "m":
                closed.add(g.qubits[0])
        for key, used in per_edge.items():
            assert used <= r.quotient.capacity[key]
        assert opened <= closed  # every entangled qubit measured in its step


def test_each_step_entangles_and_measures_qubits_exactly_once():
    r = compile(
        "qubits q1 q2 q3 q4\ncx q3 q1\ncx q3 q2\ncx q2 q3\ncx q3 q4\n", LINE4_NETWORK, coherence=8
    )
    for block in r.schedule.blocks:
        entangled: dict = {}
        measured: dict = {}
        for g in block.gates:
            if g.kind == "e":
                for w in g.qubits:
                    entangled[w] = entangled.get(w, 0) + 1
            elif g.kind == "m":
                measured[g.qubits[0]] = measured.get(g.qubits[0], 0) + 1
        assert set(entangled) == set(measured)
        assert all(n == 1 for n in entangled.values())
        assert all(n == 1 for n in measured.values())


def test_merged_step_has_two_entanglements_and_deferred_corrections():
    r = compile(
        "qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n",
        """
        processor P1 { comp q1 comm a1 }
        processor P2 { comp q2 comm a2 b2 }
        processor P3 { comp q3 comm a3 }
        local q1 a1
        local q2 a2
        local q2 b2
        local q3 a3
        elink a1 a2
        elink b2 a3
        """,
        coherence=2,
    )
    assert e_depth(r.solution) == 1
    step1 = r.schedule.blocks[0]
    assert sum(g.kind == "e" for g in step1.gates) == 2
    assert all(g.kind not in ("px", "pz") for g in step1.gates)
    tail = r.schedule.blocks[1]
    assert tail.index == 2
    assert {g.kind for g in tail.gates} == {"px", "pz"}
    rep = equivalent(r.schedule.flat(), r.circuit)
    assert rep.equal


def test_schedule_lifetime_extension_within_budget():
    budget = 2
    r = compile(hub_chain(3), hub_network(3, 3), coherence=budget)
    assert e_depth(r.solution) == 1
    table = links_by_edge(r.net)
    base: dict[str, int] = {}
    for com in r.commodities:
        solo = bare_telegate(com)
        base[com.index] = None  # placeholder, lifetimes keyed by comm qubit below
    # Reconstruct per-qubit baselines from the emitted single-hop pattern:
    # control-side communication qubits live 1 layer alone, target-side 2.
    block = r.schedule.blocks[0]
    gates = block.gates
    ctrl_side = {g.qubits[1] for g in gates if g.kind == "cx" and g.qubits[0] == "hub"}
    for g in gates:
        if g.kind == "e":
            for q in g.qubits:
                ref = 1 if q in ctrl_side else 2
                assert lifetime(gates, q) - ref <= budget


def test_schedule_with_local_swaps_stays_equivalent():
    # RCX(q2, q3) over the toy architecture binds the first link (c1, c3):
    # neither endpoint computation qubit is adjacent to its bound
    # communication qubit, so naive swap chains are emitted.
    r = compile(
        "qubits q2 q3\ncx q2 q3\n",
        """
        processor P1 { comp q1 q2 comm c1 c2 }
        processor P2 { comp q3 comm c3 c4 c5 }
        processor P3 { comp q4 comm c6 }
        local q1 q2
        local q1 c1
        local q2 c2
        local c3 c4
        local c3 c5
        local c4 q3
        local c5 q3
        local c6 q4
        elink c1 c3
        elink c2 c4
        elink c5 c6
        """.replace("comp q1 q2", "comp q1 q2"),
        coherence=8,
    )
    flat = r.schedule.flat()
    assert any(g.kind == "cx" and set(g.qubits) == {"q1", "q2"} for g in flat.gates)
    rep = equivalent(flat, r.circuit)
    assert rep.equal, rep.max_deviation


def test_merged_step_with_multi_hop_path():
    # one operation rides a two-hop entanglement path, the conflicting next
    # one a single link, and both complete in the same round
    net_text = """
    processor A { comp a comm a1 }
    processor B { comp b comm b1 b2 b3 }
    processor C { comp c comm c1 c2 }
    local a a1
    local b b1
    local b b2
    local b b3
    local c c1
    local c c2
    elink a1 b1
    elink b2 c1
    elink b3 c2
    """
    r = compile("qubits a b c\ncx a c\ncx c b\n", net_text, coherence=2)
    assert e_depth(r.solution) == 1
    assert len(r.solution.paths[1]) == 3  # routed through the middle processor
    step1 = r.schedule.blocks[0]
    assert sum(g.kind == "e" for g in step1.gates) == 3  # two hops plus one link
    rep = equivalent(r.schedule.flat(), r.circuit)
    assert rep.equal, rep.max_deviation


def test_zero_remote_schedule_is_the_circuit_itself():
    r = compile(
        "qubits q1 q2\nh q1\ncx q1 q2\nt q2\n",
        "processor P1 { comp q1 q2 comm c1 }\nlocal q1 q2\nlocal q1 c1\n"
        "processor P2 { comp q9 comm c9 }\nlocal q9 c9\nelink c1 c9\n",
        coherence=8,
    )
    assert r.schedule.e_depth == 0
    assert [str(g) for b in r.schedule.blocks for g in b.gates] == ["h q1", "cx q1 q2", "t q2"]
    rep = equivalent(r.schedule.flat(), r.circuit)
    assert rep.equal


def test_binding_uses_lowest_declared_link_first():
    r = compile(hub_chain(2), hub_network(2, 2), coherence=0, quasi_parallel=False)
    step1 = r.schedule.blocks[0].gates
    first_e = next(g for g in step1 if g.kind == "e")
    assert set(first_e.qubits) == {"ca0", "cb0"}


def test_render_and_parse_round_trip():
    r = compile(hub_chain(2), hub_network(2, 2), coherence=8)
    text = r.schedule.render()
    back = parse_physical(text)
    assert back.e_depth == r.schedule.e_depth
    assert [str(g) for b in back.blocks for g in b.gates] == [
        str(g) for b in r.schedule.blocks for g in b.gates
    ]
    assert equivalent(back.flat(), r.circuit).equal


def test_bit_names_carry_step_prefix():
    r = compile(hub_chain(2), hub_network(2, 1), coherence=0, quasi_parallel=False)
    assert e_depth(r.solution) == 2
    for block in r.schedule.blocks[:2]:
        bits = [g.bit for g in block.gates if g.kind == "m"]
        assert bits and all(b.startswith(f"b{block.index}_") for b in bits)


# Two processors of three computation qubits each, two links between them.
TWO_LINK_NETWORK = (
    "processor P1 { comp a b c comm p q }\nprocessor P2 { comp x y z comm r s }\n"
    + "".join(f"local {c} {m}\n" for c in "abc" for m in "pq")
    + "".join(f"local {c} {m}\n" for c in "xyz" for m in "rs")
    + "elink p r\nelink q s\n"
)


def test_local_gate_in_two_steps_cones_is_emitted_once():
    # `h b` (and `t b`) lie in the cones of `cx b x` (step 1) and `cx b y`
    # (step 2). This schedule puts 3 before its sharable predecessor 2, an
    # order layer precedence never yields but a reordering of independent
    # operations may. The two gates depend on no operation, so they open
    # step 1, once each.
    f = prepare("qubits a b c x y z\ncx a x\nt c\ncx c z\nt b\nh b\ncx b x\ncx b y\n", TWO_LINK_NETWORK)
    from dqcc.flow import Solution, check_solution

    sol = Solution(2, {1: 1, 3: 1, 2: 2, 4: 2}, {i: ("P2", "P1") for i in range(1, 5)}, 4)
    assert check_solution(f.quotient, f.commodities, f.relations, sol) == [
        "3 completes before its sharable predecessor 2"
    ]
    sched = emit_schedule(sol, f.circuit, f.commodities, f.relations, f.net)
    assert [str(g) for b in sched.blocks for g in b.gates].count("h b") == 1
    rep = equivalent(sched.flat(), f.circuit)
    assert rep.equal, rep.max_deviation


def test_local_gate_runs_after_the_operations_it_depends_on_only():
    # The second `h b` shares a layer with the second `cx a x` but depends on
    # neither operation: like the first, it opens step 1.
    network = (
        "processor P1 { comp a b comm p }\nprocessor P2 { comp x comm r }\n"
        "local a p\nlocal b p\nlocal x r\nelink p r\n"
    )
    r = compile("qubits a b x\ncx a x\nh b\nh b\ncx a x\n", network)
    assert r.schedule.e_depth == 2
    assert [str(g) for g in r.schedule.blocks[0].gates].count("h b") == 2
    rep = equivalent(r.schedule.flat(), r.circuit)
    assert rep.equal, rep.max_deviation


@pytest.mark.parametrize("source", ["cx a x\nh a\ncx a y\n", "cx a x\ncx a y\n"])
def test_schedule_breaking_a_dependency_is_refused(source):
    # The second operation depends on the first, directly or through `h a`,
    # yet the schedule runs it a step earlier.
    f = prepare("qubits a b c x y z\n" + source, TWO_LINK_NETWORK)
    from dqcc.flow import Solution

    sol = Solution(2, {1: 2, 2: 1}, {1: ("P2", "P1"), 2: ("P2", "P1")}, 2)
    with pytest.raises(EmitError, match="cx a y in step 1 depends on an operation in step 2"):
        emit_schedule(sol, f.circuit, f.commodities, f.relations, f.net)
