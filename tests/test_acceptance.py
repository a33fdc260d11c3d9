"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdicts.
"""

import math
import random
import time

import numpy as np

from dqcc.circuit import Commodity, extract_commodities, layerize, parse_circuit
from dqcc.expand import (
    BitAllocator,
    BoundPath,
    emit_telegate,
    entanglement_path_fragment,
)
from dqcc.flow import (
    SolverStats,
    brute_force_oracle,
    check_solution,
    e_depth,
    quickest,
)
from dqcc.network import QuotientGraph, edge_key
from dqcc.pipeline import compile
from dqcc.relations import MergeCosts
from dqcc.rewrite import (
    ExtendedCircuit,
    PredicateStats,
    bare_telegate,
    cx,
    e,
    h,
    m,
    px,
    pz,
    rewrite_step,
    t,
)
from dqcc.simulate import equivalent, equivalent_fragments
from conftest import (
    EXAMPLE_CIRCUIT,
    LINE4_NETWORK,
    TOY_NETWORK,
    commodities_of,
    hub_chain,
    hub_network,
    make_relations,
)

F = frozenset
TOL = 1e-9


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {label} failed: {detail}"


def test_criterion_1_worst_case_depth():
    started = time.perf_counter()
    r = compile(EXAMPLE_CIRCUIT, LINE4_NETWORK, coherence=8, quasi_parallel=False, emit=False)
    elapsed = time.perf_counter() - started
    ok = len(r.commodities) == 5 and e_depth(r.solution) == 5 and elapsed < 1.0
    assert check_solution(r.quotient, r.commodities, r.relations, r.solution) == []
    report(1, "worst_case_serial_depth", ok, f"d={e_depth(r.solution)} in {elapsed:.3f}s")


def test_criterion_2_two_processor_grid():
    started = time.perf_counter()
    ok = True
    for k in range(1, 7):
        for c in range(1, 7):
            q = QuotientGraph(("P1", "P2"), {("P1", "P2"): c})
            coms = [Commodity(i + 1, "P1", "P2", f"a{i}", f"b{i}", 0) for i in range(k)]
            rel = make_relations(coms)
            sol = quickest(q, coms, rel)
            ref = brute_force_oracle(q, coms, rel, max_k=6, max_d=6)
            ok &= e_depth(sol) == e_depth(ref)
            if c >= k:
                ok &= e_depth(sol) == 1
            if c == 1:
                ok &= e_depth(sol) == k
            ok &= check_solution(q, coms, rel, sol) == []
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    report(2, "single_layer_grid_vs_oracle", ok, f"{elapsed:.2f}s")


def test_criterion_3_conflict_chain():
    ok = True
    detail = []
    for k in (3, 4, 5):
        chain, net = hub_chain(k), hub_network(k, k)
        d_off, d_on = (
            e_depth(compile(chain, net, coherence=k, quasi_parallel=qp, emit=False).solution)
            for qp in (False, True)
        )
        ok &= d_off == k and d_on == 1
        detail.append(f"k={k}: {d_off}->{d_on}")
    report(3, "chain_serial_vs_quasi_parallel", ok, ", ".join(detail))


def _random_instance(rng: random.Random):
    p = rng.randint(2, 4)
    procs = tuple(f"P{i}" for i in range(1, p + 1))
    caps: dict = {}
    for i in range(1, p):
        caps[edge_key(procs[rng.randrange(i)], procs[i])] = rng.randint(1, 3)
    for _ in range(rng.randint(0, p)):
        a, b = rng.sample(procs, 2)
        caps.setdefault(edge_key(a, b), rng.randint(1, 3))
    q = QuotientGraph(procs, caps)
    k = rng.randint(1, 4)
    layers = sorted(rng.randrange(k) for _ in range(k))
    coms = []
    for i in range(k):
        a, b = rng.sample(procs, 2)
        coms.append(Commodity(i + 1, a, b, f"c{i}", f"t{i}", layers[i]))
    rel = make_relations(coms, qp=lambda ci, cj: rng.random() < 0.5)
    return q, coms, rel


def test_criteria_4_5_11_random_suite():
    started = time.perf_counter()
    rng = random.Random(2024)
    trials = 220
    ok_opt = ok_calls = ok_check = True
    for _ in range(trials):
        q, coms, rel = _random_instance(rng)
        stats = SolverStats()
        sol = quickest(q, coms, rel, stats)
        ref = brute_force_oracle(q, coms, rel, max_k=4, max_d=4)
        ok_opt &= (e_depth(sol), sol.total_flow) == (e_depth(ref), ref.total_flow)
        bound = math.ceil(math.log2(len(coms))) + 1 if len(coms) > 1 else 1
        ok_calls &= stats.invocations <= bound
        ok_check &= check_solution(q, coms, rel, sol) == []
        ok_check &= check_solution(q, coms, rel, ref) == []
    elapsed = time.perf_counter() - started
    report(4, "solver_matches_oracle", ok_opt and elapsed < 60.0, f"{trials} instances in {elapsed:.1f}s")
    report(5, "binary_search_call_bound", ok_calls)
    report(11, "independent_checker_clean", ok_check)


def _const_x(q: str) -> list:
    return [h(q), t(q), t(q), t(q), t(q), h(q)]


def _const_z(q: str) -> list:
    return [t(q), t(q), t(q), t(q)]


def test_criterion_6_rule_soundness():
    X, Z = _const_x, _const_z
    rules = {
        "x_on_control_copies": ((X("a") + [cx("a", "b")]), ([cx("a", "b")] + X("a") + X("b"))),
        "z_on_target_copies": ((Z("b") + [cx("a", "b")]), ([cx("a", "b")] + Z("a") + Z("b"))),
        "x_on_target_commutes": ((X("b") + [cx("a", "b")]), ([cx("a", "b")] + X("b"))),
        "z_on_control_commutes": ((Z("a") + [cx("a", "b")]), ([cx("a", "b")] + Z("a"))),
        "z_through_t": ((Z("a") + [t("a")]), ([t("a")] + Z("a"))),
        "x_through_h": ((X("a") + [h("a")]), ([h("a")] + Z("a"))),
        "z_through_h": ((Z("a") + [h("a")]), ([h("a")] + X("a"))),
        "t_before_control": (([t("a"), cx("a", "b")]), ([cx("a", "b"), t("a")])),
        "shared_target_commute": (
            [cx("a", "b"), cx("c", "b")],
            [cx("c", "b"), cx("a", "b")],
        ),
        "shared_control_commute": (
            [cx("a", "b"), cx("a", "c")],
            [cx("a", "c"), cx("a", "b")],
        ),
        "double_h_flip": (
            [h("a"), h("b"), cx("a", "b")],
            [cx("b", "a"), h("a"), h("b")],
        ),
        "single_h_flip": (
            [h("a"), cx("a", "b"), h("b")],
            [h("b"), cx("b", "a"), h("a")],
        ),
        "measurement_bit_forward": (
            X("w") + [m("w", "mb"), px("v", F({"mb"}))],
            [m("w", "mb"), px("v", F({"mb"}))] + X("v"),
        ),
    }
    assert len(rules) == 13
    worst = 0.0
    ok = True
    for name, (lhs, rhs) in rules.items():
        qubits = tuple(sorted({q for g in lhs + rhs for q in g.qubits}))
        rep = equivalent_fragments(
            ExtendedCircuit(qubits, tuple(lhs)), ExtendedCircuit(qubits, tuple(rhs)), tol=TOL
        )
        ok &= rep.equal
        worst = max(worst, rep.max_deviation)
    report(6, "thirteen_rules_sound", ok, f"13 rules, max-dev={worst:.2e}")


def test_criterion_7_figure_equivalences():
    started = time.perf_counter()
    checks: dict[str, float] = {}

    def record(name, rep):
        checks[name] = rep.max_deviation
        assert rep.equal, (name, rep.max_deviation)

    # single-link telegate against a bare cx
    logical_cx = layerize(parse_circuit("qubits qa qb\ncx qa qb\n"))
    com = extract_commodities(logical_cx, {"qa": "PA", "qb": "PB"})[0]
    tele = emit_telegate(com, BoundPath((("cw", "cr"),)), BitAllocator(1))
    record("telegate", equivalent(ExtendedCircuit(("qa", "qb"), tuple(tele)), logical_cx, tol=TOL))

    # entanglement swap against a bare entangling gate
    swap = ExtendedCircuit(
        (),
        (
            e("cu", "cv"), e("cw", "cr"), cx("cv", "cw"), h("cv"),
            m("cv", "bv"), m("cw", "bw"),
            pz("cu", F({"bv"})), px("cr", F({"bw"})),
        ),
    )
    record("swap", equivalent_fragments(swap, ExtendedCircuit((), (e("cu", "cr"),)), tol=TOL))

    # telegate across one intermediate processor
    two_hop = emit_telegate(
        com, BoundPath((("v1", "v2"), ("v3", "v4"))), BitAllocator(1)
    )
    record("telegate_two_hop", equivalent(ExtendedCircuit(("qa", "qb"), tuple(two_hop)), logical_cx, tol=TOL))

    # conflicting pair: naive sequence against the merged step
    pair_circ = layerize(parse_circuit("qubits q1 q2 q3\ncx q1 q2\ncx q2 q3\n"))
    pair = extract_commodities(pair_circ, {"q1": "P1", "q2": "P2", "q3": "P3"})
    pair_seq = MergeCosts(pair_circ, pair).fragment(pair[0], pair[1])
    pair_out = rewrite_step(pair_seq)
    record(
        "merged_pair",
        equivalent_fragments(
            ExtendedCircuit(("q1", "q2", "q3"), tuple(pair_out.in_step + pair_out.corrections)),
            ExtendedCircuit(("q1", "q2", "q3"), tuple(pair_seq)),
            tol=TOL,
        ),
    )

    # three telegates interspersed with local gates, fully merged
    mixed_src = "qubits q1 q2 q3 q4\ncx q1 q2\nh q2\ncx q2 q3\nh q3\ncx q4 q3\n"
    mixed = layerize(parse_circuit(mixed_src))
    mixed_coms = extract_commodities(mixed, {f"q{i}": f"P{i}" for i in range(1, 5)})
    seq = (
        bare_telegate(mixed_coms[0]) + [h("q2")] + bare_telegate(mixed_coms[1])
        + [h("q3")] + bare_telegate(mixed_coms[2])
    )
    out = rewrite_step(list(seq))
    merged = ExtendedCircuit(tuple(mixed.qubits), tuple(out.in_step) + tuple(out.corrections))
    record("merged_chain_vs_sequential", equivalent_fragments(merged, ExtendedCircuit(tuple(mixed.qubits), tuple(seq)), tol=TOL))
    record("merged_chain_vs_logical", equivalent(merged, mixed, tol=TOL))

    # two naive swaps in sequence equal one long-range entanglement
    naive = ExtendedCircuit(
        (),
        (
            e("c1", "c2"), e("c3", "c4"), cx("c2", "c3"), h("c2"),
            m("c2", "b1"), m("c3", "b2"), pz("c1", F({"b1"})), px("c4", F({"b2"})),
            e("c5", "c6"), cx("c4", "c5"), h("c4"),
            m("c4", "b3"), m("c5", "b4"), pz("c1", F({"b3"})), px("c6", F({"b4"})),
        ),
    )
    record("two_swaps_naive", equivalent_fragments(naive, ExtendedCircuit((), (e("c1", "c6"),)), tol=TOL))

    # base-case optimization: pending corrections fold into the swap bits
    prep = (
        e("x1", "x2"), m("x1", "ba"), m("x2", "ba2"),
        e("y1", "y2"), m("y1", "bb"), m("y2", "bb2"),
    )
    lhs = ExtendedCircuit(
        (),
        prep
        + (
            e("c1", "c2"), e("c3", "c4"),
            pz("c1", F({"ba"})), px("c2", F({"bb"})),
            cx("c2", "c3"), h("c2"), m("c2", "b3"), m("c3", "b4"),
            pz("c1", F({"b3"})), px("c4", F({"b4"})),
        ),
    )
    rhs = ExtendedCircuit(
        (),
        prep
        + (
            e("c1", "c2"), e("c3", "c4"),
            cx("c2", "c3"), h("c2"), m("c2", "b3"), m("c3", "b4"),
            pz("c1", F({"ba", "b3"})), px("c4", F({"bb", "b4"})),
        ),
    )
    record("swap_fold_base", equivalent_fragments(lhs, rhs, tol=TOL))

    # inductive step: multi-bit exponents keep folding
    prep3 = prep + (e("z1", "z2"), m("z1", "bc"), m("z2", "bc2"))
    lhs = ExtendedCircuit(
        (),
        prep3
        + (
            e("c1", "c2"), e("c3", "c4"),
            pz("c1", F({"ba", "bc"})), px("c2", F({"bb"})),
            cx("c2", "c3"), h("c2"), m("c2", "b3"), m("c3", "b4"),
            pz("c1", F({"b3"})), px("c4", F({"b4"})),
        ),
    )
    rhs = ExtendedCircuit(
        (),
        prep3
        + (
            e("c1", "c2"), e("c3", "c4"),
            cx("c2", "c3"), h("c2"), m("c2", "b3"), m("c3", "b4"),
            pz("c1", F({"ba", "bc", "b3"})), px("c4", F({"bb", "b4"})),
        ),
    )
    record("swap_fold_inductive", equivalent_fragments(lhs, rhs, tol=TOL))

    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report(7, "figure_equivalences", ok, f"{len(checks)} checks, max-dev={max(checks.values()):.2e}, {elapsed:.1f}s")


def test_criterion_8_path_stage_depth():
    ok = True
    for links in range(2, 9):
        hops = [(f"u{t}", f"v{t}") for t in range(links)]
        stages = entanglement_path_fragment(hops, BitAllocator(1))
        ok &= len(stages) == 5
    report(8, "path_fragment_stage_depth", ok, "m in [2,8] all depth 5")


def test_criterion_9_end_to_end_equivalence():
    cases = [
        (
            "worst_case_serial",
            EXAMPLE_CIRCUIT,
            LINE4_NETWORK,
            dict(coherence=8, quasi_parallel=False),
        ),
        ("worst_case_qp", EXAMPLE_CIRCUIT, LINE4_NETWORK, dict(coherence=8)),
        (
            "conflict_pair",
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
            dict(coherence=2),
        ),
        ("merged_chain", hub_chain(3), hub_network(3, 3), dict(coherence=4)),
        ("long_path", "qubits q1 q4\ncx q1 q4\n", LINE4_NETWORK, dict(coherence=8)),
        (
            "local_swaps",
            "qubits q2 q3\ncx q2 q3\n",
            TOY_NETWORK.replace("comp q1 q2", "comp q1 q2"),
            dict(coherence=8),
        ),
    ]
    ok = True
    details = []
    for name, ctext, ntext, kw in cases:
        r = compile(ctext, ntext, **kw)
        assert check_solution(r.quotient, r.commodities, r.relations, r.solution) == []
        rep = equivalent(r.schedule.flat(), r.circuit, tol=TOL)
        ok &= rep.equal and rep.mode == "process"
        details.append(f"{name}:d={e_depth(r.solution)}")
    report(9, "end_to_end_equivalence", ok, ", ".join(details))


def test_criterion_10_predicate_complexity():
    # rule applications grow linearly with the count of intervening locals
    sizes = list(range(1, 65))
    apps = []
    for n in sizes:
        src = "qubits a b c\ncx a b\n" + "t a\n" * n + "cx a c\n"
        circ = layerize(parse_circuit(src))
        coms = extract_commodities(circ, {"a": "P1", "b": "P2", "c": "P3"})
        stats = PredicateStats()
        cost = MergeCosts(circ, coms, stats).cost(coms[0], coms[1])
        assert cost is not None
        apps.append(stats.rule_applications)
    slope, intercept = np.polyfit(sizes, apps, 1)
    fitted = [slope * n + intercept for n in sizes]
    rel_err = max(abs(a - f) / f for a, f in zip(apps, fitted))
    linear_ok = slope > 0 and rel_err <= 0.10

    # recursion visits linearly many pairs for m intervening remote ops
    recursion_ok = True
    for mcount in (1, 2, 4, 8):
        k = mcount + 2
        circ, net, coms = commodities_of(hub_chain(k), hub_network(k, k))
        stats = PredicateStats()
        MergeCosts(circ, coms, stats).cost(coms[0], coms[-1])
        recursion_ok &= stats.recursive_calls <= 2 * mcount + 3
    report(
        10,
        "predicate_cost_bounds",
        linear_ok and recursion_ok,
        f"slope={slope:.2f}, max-rel-err={rel_err:.3f}",
    )
