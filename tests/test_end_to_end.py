"""Randomized whole-pipeline check: compile random circuits over a pool of
architectures and simulate every schedule."""

import random

from dqcc.flow import check_solution
from dqcc.pipeline import compile
from dqcc.simulate import equivalent
from conftest import LINE4_NETWORK, TOY_NETWORK, commodities_of, hub_network

LINE3 = """
processor P1 { comp q1 comm a1 b1 }
processor P2 { comp q2 comm a2 b2 c2 }
processor P3 { comp q3 comm a3 }
local q1 a1
local q1 b1
local q2 a2
local q2 b2
local q2 c2
local q3 a3
elink a1 a2
elink b1 b2
elink c2 a3
"""

POOL = [
    (LINE4_NETWORK, ("q1", "q2", "q3", "q4")),
    (hub_network(3, 2), ("hub", "q1", "q2", "q3")),
    (TOY_NETWORK, ("q1", "q2", "q3", "q4")),
    (LINE3, ("q1", "q2", "q3")),
]


def random_circuit(rng, qubits, n_gates):
    lines = [f"qubits {' '.join(qubits)}"]
    for _ in range(n_gates):
        kind = rng.choice(["h", "t", "cx", "cx"])
        if kind == "cx":
            a, b = rng.sample(qubits, 2)
            lines.append(f"cx {a} {b}")
        else:
            lines.append(f"{kind} {rng.choice(qubits)}")
    return "\n".join(lines) + "\n"


def test_quasi_parallelism_beats_serial_on_the_example():
    # the example circuit on the four-processor line: quasi-parallelism
    # with a generous budget shaves a round off the serial depth, and the
    # reference solver agrees on the optimum
    from dqcc.flow import brute_force_oracle, e_depth
    from conftest import EXAMPLE_CIRCUIT

    r = compile(EXAMPLE_CIRCUIT, LINE4_NETWORK, coherence=8, quasi_parallel=True, emit=False)
    ref = brute_force_oracle(r.quotient, r.commodities, r.relations, max_k=5, max_d=5)
    assert e_depth(r.solution) == e_depth(ref) < 5
    assert r.solution.total_flow == ref.total_flow


def test_organic_instances_match_oracle():
    # relations built by the real predicate, not synthesized: the solver
    # and the exhaustive reference must still agree on (d, total_flow)
    from dqcc.flow import InstanceTooLarge, brute_force_oracle, e_depth

    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        ntext, qs = POOL[rng.randrange(len(POOL))]
        ctext = random_circuit(rng, qs, rng.randint(2, 7))
        # Filter before drawing the relation options, as the seed's instances assume.
        if not 1 <= len(commodities_of(ctext, ntext)[2]) <= 4:
            continue
        r = compile(ctext, ntext, rng.choice([0, 1, 2, 4]), rng.random() < 0.8, emit=False)
        assert check_solution(r.quotient, r.commodities, r.relations, r.solution) == []
        try:
            ref = brute_force_oracle(r.quotient, r.commodities, r.relations, max_k=4, max_d=4)
        except InstanceTooLarge:
            continue
        checked += 1
        assert (e_depth(r.solution), r.solution.total_flow) == (e_depth(ref), ref.total_flow)


def test_random_compilations_simulate_correctly():
    rng = random.Random(99)
    for _ in range(70):
        ntext, qs = POOL[rng.randrange(len(POOL))]
        ctext = random_circuit(rng, qs, rng.randint(3, 6))
        r = compile(ctext, ntext, rng.choice([0, 1, 2, 4]), rng.random() < 0.7)
        assert check_solution(r.quotient, r.commodities, r.relations, r.solution) == []
        rep = equivalent(r.schedule.flat(), r.circuit)
        assert rep.equal, (ntext, r.circuit.to_text(), rep.max_deviation)
