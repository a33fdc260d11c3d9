"""The compile pipeline: the paper's stages in their fixed order, in one call.
Each stage raises its own error; a schedule the checker rejects raises
``CheckFailed``."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuit import Commodity, LogicalCircuit, extract_commodities, layerize, parse_circuit
from .expand import PhysicalSchedule, emit_schedule
from .flow import NoSolutionError, Solution, SolverStats, check_solution, quickest
from .network import NetworkGraph, QuotientGraph, parse_network, quotient
from .relations import RelationTable, build_relations


class CheckFailed(NoSolutionError):
    """``check_solution`` rejected the schedule; ``problems`` lists why."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class CompileResult:
    parsed: LogicalCircuit  # the circuit as written
    circuit: LogicalCircuit  # layered
    net: NetworkGraph
    quotient: QuotientGraph
    commodities: list[Commodity]
    relations: RelationTable
    seconds: float  # relation build, search and check; not parsing or emission
    solution: Solution | None = None
    schedule: PhysicalSchedule | None = None


def prepare(
    circuit_text: str, network_text: str, coherence: int = 4, quasi_parallel: bool = True
) -> CompileResult:
    """The front half of ``compile``, parsing through relations; the oracle
    shares it."""
    parsed = parse_circuit(circuit_text)
    net = parse_network(network_text)
    circuit = layerize(parsed)
    commodities = extract_commodities(circuit, net.placement())
    q = quotient(net)
    started = time.perf_counter()
    relations = build_relations(commodities, circuit, budget=coherence, enable_qp=quasi_parallel)
    return CompileResult(
        parsed, circuit, net, q, commodities, relations, time.perf_counter() - started
    )


def compile(
    circuit_text: str,
    network_text: str,
    coherence: int = 4,
    quasi_parallel: bool = True,
    emit: bool = True,
    stats: SolverStats | None = None,
) -> CompileResult:
    """Search the quickest schedule, check it and, with ``emit``, expand it
    into telegates. The options are ``dqcc compile``'s; ``stats`` collects
    the search's counters."""
    r = prepare(circuit_text, network_text, coherence, quasi_parallel)
    started = time.perf_counter()
    r.solution = quickest(r.quotient, r.commodities, r.relations, stats)
    problems = check_solution(r.quotient, r.commodities, r.relations, r.solution)
    if problems:
        raise CheckFailed(problems)
    r.seconds += time.perf_counter() - started
    if emit:
        r.schedule = emit_schedule(r.solution, r.circuit, r.commodities, r.relations, r.net)
    return r
