"""Traced compile: the library sequence the CLI runs, one span per call.

A span is (name, start, end, parent, instance). Spans stay in memory and
are written out when the run ends. Every call is a leaf under one
``compile`` root span per instance, so the root's self time is the
harness's own work between calls.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from dqcc import (
    EmitError,
    NoSolutionError,
    SimulationError,
    brute_force_oracle,
    build_relations,
    check_solution,
    e_depth,
    emit_schedule,
    equivalent,
    extract_commodities,
    layerize,
    parse_circuit,
    parse_network,
    quickest,
    quotient,
)
from dqcc.flow import SolverStats
from dqcc.rewrite import PredicateStats

COHERENCE = 4  # the CLI's default --coherence
VERIFY_SEED = 7  # the CLI's default --seed


class Deadline(BaseException):
    """Raised by the interval timer when an instance runs past its deadline.
    Derived from BaseException so that no handler inside the program can
    swallow it."""


class NodeBudget(Deadline):
    """Raised when the solver has searched more nodes than the workload's
    budget. Unlike the timer, the budget stops an instance at the same point
    of its search on every run, so which instances fail does not depend on
    the speed of the host."""


def budgeted_stats(limit: int) -> type[SolverStats]:
    """``SolverStats`` that raises ``NodeBudget`` on the search's node
    ``limit + 1``. Installed as ``dqcc.cli.SolverStats`` it bounds the
    CLI's search without any change to the program."""

    class Budgeted(SolverStats):
        def __setattr__(self, name, value):
            if name == "nodes" and value > limit:
                raise NodeBudget()
            object.__setattr__(self, name, value)

    return Budgeted


def _on_alarm(signum, frame):
    raise Deadline()


@contextmanager
def deadline(seconds: float):
    """Interrupt the body with ``Deadline`` after ``seconds`` of wall time."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in ``Tracer.spans``
    instance: str


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, instance: str):
        s = Span(name, time.perf_counter(), 0.0, self.open[-1] if self.open else None, instance)
        self.spans.append(s)
        self.open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.open.pop()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, cov in zip(self.spans, covered):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - cov
        return out


@dataclass
class TracedResult:
    """Outcome of one traced compile. ``interrupted`` names the call the
    timer or the node budget stopped, if any."""

    outcome: str
    seconds: float
    e_depth: int | None = None
    total_flow: int | None = None
    interrupted: str | None = None
    counters: dict = field(default_factory=dict)


def traced_compile(tracer: Tracer, name: str, circuit_text: str, network_text: str,
                   verify: bool, limit: float, stats_class: type[SolverStats]) -> TracedResult:
    """Run the CLI's compile sequence through the library under spans.

    Mirrors ``dqcc compile``: coherence 4, quasi-parallelism on, emission
    always (both ``--emit-physical`` and ``--verify`` emit), verification
    with seed 7 when ``verify`` is set.
    """
    c: dict = {}
    res = TracedResult("ok", 0.0, counters=c)
    call = lambda label: tracer.span(label, name)  # noqa: E731
    start = time.perf_counter()
    try:
        with deadline(limit), tracer.span("compile", name):
            with call("parse_circuit"):
                parsed = parse_circuit(circuit_text)
            with call("layerize"):
                circ = layerize(parsed)
            with call("parse_network"):
                net = parse_network(network_text)
            with call("extract_commodities"):
                coms = extract_commodities(circ, net.placement())
            with call("quotient"):
                q = quotient(net)
            c["gates"] = len(parsed.gates())
            c["layers"] = circ.depth
            c["k"] = len(coms)
            pstats = PredicateStats()
            with call("build_relations"):
                rel = build_relations(coms, circ, budget=COHERENCE, stats=pstats)
            pairs = rel.pairs()
            distinct = [p for p in pairs if rel.precedes[p]]
            c["pairs"] = len(pairs)
            c["distinct_pairs"] = len(distinct)
            c["sharing_pairs"] = sum(rel.shares_step[p] for p in distinct)
            c["predicate_calls"] = pstats.recursive_calls
            c["rule_applications"] = pstats.rule_applications
            sstats = stats_class()
            c["solver"] = sstats
            try:
                with call("quickest"):
                    sol = quickest(q, coms, rel, stats=sstats)
            except NoSolutionError:
                res.outcome = "exit3"
                return res
            c["nodes"], c["probes"] = sstats.nodes, sstats.invocations
            with call("check_solution"):
                problems = check_solution(q, coms, rel, sol)
            if problems:
                res.outcome = "exit3"
                return res
            res.e_depth, res.total_flow = e_depth(sol), sol.total_flow
            try:
                with call("emit_schedule"):
                    sched = emit_schedule(sol, circ, coms, rel, net)
            except EmitError:
                res.outcome = "exit3"
                c["emit_error"] = 1
                return res
            flat = sched.flat()
            kinds = [g.kind for g in flat.gates]
            c["entanglements"] = kinds.count("e")
            c["measurements"] = kinds.count("m")
            c["corrections"] = kinds.count("px") + kinds.count("pz")
            c["physical_depth"] = flat.depth
            if verify:
                c["verify_measurements"] = c["measurements"]
                try:
                    with call("equivalent"):
                        rep = equivalent(flat, circ, seed=VERIFY_SEED)
                except SimulationError:
                    res.outcome = "simulation_error"
                    return res
                c["verify_mode"] = rep.mode
                if not rep.equal:
                    res.outcome = "exit4"
    except Exception as exc:  # one crashing instance must not end the run
        res.outcome = f"uncaught {type(exc).__name__}"
    except Deadline as stop:
        res.outcome = "node_budget" if isinstance(stop, NodeBudget) else "timeout"
        # The last call this instance opened is the one that was stopped.
        last = tracer.spans[-1]
        res.interrupted = last.name if last.instance == name else "compile"
    finally:
        res.seconds = time.perf_counter() - start
    return res


def oracle_optimum(circuit_text: str, network_text: str) -> tuple[int, int]:
    """(E-depth, total flow) by exhaustive enumeration, for k <= 4."""
    circ = layerize(parse_circuit(circuit_text))
    net = parse_network(network_text)
    coms = extract_commodities(circ, net.placement())
    rel = build_relations(coms, circ, budget=COHERENCE)
    sol = brute_force_oracle(quotient(net), coms, rel, max_k=4, max_d=4)
    return e_depth(sol), sol.total_flow


def traced_pass(insts, wl, cli: dict, untraced):
    """Compile every instance once under spans. ``cli`` maps instance name
    to the CLI's (outcome, E-depth). ``untraced(name)`` compiles an
    instance through the CLI and returns its seconds; it runs just before
    the traced compile of each instance the timer did not stop, so that
    the two compiles of a pair see the same state of the host.
    Returns (per-layer metrics, instances whose traced result disagrees
    with the CLI's, spans)."""
    tracer = Tracer()
    stats_class = budgeted_stats(wl.nodes)
    results, overheads = [], []
    for i in insts:
        before = untraced(i.name) if cli[i.name][0] != "timeout" else None
        r = traced_compile(tracer, i.name, i.circuit, i.network, wl.flag == "--verify",
                           wl.deadline, stats_class)
        if before is not None and r.outcome != "timeout":
            overheads.append(r.seconds - before)
        results.append(r)
    disagree = 0
    for inst, r in zip(insts, results):
        outcome, depth = cli[inst.name]
        if "timeout" in (outcome, r.outcome):
            continue  # which side of the timer an instance lands on is timing
        disagree += r.outcome != outcome or (outcome == "ok" and r.e_depth != depth)

    own = tracer.self_times()
    t = lambda *calls: sum(own.get(n, 0.0) for n in calls)  # noqa: E731
    cs = [r.counters for r in results]
    total = lambda key: sum(c.get(key, 0) for c in cs)  # noqa: E731
    interrupted = Counter(r.interrupted for r in results if r.interrupted)
    distinct = total("distinct_pairs")
    quickest_s = t("quickest")
    verified = [c["verify_measurements"] for c in cs if "verify_measurements" in c]
    traced_s = [r.seconds for r in results]
    # Calls that no instance of a workload may reach (checking, emission
    # and verification behind a search that always times out) are reported
    # as shares of the traced time: in seconds they would read exactly 0.
    traced_total = sum(traced_s)
    metrics = {
        "circuit.parse_s": (t("parse_circuit", "layerize", "extract_commodities"), "s"),
        "circuit.gates": (total("gates"), "count"),
        "circuit.layers": (total("layers"), "count"),
        "circuit.k": (total("k"), "count"),
        "network.parse_s": (t("parse_network", "quotient"), "s"),
        "relations.build_s": (t("build_relations"), "s"),
        "relations.pairs": (total("pairs"), "count"),
        "relations.qp_frac": (total("sharing_pairs") / distinct if distinct else 0.0, "ratio"),
        "relations.predicate_calls": (total("predicate_calls"), "count"),
        "relations.rule_applications": (total("rule_applications"), "count"),
        "flow.quickest_s": (quickest_s, "s"),
        "flow.nodes": (total("nodes"), "count"),
        "flow.probes": (total("probes"), "count"),
        "flow.nodes_per_s": (sum(c["solver"].nodes for c in cs if "solver" in c) / quickest_s
                             if quickest_s else 0.0, "1/s"),
        "flow.check_share": (t("check_solution") / traced_total, "ratio"),
        "flow.timeouts": (interrupted["quickest"], "count"),
        "flow.total_flow": (sum(r.total_flow or 0 for r in results), "count"),
        "expand.emit_share": (t("emit_schedule") / traced_total, "ratio"),
        "expand.emit_errors": (total("emit_error"), "count"),
        "expand.entanglements": (total("entanglements"), "count"),
        "expand.measurements": (total("measurements"), "count"),
        "expand.corrections": (total("corrections"), "count"),
        "expand.physical_depth": (total("physical_depth"), "count"),
        "simulate.verify_share": (t("equivalent") / traced_total, "ratio"),
        "simulate.process_runs": (sum(c.get("verify_mode") == "process" for c in cs), "count"),
        "simulate.sampled_runs": (sum(c.get("verify_mode") == "sampled" for c in cs), "count"),
        "simulate.max_measurements": (max(verified, default=0), "count"),
        "simulate.timeouts": (interrupted["equivalent"], "count"),
        "simulate.errors": (sum(r.outcome == "simulation_error" for r in results), "count"),
        "simulate.mismatches": (sum(r.outcome == "exit4" for r in results), "count"),
        "trace.other_timeouts": (sum(interrupted.values()) - interrupted["quickest"]
                                 - interrupted["equivalent"], "count"),
        "trace.harness_s": (t("compile"), "s"),
        "trace.latency_p50_s": (statistics.median(traced_s), "s"),
        # Median over instances of traced minus untraced seconds, each pair
        # compiled back to back; the CLI's own printing is untraced-only.
        "trace.overhead_s": (statistics.median(overheads) if overheads else 0.0, "s"),
    }
    return metrics, disagree, tracer.spans
