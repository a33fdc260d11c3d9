"""Seeded property tests: the structures computed once per graph or per
compile, and the router's memoised step routings, equal their per-call
definitions."""

import itertools
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dqcc.circuit import Commodity
from dqcc.flow import SolverStats, _Router
from dqcc.network import QuotientGraph, edge_key
from conftest import make_relations


@st.composite
def instances(draw):
    """A connected quotient graph on 2-6 processors (a random spanning tree
    plus extra edges, capacities 1-3) and up to six commodities in random
    layers, pairs in distinct layers sharing a step at random."""
    n = draw(st.integers(2, 6))
    procs = tuple(f"P{i}" for i in range(1, n + 1))
    caps = {edge_key(procs[draw(st.integers(0, i - 1))], procs[i]): draw(st.integers(1, 3))
            for i in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        a, b = draw(st.lists(st.sampled_from(procs), min_size=2, max_size=2, unique=True))
        caps.setdefault(edge_key(a, b), draw(st.integers(1, 3)))
    q = QuotientGraph(procs, caps)
    k = draw(st.integers(1, 6))
    layers = sorted(draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k)))
    coms = []
    for i in range(k):
        a, b = draw(st.lists(st.sampled_from(procs), min_size=2, max_size=2, unique=True))
        coms.append(Commodity(i + 1, a, b, f"c{i}", f"t{i}", layers[i]))
    sharing = {(a.index, b.index) for a in coms for b in coms
               if a.layer < b.layer and draw(st.booleans())}
    rel = make_relations(coms, qp=lambda a, b: (a.index, b.index) in sharing)
    return q, coms, rel


# Reference definitions: scan the sorted edge list on every call.

def scan_neighbors(q, proc):
    out = []
    for a, b in q.edges():
        if a == proc:
            out.append(b)
        elif b == proc:
            out.append(a)
    return sorted(out)


def scan_simple_paths(q, source, sink):
    out = []

    def walk(node, seen):
        if node == sink:
            out.append(seen)
            return
        for nb in scan_neighbors(q, node):
            if nb not in seen:
                walk(nb, seen + (nb,))

    walk(source, (source,))
    out.sort(key=lambda p: (len(p), p))
    return out


def product_route(q, coms, members):
    """The first minimum-flow routing of ``members`` in the product order of
    their simple paths, or None when no combination fits the capacities."""
    by_index = {c.index: c for c in coms}
    options = [scan_simple_paths(q, by_index[i].target_proc, by_index[i].control_proc)
               for i in members]
    best = None
    for chosen in itertools.product(*options):
        load = {}
        for path in chosen:
            for a, b in zip(path, path[1:]):
                load[edge_key(a, b)] = load.get(edge_key(a, b), 0) + 1
        if any(used > q.capacity[e] for e, used in load.items()):
            continue
        flow = sum(len(p) - 1 for p in chosen)
        if best is None or flow < best[0]:
            best = (flow, dict(zip(members, chosen)))
    return best


def pairwise_precedence(coms, rel):
    preds = {c.index: [] for c in coms}
    succs = {c.index: [] for c in coms}
    for a in coms:
        for b in coms:
            if rel.prec(a.index, b.index):
                gap = 0 if rel.qp(a.index, b.index) else 1
                preds[b.index].append((a.index, gap))
                succs[a.index].append((b.index, gap))
    tail = {}
    for i in sorted(succs, reverse=True):
        tail[i] = max((gap + tail[j] for j, gap in succs[i]), default=0)
    return preds, tail


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_cached_structures_match_per_call_definitions(instance):
    q, coms, rel = instance
    for proc in q.nodes + ("absent",):
        for sink in q.nodes:
            assert q.simple_paths(proc, sink) == scan_simple_paths(q, proc, sink)

    # Each call hands out a new list: mutating one leaves the graph alone.
    source, sink = q.nodes[0], q.nodes[-1]
    got = q.simple_paths(source, sink)
    got.append(("intruder",))
    got.reverse()
    assert q.simple_paths(source, sink) == scan_simple_paths(q, source, sink)

    router = _Router(q, coms, rel, SolverStats())
    assert (router.preds, router.tail) == pairwise_precedence(coms, rel)
    for c in coms:
        paths = scan_simple_paths(q, c.target_proc, c.control_proc)
        assert router.paths[c.index] == paths
        assert router.edges[c.index] == [
            tuple(edge_key(a, b) for a, b in zip(p, p[1:])) for p in paths
        ]


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances(), st.data())
def test_router_returns_the_first_minimum_routing(instance, data):
    """Member tuples grow one commodity at a time, as a step fills during the
    search; at every size the router's routing is the reference's."""
    q, coms, rel = instance
    router = _Router(q, coms, rel, SolverStats())
    for _ in range(3):
        order = data.draw(st.permutations([c.index for c in coms]))
        for size in range(1, len(order) + 1):
            members = tuple(order[:size])
            if math.prod(len(router.paths[i]) for i in members) > 20_000:
                break  # keep the exhaustive reference small
            assert router.route(members) == product_route(q, coms, members), members
