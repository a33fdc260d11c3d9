"""Exact quickest integer multi-commodity flow over time.

Each remote operation is one unit of demand routed from its target
processor to its control processor within a single time step. The solver
enumerates completion-step assignments under the precedence constraints,
routes every step's operations over simple paths under the per-step edge
capacities, and minimizes the E-depth, then the total flow, by one branch
and bound. A brute-force oracle and an independent constraint checker back
the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .circuit import Commodity
from .network import Edge, QuotientGraph, edge_key
from .relations import RelationTable


class InstanceTooLarge(ValueError):
    pass


class NoSolutionError(RuntimeError):
    """Even the serial horizon is infeasible; with a connected architecture
    this signals an internal inconsistency, not a user error."""


@dataclass(frozen=True)
class Solution:
    """Completion step and routed path per commodity. Paths are node
    sequences in flow direction: from the target processor (source of the
    unit demand) to the control processor (sink)."""

    d: int
    steps: dict[int, int]
    paths: dict[int, tuple[str, ...]]
    total_flow: int


@dataclass
class SolverStats:
    nodes: int = 0
    invocations: int = 0


def e_depth(solution: Solution) -> int:
    """Number of entanglement rounds the schedule uses."""
    return max(solution.steps.values(), default=0)


def path_edges(path: tuple[str, ...]) -> list[tuple[str, str]]:
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def dump_solution(solution: Solution) -> str:
    lines = []
    for i in sorted(solution.steps):
        hops = ",".join(f"{a}-{b}" for a, b in path_edges(solution.paths[i]))
        lines.append(f"{i} tau={solution.steps[i]} path={hops}")
    lines.append(f"e_depth={e_depth(solution)} total_flow={solution.total_flow}")
    return "\n".join(lines) + "\n"


def _precedence(
    commodities: list[Commodity], relations: RelationTable
) -> tuple[dict[int, list[tuple[int, int]]], dict[int, int]]:
    """Precedence as per-commodity lists, built once per ``_Router``.

    ``preds[i]`` holds (j, gap) for every predecessor j of i: i completes
    no earlier than step tau[j] + gap, where gap is 0 if the two may share
    a step and 1 otherwise. ``tail[i]`` is the longest gap-weighted chain of
    successors of i (a reverse pass over the relation table), so in any
    schedule within horizon d commodity i completes by step d - tail[i].
    """
    preds: dict[int, list[tuple[int, int]]] = {c.index: [] for c in commodities}
    succs: dict[int, list[tuple[int, int]]] = {c.index: [] for c in commodities}
    for a in commodities:
        for b in commodities:
            if relations.prec(a.index, b.index):
                gap = 0 if relations.qp(a.index, b.index) else 1
                preds[b.index].append((a.index, gap))
                succs[a.index].append((b.index, gap))
    tail: dict[int, int] = {}
    for i in sorted(succs, reverse=True):
        tail[i] = max((gap + tail[j] for j, gap in succs[i]), default=0)
    return preds, tail


class _Router:
    """Per-compile state of the search, built once per ``quickest`` call.

    Holds the precedence lists, each commodity's simple paths with their
    edge keys (computed once per processor pair), and the minimum-total-
    flow routing of one step's commodities under the per-step capacities,
    memoized on the commodity tuple with the edge loads it leaves.
    """

    def __init__(
        self,
        q: QuotientGraph,
        commodities: list[Commodity],
        relations: RelationTable,
        stats: SolverStats,
    ):
        self.q = q
        self.stats = stats
        self.preds, self.tail = _precedence(commodities, relations)
        self.paths: dict[int, list[tuple[str, ...]]] = {}
        self.edges: dict[int, list[tuple[Edge, ...]]] = {}
        self.dist: dict[int, int] = {}
        by_pair: dict[tuple[str, str], tuple[list, list]] = {}
        for c in commodities:
            pair = (c.target_proc, c.control_proc)
            if pair not in by_pair:
                paths = q.simple_paths(*pair)
                by_pair[pair] = paths, [tuple(edge_key(*e) for e in path_edges(p)) for p in paths]
            paths, edges = by_pair[pair]
            self.paths[c.index], self.edges[c.index] = paths, edges
            self.dist[c.index] = len(edges[0]) if edges else 10**9
        # The empty set routes at no cost, so a step's first member extends it.
        self.cache: dict[tuple[int, ...], tuple[int, dict[int, tuple[str, ...]]] | None] = {(): (0, {})}
        self.loads: dict[tuple[int, ...], dict[Edge, int]] = {(): {}}

    def route(self, members: tuple[int, ...]) -> tuple[int, dict[int, tuple[str, ...]]] | None:
        """The first minimum-flow routing of ``members`` in the product
        order of their paths, or None when none fits the capacities.

        When ``members[:-1]`` is routed and some shortest path of the last
        member fits in the capacity that routing leaves, the routing plus
        the first such path is the answer, counted as one node: its flow is
        a lower bound, and the depth-first search, which orders the earlier
        members' paths first, reaches it first. Otherwise the search runs.
        """
        if members in self.cache:
            return self.cache[members]
        capacity = self.q.capacity
        prefix, last = members[:-1], members[-1]
        if self.cache.get(prefix) is not None:
            (flow, routed), loads = self.cache[prefix], self.loads[prefix]
            for path, edges in zip(self.paths[last], self.edges[last]):
                if len(edges) > self.dist[last]:
                    break
                for e in edges:
                    if loads.get(e, 0) >= capacity[e]:
                        break
                else:
                    self.stats.nodes += 1
                    grown = dict(loads)
                    for e in edges:
                        grown[e] = grown.get(e, 0) + 1
                    self.loads[members] = grown
                    self.cache[members] = flow + len(edges), {**routed, last: path}
                    return self.cache[members]
        best: tuple[int, dict[int, tuple[str, ...]]] | None = None
        used: dict[Edge, int] = {}
        chosen: dict[int, tuple[str, ...]] = {}
        rest = [0] * (len(members) + 1)  # shortest-path flow of members[pos:]
        for pos in range(len(members) - 1, -1, -1):
            rest[pos] = rest[pos + 1] + self.dist[members[pos]]

        def place(pos: int, flow: int) -> None:
            nonlocal best
            self.stats.nodes += 1
            if best is not None and flow + rest[pos] >= best[0]:
                return
            if pos == len(members):  # a leaf the bound let through improves
                best = (flow, dict(chosen))
                self.loads[members] = dict(used)
                return
            i = members[pos]
            for path, edges in zip(self.paths[i], self.edges[i]):
                for e in edges:
                    if used.get(e, 0) >= capacity[e]:
                        break
                else:
                    for e in edges:
                        used[e] = used.get(e, 0) + 1
                    chosen[i] = path
                    place(pos + 1, flow + len(edges))
                    del chosen[i]
                    for e in edges:
                        used[e] -= 1

        place(0, 0)
        self.cache[members] = best
        return best


def solve_fixed_horizon(
    q: QuotientGraph,
    commodities: list[Commodity],
    relations: RelationTable,
    d: int,
    stats: SolverStats | None = None,
) -> Solution | None:
    """Quickest schedule within horizon d, or None if infeasible: the
    smallest E-depth, then the least total flow, then the lexicographically
    smallest step vector, then the path enumeration order.

    Completion steps are searched depth first in commodity order, smallest
    step first, against an incumbent (D, F) that starts at (d, infinity).
    Commodity i ranges over [head(i), D - tail(i)]: head(i) is the lowest
    step its placed predecessors allow, tail(i) the longest chain of
    successors that must complete in later steps, so a partial schedule
    forces the depth max(tau[j] + tail[j]) over its placed commodities.
    Each step's member set is routed exactly as it fills; a step whose set
    cannot be routed is skipped, since no larger set can be routed either.
    A partial schedule that forces depth D is pruned on its routed flow
    plus the shortest-path distance of each commodity not yet placed, and
    one forcing more than D is abandoned, so every leaf reached beats the
    incumbent. Step vectors are walked in lexicographic order, so the
    first leaf at the optimum is the canonical one. The search stops early
    at depth 1 + max(tail) with the shortest-path flow, which nothing beats.
    """
    if d < 1:
        raise ValueError("horizon must be positive")
    stats = stats if stats is not None else SolverStats()
    k = len(commodities)
    if k == 0:
        return Solution(0, {}, {}, 0)
    stats.invocations += 1
    router = _Router(q, commodities, relations, stats)
    for c in commodities:
        if not router.paths[c.index]:
            return None
    preds, tail, dist = router.preds, router.tail, router.dist
    floor = sum(dist.values())
    ideal = (1 + max(tail.values()), floor)

    best: Solution | None = None
    depth, limit = d, math.inf  # the incumbent (D, F) every leaf must beat
    tau: dict[int, int] = {}
    members: dict[int, tuple[int, ...]] = {}  # step -> commodities placed in it
    cost: dict[int, int] = {}  # step -> routed flow of its members

    def assign(i: int, flow: int, rest: int, forced: int) -> bool:
        """Place commodities i..k given the routed ``flow`` of the partial
        steps, the distance ``rest`` of i..k and the depth ``forced`` by
        1..i-1; True stops the search."""
        nonlocal best, depth, limit
        stats.nodes += 1
        if i > k:
            routed: dict[int, tuple[str, ...]] = {}
            for step in sorted(members):
                routed.update(router.route(members[step])[1])
            best = Solution(forced, dict(tau), routed, flow)
            depth, limit = forced, flow
            return (forced, flow) == ideal
        rest -= dist[i]
        head = 1
        for j, gap in preds[i]:
            if tau[j] + gap > head:
                head = tau[j] + gap
        for step in range(head, depth - tail[i] + 1):
            now = step + tail[i] if step + tail[i] > forced else forced
            if now > depth:  # an improved incumbent cut this branch off
                return False
            before, prior = members.get(step, ()), cost.get(step, 0)
            res = router.route(before + (i,))
            if res is None:
                continue
            step_flow = flow - prior + res[0]
            if now == depth and step_flow + rest >= limit:
                continue
            tau[i] = step
            members[step], cost[step] = before + (i,), res[0]
            done = assign(i + 1, step_flow, rest, now)
            del tau[i]
            if before:
                members[step], cost[step] = before, prior
            else:
                del members[step], cost[step]
            if done:
                return True
        return False

    assign(1, 0, floor, 0)
    if best is not None and best.total_flow < floor:
        raise RuntimeError("flow fell below the shortest-path bound")
    return best


def quickest(
    q: QuotientGraph,
    commodities: list[Commodity],
    relations: RelationTable,
    stats: SolverStats | None = None,
) -> Solution:
    """The quickest schedule: ``solve_fixed_horizon`` at the serial horizon
    k, which is always feasible on a connected architecture. One search
    ordered by (E-depth, flow) replaces the paper's binary search over the
    horizon and finds the same optimum and the same canonical schedule."""
    if not commodities:
        return Solution(0, {}, {}, 0)
    found = solve_fixed_horizon(q, commodities, relations, len(commodities), stats)
    if found is None:
        raise NoSolutionError("no feasible schedule even at the serial horizon")
    return found


def brute_force_oracle(
    q: QuotientGraph,
    commodities: list[Commodity],
    relations: RelationTable,
    max_k: int = 4,
    max_d: int = 4,
) -> Solution:
    """Definitional optimum by exhaustive enumeration.

    Every completion-step assignment in [1, d]^k is tried; operations
    sharing a step are routed by checking every combination of their
    simple paths against the capacities (steps are independent, so each
    subset is enumerated exhaustively once). Returns the lexicographically
    minimal (d, total_flow) optimum. Deliberately shares no search logic
    with the solver.
    """
    k = len(commodities)
    if k > max_k:
        raise InstanceTooLarge(f"oracle limited to {max_k} commodities, got {k}")
    if k == 0:
        return Solution(0, {}, {}, 0)

    def all_paths(src: str, dst: str) -> list[tuple[str, ...]]:
        found: list[tuple[str, ...]] = []
        stack: list[tuple[str, tuple[str, ...]]] = [(src, (src,))]
        while stack:
            node, trail = stack.pop()
            if node == dst:
                found.append(trail)
                continue
            for a, b in q.edges():
                for u, v in ((a, b), (b, a)):
                    if u == node and v not in trail:
                        stack.append((v, trail + (v,)))
        return sorted(found, key=lambda p: (len(p), p))

    options = {c.index: all_paths(c.target_proc, c.control_proc) for c in commodities}
    indices = [c.index for c in commodities]
    prec_pairs = [
        (i, j)
        for i in indices
        for j in indices
        if relations.prec(i, j)
    ]
    group_cache: dict[tuple[int, ...], tuple[int, dict[int, tuple[str, ...]]] | None] = {}

    def route_group(members: tuple[int, ...]):
        """Cheapest capacity-respecting path combination for one step."""
        if members not in group_cache:
            best = None
            for chosen in itertools.product(*(options[i] for i in members)):
                load: dict[tuple[str, str], int] = {}
                fits = True
                for path in chosen:
                    for a, b in zip(path, path[1:]):
                        key = edge_key(a, b)
                        load[key] = load.get(key, 0) + 1
                        if load[key] > q.capacity[key]:
                            fits = False
                if not fits:
                    continue
                flow = sum(len(p) - 1 for p in chosen)
                if best is None or flow < best[0]:
                    best = (flow, dict(zip(members, chosen)))
            group_cache[members] = best
        return group_cache[members]

    for d in range(1, min(k, max_d) + 1):
        best: Solution | None = None
        for combo in itertools.product(range(1, d + 1), repeat=k):
            tau = dict(zip(indices, combo))
            if any(
                (tau[j] < tau[i]) if relations.qp(i, j) else (tau[j] <= tau[i])
                for i, j in prec_pairs
            ):
                continue
            groups: dict[int, list[int]] = {}
            for i in indices:
                groups.setdefault(tau[i], []).append(i)
            flow = 0
            routed: dict[int, tuple[str, ...]] = {}
            feasible = True
            for step in sorted(groups):
                res = route_group(tuple(sorted(groups[step])))
                if res is None:
                    feasible = False
                    break
                flow += res[0]
                routed.update(res[1])
            if feasible and (best is None or flow < best.total_flow):
                best = Solution(d, dict(tau), routed, flow)
        if best is not None:
            return best
    raise InstanceTooLarge(f"no feasible horizon within max_d={max_d}")


def check_solution(
    q: QuotientGraph,
    commodities: list[Commodity],
    relations: RelationTable,
    solution: Solution,
) -> list[str]:
    """Re-validate a schedule against the flow constraints, independently
    of how it was produced. Returns human-readable violations (empty when
    the schedule is valid).

    Checks: per-step per-commodity flow conservation, unit demand at the
    endpoint processors, per-step undirected capacity, completion-step
    precedence, and cycle-freeness (simple paths). Only the (processor,
    step) and (edge, step) entries that carry flow within the horizon are
    visited; every other entry is zero and satisfies its constraint.
    """
    problems: list[str] = []
    d = solution.d
    net: dict[int, dict[str, int]] = {}  # commodity -> node -> inflow - outflow
    load: dict[tuple[Edge, int], int] = {}
    for c in commodities:
        i = c.index
        net[i] = {}
        if i not in solution.steps or i not in solution.paths:
            problems.append(f"commodity {i} missing from solution")
            continue
        tau = solution.steps[i]
        path = solution.paths[i]
        if not (1 <= tau <= d):
            problems.append(f"commodity {i} completes outside the horizon: {tau}")
        if path[0] != c.target_proc or path[-1] != c.control_proc:
            problems.append(f"commodity {i} path endpoints {path[0]}..{path[-1]} wrong")
        if len(set(path)) != len(path):
            problems.append(f"commodity {i} path revisits a processor")
        for a, b in zip(path, path[1:]):
            key = edge_key(a, b)
            if key not in q.capacity:
                problems.append(f"commodity {i} uses missing edge {a}-{b}")
            load[(key, tau)] = load.get((key, tau), 0) + 1
            if 1 <= tau <= d:
                net[i][b] = net[i].get(b, 0) + 1
                net[i][a] = net[i].get(a, 0) - 1

    node_rank = {node: r for r, node in enumerate(q.nodes)}
    for c in commodities:
        i, flows = c.index, net[c.index]
        tau = solution.steps.get(i)
        unbalanced = [
            node for node, v in flows.items()
            if v and node in node_rank and node not in (c.control_proc, c.target_proc)
        ]
        for node in sorted(unbalanced, key=node_rank.get):
            problems.append(f"conservation violated at {node} for {i} at step {tau}")
        net_c, net_t = flows.get(c.control_proc, 0), flows.get(c.target_proc, 0)
        if net_c != 1:
            problems.append(f"demand at control processor of {i} is {net_c}, want +1")
        if net_t != -1:
            problems.append(f"demand at target processor of {i} is {net_t}, want -1")

    edge_rank = {edge: r for r, edge in enumerate(q.capacity)}
    overloaded = [
        (edge, tau, used)
        for (edge, tau), used in load.items()
        if edge in edge_rank and 1 <= tau <= d and used > q.capacity[edge]
    ]
    for edge, tau, used in sorted(overloaded, key=lambda x: (edge_rank[x[0]], x[1])):
        problems.append(f"capacity exceeded on {edge} at step {tau}: {used} > {q.capacity[edge]}")

    for c in commodities:
        for other in commodities:
            i, j = other.index, c.index
            if not relations.prec(i, j):
                continue
            ti, tj = solution.steps.get(i), solution.steps.get(j)
            if ti is None or tj is None:
                continue
            if relations.qp(i, j):
                if tj < ti:
                    problems.append(f"{j} completes before its sharable predecessor {i}")
            elif tj <= ti:
                problems.append(f"{j} does not strictly follow its predecessor {i}")
    return problems
