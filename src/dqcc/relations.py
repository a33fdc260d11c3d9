"""Precedence and quasi-parallelism relations over the remote operations."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .circuit import Commodity, LogicalCircuit, commodity_slots
from .rewrite import EGate, PredicateStats, bare_telegate, lifetimes, lift, rewrite_step

# Communication-qubit suffixes of ``bare_telegate`` and their lifetimes
# there, the same for every commodity; merge cost is growth past these.
_BARE_LIFETIMES = (("a", 1), ("b", 2))


@dataclass
class RelationTable:
    """Per ordered pair (i, j) with i < j in enumeration order: does i's
    layer strictly precede j's, and may the two share a time step?

    Same-layer pairs are never ordered and always share; the sharing
    relation is not transitive and is stored pairwise. The table holds only
    these two booleans per pair: emission rewrites each step's fragment
    itself and reads neither relation.
    """

    precedes: dict[tuple[int, int], bool] = field(default_factory=dict)
    shares_step: dict[tuple[int, int], bool] = field(default_factory=dict)

    def prec(self, i: int, j: int) -> bool:
        """i comes in a strictly earlier layer than j (1-based indices)."""
        if i == j:
            return False
        return self.precedes[(i, j)] if i < j else False

    def qp(self, i: int, j: int) -> bool:
        """i and j may complete in the same time step."""
        if i == j:
            return True
        a, b = min(i, j), max(i, j)
        return self.shares_step[(a, b)]

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.precedes)

    def dump(self) -> str:
        lines = [
            f"{i} {j} prec={int(self.precedes[(i, j)])} qp={int(self.shares_step[(i, j)])}"
            for i, j in self.pairs()
        ]
        return "\n".join(lines) + ("\n" if lines else "")


class MergeCosts:
    """Merge costs of one circuit's commodity pairs, each pair evaluated at
    most once.

    Results are kept by ``(ci.index, cj.index)``, and a composite pair reads
    its two sub-pairs from the same table, so one relation build evaluates
    each pair once however many longer pairs span it. The remote-gate
    slots, each layer's lifted local gates, each commodity's bare telegate
    and the commodities it depends on are computed once per table.
    ``commodities`` come in layer order, as ``extract_commodities`` returns them.
    """

    def __init__(
        self,
        circuit: LogicalCircuit,
        commodities: list[Commodity],
        stats: PredicateStats | None = None,
    ) -> None:
        self.commodities = commodities
        self.stats = stats if stats is not None else PredicateStats()
        self._slots = commodity_slots(circuit, commodities)
        remote = set(self._slots.values())
        self._locals = [
            [lift(g) for slot, g in enumerate(layer) if (lay, slot) not in remote]
            for lay, layer in enumerate(circuit.layers)
        ]
        self._layers = [c.layer for c in commodities]
        # Bit i of a gate's entry is set when the gate depends on commodity i.
        marks = {self._slots[c.index]: 1 << c.index for c in commodities}
        self._depends = circuit.dependencies(marks)
        self._telegates: dict[int, list[EGate]] = {}
        self._costs: dict[tuple[int, int], int | None] = {}

    def cost(self, ci: Commodity, cj: Commodity) -> int | None:
        """Smallest coherence budget letting ci and cj (ci's layer first)
        share a step, or None when the rule engine cannot merge them;
        evaluated on first request only.

        Same-layer and provably independent pairs cost nothing. A pair with
        remote operations in between recurses through the middle one, and
        the two sides' costs add: a budget split serving both exists exactly
        when the sum fits (budget monotonicity makes integer splits exact).
        """
        key = (ci.index, cj.index)
        if key not in self._costs:
            self._costs[key] = self._evaluate(ci, cj)
        return self._costs[key]

    def _telegate(self, com: Commodity) -> list[EGate]:
        if com.index not in self._telegates:
            self._telegates[com.index] = bare_telegate(com)
        return self._telegates[com.index]

    def fragment(self, ci: Commodity, cj: Commodity) -> list[EGate]:
        """Sequential fragment: both protocols with the local gates whose
        layers fall inside the pair's span. Other remote operations are
        excluded (the recursion handles them); locals precede their layer's
        commodities."""
        frag: list[EGate] = []
        for lay in range(ci.layer, cj.layer + 1):
            frag += self._locals[lay]
            if lay == ci.layer:
                frag.extend(self._telegate(ci))
            if lay == cj.layer:
                frag.extend(self._telegate(cj))
        return frag

    def _evaluate(self, ci: Commodity, cj: Commodity) -> int | None:
        self.stats.recursive_calls += 1
        if not self._depends[self._slots[cj.index]] >> ci.index & 1:
            return 0  # cj does not depend on ci, as in every same-layer pair
        lo = bisect_right(self._layers, ci.layer)
        hi = bisect_left(self._layers, cj.layer, lo)
        if lo < hi:  # commodities lo..hi-1 lie strictly between the two
            pivot = self.commodities[(lo + hi) // 2]
            left = self.cost(ci, pivot)
            if left is None:
                return None
            right = self.cost(pivot, cj)
            if right is None:
                return None
            return left + right

        counter = [0]
        outcome = rewrite_step(self.fragment(ci, cj), counter)
        self.stats.rule_applications += counter[0]
        if outcome is None:
            return None
        merged = lifetimes(outcome.in_step)
        growth = [
            merged[f"_c{com.index}{side}"] - bare
            for com in (ci, cj)
            for side, bare in _BARE_LIFETIMES
        ]
        return max(0, *growth)


def build_relations(
    commodities: list[Commodity],
    circuit: LogicalCircuit,
    budget: int,
    enable_qp: bool = True,
    stats: PredicateStats | None = None,
) -> RelationTable:
    """Build both relations for every ordered pair.

    Precedence follows layer order. With quasi-parallelism enabled, a pair
    shares a step when its merge cost fits the coherence budget; disabled,
    only same-layer pairs share (full parallelism only). One
    ``MergeCosts`` table serves the whole build, so each pair's merge cost
    is evaluated at most once and composite pairs reuse their sub-pairs'.
    """
    table = RelationTable()
    costs = MergeCosts(circuit, commodities, stats) if enable_qp else None
    for a in range(len(commodities)):
        for b in range(a + 1, len(commodities)):
            ci, cj = commodities[a], commodities[b]
            key = (ci.index, cj.index)
            table.precedes[key] = ci.layer < cj.layer
            if ci.layer == cj.layer:
                table.shares_step[key] = True
            elif costs is None:
                table.shares_step[key] = False
            else:
                cost = costs.cost(ci, cj)
                table.shares_step[key] = cost is not None and cost <= budget
    return table
