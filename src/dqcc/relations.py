"""Precedence and quasi-parallelism relations over the remote operations."""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import Commodity, LogicalCircuit
from .rewrite import MergeCosts, PredicateStats


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


def build_relations(
    commodities: list[Commodity],
    circuit: LogicalCircuit,
    budget: int,
    enable_qp: bool = True,
    stats: PredicateStats | None = None,
) -> RelationTable:
    """Build both relations for every ordered pair.

    Precedence follows layer order. With quasi-parallelism enabled, sharing
    is decided by the rewrite predicate under the coherence budget;
    disabled, only same-layer pairs share (full parallelism only). One
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
                continue
            if costs is None:
                table.shares_step[key] = False
                continue
            table.shares_step[key] = costs.shares(ci, cj, budget)[0]
    return table
