"""Distributed architecture model: the network graph and its quotient over
processors, the graph the flow solver routes on."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .circuit import reject_reserved


class NetworkError(ValueError):
    """Raised for malformed network sources or invariant violations."""


Edge = tuple[str, str]


def edge_key(a: str, b: str) -> Edge:
    """Canonical unordered pair for a quotient edge."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class NetworkGraph:
    """Architecture with processors partitioning the qubit set.

    ``processors`` maps processor name to (computation qubits, communication
    qubits), both in declaration order. ``locals_`` are intra-processor
    couplings; ``links`` are entanglement links between communication qubits
    of distinct processors.
    """

    processors: dict[str, tuple[tuple[str, ...], tuple[str, ...]]]
    locals_: tuple[Edge, ...]
    links: tuple[Edge, ...]

    @cached_property
    def _owner(self) -> dict[str, str]:
        """Node -> processor, built from the declarations once."""
        owner: dict[str, str] = {}
        for name, (comp, comm) in self.processors.items():
            for node in comp + comm:
                owner.setdefault(node, name)
        return owner

    @cached_property
    def _local_adjacency(self) -> dict[str, tuple[str, ...]]:
        """Local neighbours per node in coupling declaration order, built
        from the couplings once."""
        adj: dict[str, list[str]] = {}
        for a, b in self.locals_:
            adj.setdefault(a, []).append(b)
            if b != a:
                adj.setdefault(b, []).append(a)
        return {node: tuple(nbs) for node, nbs in adj.items()}

    def processor_of(self, node: str) -> str:
        try:
            return self._owner[node]
        except KeyError:
            raise NetworkError(f"unknown node {node!r}") from None

    @property
    def communication_qubits(self) -> tuple[str, ...]:
        return tuple(c for _, comm in self.processors.values() for c in comm)

    def placement(self) -> dict[str, str]:
        """Computation qubit -> processor name."""
        return {q: p for p, (comp, _) in self.processors.items() for q in comp}

    def local_neighbors(self, node: str) -> list[str]:
        """Nodes locally coupled to ``node``, in declaration order, as a new
        list. The maps behind this and ``processor_of`` are computed once
        per graph, so the declarations must not change after the first call."""
        return list(self._local_adjacency.get(node, ()))


@dataclass(frozen=True)
class QuotientGraph:
    """Processors as nodes; all links between a processor pair compressed to
    one undirected edge whose capacity is the link count."""

    nodes: tuple[str, ...]
    capacity: dict[Edge, int]

    def edges(self) -> list[Edge]:
        return sorted(self.capacity)

    @cached_property
    def _adjacency(self) -> dict[str, tuple[str, ...]]:
        """Sorted neighbours per processor, built from the edges once, so the
        edges must not change after the first ``simple_paths`` call."""
        adj: dict[str, list[str]] = {}
        for a, b in self.capacity:
            adj.setdefault(a, []).append(b)
            if b != a:
                adj.setdefault(b, []).append(a)
        return {proc: tuple(sorted(nbs)) for proc, nbs in adj.items()}

    def simple_paths(self, source: str, sink: str) -> list[tuple[str, ...]]:
        """All simple paths as node sequences, ordered by (length, nodes)."""
        adj = self._adjacency
        out: list[tuple[str, ...]] = []

        def walk(node: str, seen: tuple[str, ...]) -> None:
            if node == sink:
                out.append(seen)
                return
            for nb in adj.get(node, ()):
                if nb not in seen:
                    walk(nb, seen + (nb,))

        walk(source, (source,))
        out.sort(key=lambda p: (len(p), p))
        return out


def parse_network(text: str) -> NetworkGraph:
    """Parse the line-oriented network format and validate all invariants.

    Format: ``processor P { comp q1 q2 comm c1 }`` blocks (single line),
    then ``local <a> <b>`` and ``elink <ca> <cb>`` lines. ``#`` comments.
    """
    processors: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
    locals_: list[Edge] = []
    links: list[Edge] = []
    comp_of: dict[str, str] = {}
    comm_of: dict[str, str] = {}
    link_line: dict[str, int] = {}  # communication qubit -> line of its link

    def owner(node: str) -> str:
        if node in comp_of:
            return comp_of[node]
        if node in comm_of:
            return comm_of[node]
        raise NetworkError(f"line {lineno}: undeclared node {node!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].lower()
        if head == "processor":
            if len(parts) < 3 or parts[2] != "{" or parts[-1] != "}":
                raise NetworkError(f"line {lineno}: malformed processor block")
            name = parts[1]
            if name in processors:
                raise NetworkError(f"line {lineno}: duplicate processor {name!r}")
            comp: list[str] = []
            comm: list[str] = []
            bucket: list[str] | None = None
            for tok in parts[3:-1]:
                if tok == "comp":
                    bucket = comp
                elif tok == "comm":
                    bucket = comm
                elif bucket is None:
                    raise NetworkError(f"line {lineno}: token {tok!r} outside comp/comm")
                else:
                    if tok in comp_of or tok in comm_of:
                        raise NetworkError(f"line {lineno}: duplicate node name {tok!r}")
                    reject_reserved([tok], NetworkError, f"line {lineno}: ")
                    bucket.append(tok)
                    if bucket is comp:
                        comp_of[tok] = name
                    else:
                        comm_of[tok] = name
            processors[name] = (tuple(comp), tuple(comm))
        elif head == "local":
            if len(parts) != 3:
                raise NetworkError(f"line {lineno}: local takes two nodes")
            a, b = parts[1], parts[2]
            if owner(a) != owner(b):
                raise NetworkError(f"line {lineno}: local coupling {a!r}-{b!r} crosses processors")
            if a == b:
                raise NetworkError(f"line {lineno}: self-coupling {a!r}")
            locals_.append((a, b))
        elif head == "elink":
            if len(parts) != 3:
                raise NetworkError(f"line {lineno}: elink takes two nodes")
            a, b = parts[1], parts[2]
            for n in (a, b):
                if n in comp_of:
                    raise NetworkError(
                        f"line {lineno}: entanglement link touches computation qubit {n!r}"
                    )
            if owner(a) == owner(b):
                raise NetworkError(f"line {lineno}: entanglement link inside one processor")
            # One link per communication qubit: two links on one qubit would
            # let two operations of a step entangle it at once.
            for n in (a, b):
                if n in link_line:
                    raise NetworkError(
                        f"line {lineno}: communication qubit {n!r} already ends the link "
                        f"on line {link_line[n]}"
                    )
                link_line[n] = lineno
            links.append((a, b))
        else:
            raise NetworkError(f"line {lineno}: unknown directive {head!r}")

    if not processors:
        raise NetworkError("no processors declared")

    # Connectivity over local couplings plus entanglement links.
    nodes = list(comp_of) + list(comm_of)
    if nodes:
        adj: dict[str, set[str]] = {n: set() for n in nodes}
        for a, b in locals_ + links:
            adj[a].add(b)
            adj[b].add(a)
        # Qubits of one processor are mutually reachable through the
        # processor itself even without explicit couplings.
        for comp, comm in processors.values():
            block = list(comp) + list(comm)
            for n in block[1:]:
                adj[block[0]].add(n)
                adj[n].add(block[0])
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            n = frontier.pop()
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        if len(seen) != len(nodes):
            raise NetworkError("disconnected architecture")

    return NetworkGraph(processors, tuple(locals_), tuple(links))


def quotient(net: NetworkGraph) -> QuotientGraph:
    """Compress entanglement links to one edge per processor pair; the
    capacity of an edge is the number of links it stands for."""
    capacity = {key: len(links) for key, links in links_by_edge(net).items()}
    return QuotientGraph(tuple(sorted(net.processors)), capacity)


def links_by_edge(net: NetworkGraph) -> dict[Edge, list[Edge]]:
    """Concrete links grouped per quotient edge, in declaration order.

    The quotient graph discards which communication qubit carries which
    link; the expander re-binds them from this table.
    """
    table: dict[Edge, list[Edge]] = {}
    for ca, cb in net.links:
        pa, pb = net.processor_of(ca), net.processor_of(cb)
        key = edge_key(pa, pb)
        # Store link endpoints ordered to match the edge key's processors.
        pair = (ca, cb) if (pa, pb) == key else (cb, ca)
        table.setdefault(key, []).append(pair)
    return table

