"""Logical circuits: parsing, layer construction, remote-operation extraction."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import reduce
from math import inf
from operator import or_


class CircuitError(ValueError):
    """Raised for malformed circuit sources or invalid gate data."""


def reject_reserved(names: Iterable[str], error: type[Exception], where: str = "") -> None:
    """Raise ``error`` on the first name starting with ``_``: the rewrite
    engine's and the verifier's own wires use that prefix, so a program or
    network qubit named so would share a wire with them."""
    for name in names:
        if name.startswith("_"):
            raise error(f"{where}qubit name {name!r}: the prefix '_' is reserved")


def _declare(qubits: tuple[str, ...], where: str = "") -> frozenset[str]:
    """The declared qubit names; raises ``CircuitError`` on a repeated or
    reserved one, its message prefixed by ``where``."""
    declared = frozenset(qubits)
    if len(declared) != len(qubits):
        raise CircuitError(f"{where}duplicate qubit declaration")
    reject_reserved(qubits, CircuitError, where)
    return declared


def _check_declared(gate: Gate, declared: frozenset[str], where: str = "") -> None:
    """Raise ``CircuitError`` on the first qubit of ``gate`` not declared."""
    for q in gate.qubits:
        if q not in declared:
            raise CircuitError(f"{where}undeclared qubit {q!r}")


@dataclass(frozen=True)
class Gate:
    """One gate of the local universal set. ``qubits`` is (q,) for h/t and
    (control, target) for cx."""

    kind: str
    qubits: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("h", "t", "cx"):
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind == "cx" else 1
        if len(self.qubits) != want:
            raise CircuitError(f"{self.kind} takes {want} qubit(s), got {self.qubits!r}")
        if self.kind == "cx" and self.qubits[0] == self.qubits[1]:
            raise CircuitError(f"cx with equal operands {self.qubits[0]!r}")

    @property
    def control(self) -> str:
        return self.qubits[0]

    @property
    def target(self) -> str:
        return self.qubits[1]

    def __str__(self) -> str:
        return f"{self.kind} {' '.join(self.qubits)}"


Layer = tuple[Gate, ...]
Position = tuple[int, int]  # (layer, slot within the layer)


@dataclass(frozen=True)
class LogicalCircuit:
    """An ordered sequence of layers over declared qubits.

    Within one layer no two gates may share a qubit; the constructor
    enforces this, so a freshly parsed circuit stores one gate per layer.
    """

    qubits: tuple[str, ...]
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        declared = _declare(self.qubits)
        for layer in self.layers:
            seen: set[str] = set()
            for gate in layer:
                _check_declared(gate, declared)
                for q in gate.qubits:
                    if q in seen:
                        raise CircuitError(f"layer reuses qubit {q!r}")
                    seen.add(q)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def gates(self) -> list[Gate]:
        """All gates in layer order (source order within a layer)."""
        return [g for layer in self.layers for g in layer]

    def _positioned(self) -> list[tuple[Position, Gate]]:
        """Every gate with its position, in layer order."""
        return [
            ((lay, slot), g) for lay, layer in enumerate(self.layers) for slot, g in enumerate(layer)
        ]

    def dependencies(self, marks: Mapping[Position, int]) -> dict[Position, int]:
        """Per gate, the OR of the marks of every gate it depends on, its
        own mark not counted. One forward pass over the wire order."""
        return _carry(self._positioned(), marks, 0, or_)

    def step_bounds(
        self, steps: Mapping[Position, int]
    ) -> tuple[dict[Position, float], dict[Position, float]]:
        """Two bounds per gate, given the step of each remote operation by
        position: ``low``, the latest step among the operations the gate
        depends on (0 if none), and ``high``, the earliest step among those
        that depend on it (``inf`` if none). One forward and one backward
        pass over the wire order."""
        gates = self._positioned()
        return _carry(gates, steps, 0, max), _carry(gates[::-1], steps, inf, min)

    def to_text(self) -> str:
        lines = ["qubits " + " ".join(self.qubits)]
        lines += [str(g) for g in self.gates()]
        return "\n".join(lines) + "\n"


def _carry(gates, marks, none, join) -> dict:
    """Each gate's ``join`` over the gates before it in ``gates``: a running
    value per qubit takes in every gate's own mark as it passes. ``none``
    is the join's identity; ``max``, ``min`` and ``or_`` all serve."""
    bound: dict = {}
    running: dict = {}
    for pos, gate in gates:
        bound[pos] = reduce(join, [running.get(q, none) for q in gate.qubits])
        for q in gate.qubits:
            running[q] = join(bound[pos], marks.get(pos, none))
    return bound


@dataclass(frozen=True)
class Commodity:
    """One remote CX occurrence: unit demand from its target processor to
    its control processor. ``index`` is the 1-based enumeration position,
    ``layer`` the 0-based layer of the originating gate."""

    index: int
    control_proc: str
    target_proc: str
    control_qubit: str
    target_qubit: str
    layer: int

    def __post_init__(self) -> None:
        if self.control_proc == self.target_proc:
            raise CircuitError("a same-processor cx is local, not a commodity")

    @property
    def operands(self) -> tuple[str, str]:
        return (self.control_qubit, self.target_qubit)


def parse_circuit(text: str) -> LogicalCircuit:
    """Parse the line-oriented circuit format into singleton layers.

    Format: a ``qubits q0 q1 ...`` header, then one gate per line
    (``h <q>``, ``t <q>``, ``cx <qc> <qt>``). ``#`` starts a comment.
    """
    qubits: tuple[str, ...] | None = None
    declared: frozenset[str] = frozenset()
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0].lower(), parts[1:]
        if head == "qubits":
            if qubits is not None:
                raise CircuitError(f"line {lineno}: repeated qubits header")
            if not args:
                raise CircuitError(f"line {lineno}: empty qubits header")
            qubits = tuple(args)
            declared = _declare(qubits, f"line {lineno}: ")
            continue
        if qubits is None:
            raise CircuitError(f"line {lineno}: gate before qubits header")
        if head not in ("h", "t", "cx"):
            raise CircuitError(f"line {lineno}: unknown gate name {head!r}")
        try:
            gate = Gate(head, tuple(args))
        except CircuitError as exc:
            raise CircuitError(f"line {lineno}: {exc}") from None
        _check_declared(gate, declared, f"line {lineno}: ")
        gates.append(gate)
    if qubits is None:
        raise CircuitError("missing qubits header")
    return LogicalCircuit(qubits, tuple((g,) for g in gates))


def layerize(circuit: LogicalCircuit) -> LogicalCircuit:
    """Greedy as-soon-as-possible layering.

    Each gate goes to the earliest layer after the last layer touching any
    of its qubits. Idempotent; preserves the relative order of gates that
    share a qubit.
    """
    last: dict[str, int] = {}
    layers: list[list[Gate]] = []
    for gate in circuit.gates():
        at = max((last.get(q, -1) for q in gate.qubits), default=-1) + 1
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        for q in gate.qubits:
            last[q] = at
    return LogicalCircuit(circuit.qubits, tuple(tuple(l) for l in layers))


def extract_commodities(
    circuit: LogicalCircuit, placement: dict[str, str]
) -> list[Commodity]:
    """Enumerate the cx gates whose operands sit on distinct processors.

    Enumeration follows layer order, ties broken by in-layer source order;
    indices are 1-based. ``placement`` maps every circuit qubit to its
    processor.
    """
    for q in circuit.qubits:
        if q not in placement:
            raise CircuitError(f"unplaced qubit {q!r}")
    out: list[Commodity] = []
    for layer_idx, layer in enumerate(circuit.layers):
        for gate in layer:
            if gate.kind != "cx":
                continue
            pc, pt = placement[gate.control], placement[gate.target]
            if pc == pt:
                continue
            out.append(
                Commodity(
                    index=len(out) + 1,
                    control_proc=pc,
                    target_proc=pt,
                    control_qubit=gate.control,
                    target_qubit=gate.target,
                    layer=layer_idx,
                )
            )
    return out


def commodity_slots(
    circuit: LogicalCircuit, commodities: list[Commodity]
) -> dict[int, Position]:
    """Position of each commodity's cx gate: commodity index -> (layer,
    slot within the layer). No two gates of a layer share a qubit, so the
    layer holds exactly one cx on the commodity's operands."""
    slots: dict[int, Position] = {}
    for c in commodities:
        for slot, gate in enumerate(circuit.layers[c.layer]):
            if gate.kind == "cx" and gate.qubits == c.operands:
                slots[c.index] = (c.layer, slot)
                break
    return slots
