"""Logical circuits: parsing, layer construction, remote-operation extraction."""

from __future__ import annotations

from dataclasses import dataclass


class CircuitError(ValueError):
    """Raised for malformed circuit sources or invalid gate data."""


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


@dataclass(frozen=True)
class LogicalCircuit:
    """An ordered sequence of layers over declared qubits.

    Within one layer no two gates may share a qubit; the constructor
    enforces this, so a freshly parsed circuit stores one gate per layer.
    """

    qubits: tuple[str, ...]
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        declared = set(self.qubits)
        if len(declared) != len(self.qubits):
            raise CircuitError("duplicate qubit declaration")
        for layer in self.layers:
            seen: set[str] = set()
            for gate in layer:
                for q in gate.qubits:
                    if q not in declared:
                        raise CircuitError(f"undeclared qubit {q!r}")
                    if q in seen:
                        raise CircuitError(f"layer reuses qubit {q!r}")
                    seen.add(q)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def gates(self) -> list[Gate]:
        """All gates in layer order (source order within a layer)."""
        return [g for layer in self.layers for g in layer]

    def to_text(self) -> str:
        lines = ["qubits " + " ".join(self.qubits)]
        lines += [str(g) for g in self.gates()]
        return "\n".join(lines) + "\n"


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
            continue
        if qubits is None:
            raise CircuitError(f"line {lineno}: gate before qubits header")
        if head not in ("h", "t", "cx"):
            raise CircuitError(f"line {lineno}: unknown gate name {head!r}")
        try:
            gates.append(Gate(head, tuple(args)))
        except CircuitError as exc:
            raise CircuitError(f"line {lineno}: {exc}") from None
    if qubits is None:
        raise CircuitError("missing qubits header")
    try:
        return LogicalCircuit(qubits, tuple((g,) for g in gates))
    except CircuitError as exc:
        raise CircuitError(str(exc)) from None


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
) -> dict[int, tuple[int, int]]:
    """Position of each commodity's cx gate: commodity index -> (layer,
    slot within the layer). No two gates of a layer share a qubit, so the
    layer holds exactly one cx on the commodity's operands."""
    slots: dict[int, tuple[int, int]] = {}
    for c in commodities:
        for slot, gate in enumerate(circuit.layers[c.layer]):
            if gate.kind == "cx" and gate.qubits == c.operands:
                slots[c.index] = (c.layer, slot)
                break
    return slots
