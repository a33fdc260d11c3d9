"""Extended-gate algebra and the transformation engine behind quasi-parallelism.

Extended circuits add entanglement creation, communication-qubit measurement
and classically-controlled Pauli gates (exponents are XOR expressions over
measurement bits) to the local set. The engine commutes pending Pauli
corrections forward and pre-processing CX gates backward so that two
logically conflicting telegates can share one entanglement round.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Commodity, Gate

BitExpr = frozenset[str]

EMPTY: BitExpr = frozenset()


@dataclass(frozen=True)
class EGate:
    """One extended gate.

    kinds: e (entangle pair), cx, h, t, m (measure -> bit),
    px / pz (classically-controlled Pauli with XOR exponent).
    """

    kind: str
    qubits: tuple[str, ...]
    bit: str | None = None
    expr: BitExpr = EMPTY

    def __str__(self) -> str:
        if self.kind == "m":
            return f"m {self.qubits[0]} -> {self.bit}"
        if self.kind in ("px", "pz"):
            body = "^".join(sorted(self.expr, key=_bit_sort_key)) or "0"
            return f"{'xc' if self.kind == 'px' else 'zc'} {self.qubits[0]} {body}"
        return f"{self.kind} {' '.join(self.qubits)}"


def _bit_sort_key(bit: str) -> tuple:
    # Bits like "b2_10" sort numerically by (step, seq); anything else stays
    # lexicographic.
    if bit.startswith("b") and "_" in bit:
        a, _, b = bit[1:].partition("_")
        if a.isdigit() and b.isdigit():
            return (0, int(a), int(b), bit)
    return (1, bit)


def e(a: str, b: str) -> EGate:
    return EGate("e", (a, b))


def cx(c: str, t: str) -> EGate:
    return EGate("cx", (c, t))


def h(q: str) -> EGate:
    return EGate("h", (q,))


def t(q: str) -> EGate:
    return EGate("t", (q,))


def m(q: str, bit: str) -> EGate:
    return EGate("m", (q,), bit=bit)


def px(q: str, expr: BitExpr) -> EGate:
    return EGate("px", (q,), expr=frozenset(expr))


def pz(q: str, expr: BitExpr) -> EGate:
    return EGate("pz", (q,), expr=frozenset(expr))


def lift(gate: Gate) -> EGate:
    """A logical gate as an extended gate."""
    return EGate(gate.kind, gate.qubits)


@dataclass(frozen=True)
class ExtendedCircuit:
    """Computation-qubit register plus a flat extended-gate sequence."""

    comp_qubits: tuple[str, ...]
    gates: tuple[EGate, ...]

    @property
    def depth(self) -> int:
        """Layers of the as-soon-as-possible layering, which honours both
        qubit contention and bit availability (a controlled Pauli must
        follow the layer measuring every bit it reads)."""
        return max(asap_layers(self.gates), default=0)


def asap_layers(gates: tuple[EGate, ...] | list[EGate]) -> list[int]:
    busy: dict[str, int] = {}
    measured: dict[str, int] = {}
    out: list[int] = []
    for g in gates:
        at = 0
        for q in g.qubits:
            at = max(at, busy.get(q, 0))
        for b in g.expr:
            at = max(at, measured.get(b, 0))
        at += 1
        out.append(at)
        for q in g.qubits:
            busy[q] = at
        if g.kind == "m":
            measured[g.bit] = at  # type: ignore[index]
    return out


def lifetimes(gates: list[EGate] | tuple[EGate, ...]) -> dict[str, int]:
    """Lifetime of every qubit with an entangling gate and a measurement in
    the fragment: the layers strictly between the two under one ASAP
    layering. The last e and the last m on a qubit count."""
    at_e: dict[str, int] = {}
    at_m: dict[str, int] = {}
    for g, lay in zip(gates, asap_layers(gates)):
        if g.kind == "e":
            for q in g.qubits:
                at_e[q] = lay
        elif g.kind == "m":
            at_m[g.qubits[0]] = lay
    return {q: at_m[q] - at - 1 for q, at in at_e.items() if q in at_m}


def lifetime(gates: list[EGate] | tuple[EGate, ...], qubit: str) -> int:
    """Layers strictly between the qubit's entangling gate and its
    measurement, under ASAP layering of the fragment; ``lifetimes`` gives
    every qubit's from the same single pass."""
    try:
        return lifetimes(gates)[qubit]
    except KeyError:
        raise ValueError(f"qubit {qubit!r} lacks an e/m pair in the fragment") from None


def push_backward(cx_gate: EGate, gate: EGate) -> list[EGate] | None:
    """Move a pre-processing CX left past the gate immediately before it.

    Returns the replacement sequence for [gate, cx_gate], or None when no
    rule applies. The h rules flip the CX orientation; the single-h rule
    relocates the Hadamard to the other wire, leaving a trailing pair the
    caller may cancel.
    """
    ctrl, tgt = cx_gate.qubits
    if gate.kind == "t":
        if gate.qubits[0] == ctrl:
            return [cx_gate, gate]
        return None
    if gate.kind == "cx":
        c2, t2 = gate.qubits
        shared = {ctrl, tgt} & {c2, t2}
        if shared == {tgt} and t2 == tgt:
            return [cx_gate, gate]  # common target
        if shared == {ctrl} and c2 == ctrl:
            return [cx_gate, gate]  # common control
        return None
    if gate.kind == "h":
        w = gate.qubits[0]
        if w not in (ctrl, tgt):
            return None
        other = tgt if w == ctrl else ctrl
        # [h w, cx] == [h other, cx flipped, h w, h other]
        return [h(other), cx(tgt, ctrl), h(w), h(other)]
    return None


@dataclass
class RewriteOutcome:
    """Result of rewriting one step fragment: its gates other than the
    classically-controlled Paulis, in order, and the Pauli frame left at
    its end as one ``px``/``pz`` per non-empty (qubit, X|Z) part, sorted
    by qubit with the Z first. The rules applied are counted in
    ``rewrite_step``'s ``counter``."""

    in_step: list[EGate]
    corrections: list[EGate]


def _bubble_left(work: list[EGate], c: int, comm: set[str], count: list[int]) -> int:
    """Move the communication-touching cx at index c left past local
    unitaries on shared wires while the rule set allows, rewriting
    ``work`` in place. Returns the cx's final index."""
    while True:
        g = work[c]
        a, b = g.qubits
        for prev in range(c - 1, -1, -1):
            qubits = work[prev].qubits
            if a in qubits or b in qubits:
                break
        else:
            return c
        before = work[prev]
        if before.kind not in ("h", "t", "cx") or not comm.isdisjoint(before.qubits):
            return c  # protocol gate, pauli, or another telegate
        repl = push_backward(g, before)
        if repl is None:
            return c
        if len(repl) == 4:
            # Single-h rule: [h w, cx] -> [h other, cx flipped, h w, h other].
            # Worth applying only when the trailing h cancels against the
            # next gate on that wire (the protocol h before the measurement);
            # otherwise the flip just lengthens the communication qubit's
            # life. The trailing h is not inserted and the h it meets goes.
            trailing = repl.pop()
            wire = trailing.qubits[0]
            follow = next((p for p in range(c + 1, len(work)) if wire in work[p].qubits), None)
            if follow is None or work[follow] != trailing:
                return c
            del work[follow]
        # The cx moves in front of the gate it passes; the gates between
        # touch neither of its wires and keep their order.
        count[0] += 1
        del work[c]
        work[prev : prev + 1] = repl
        if len(repl) == 3:
            return prev + 1  # the inserted h on the comm wire shields further moves
        c = prev


def rewrite_step(gates: list[EGate], counter: list[int] | None = None) -> RewriteOutcome | None:
    """Rewrite a sequential fragment so every classically-controlled Pauli
    defers past the fragment while all other gates stay inside it.

    Entangling gates float to the front (their qubits are fresh), pre-
    processing CX gates bubble left past intervening local gates to keep
    communication qubits short-lived, and one left-to-right sweep carries
    the pending Paulis as a frame: h swaps a qubit's X and Z parts, cx
    copies an X from control to target and a Z from target to control, a
    measurement drops its qubit's Z and folds its X into the bit's readers.
    Returns None when a non-empty X part meets a t.
    """
    count = counter if counter is not None else [0]
    entangling = [g for g in gates if g.kind == "e"]
    work = entangling + [g for g in gates if g.kind != "e"]
    comm = {q for g in entangling for q in g.qubits}

    idx = len(entangling)
    while idx < len(work):
        g = work[idx]
        if g.kind != "cx" or comm.isdisjoint(g.qubits):
            idx += 1
            continue
        idx = _bubble_left(work, idx, comm, count) + 1

    # Forward pass: one sweep carrying a Pauli frame, (qubit, is an X) ->
    # exponent, which each gate conjugates in turn.
    in_step: list[EGate] = []
    frame: dict[tuple[str, bool], BitExpr] = {}
    for i, g in enumerate(work):
        if g.kind in ("px", "pz"):
            key = (g.qubits[0], g.kind == "px")
            frame[key] = frame.get(key, EMPTY) ^ g.expr
            continue
        in_step.append(g)
        q = g.qubits[0]
        if g.kind == "h":
            x, z = frame.get((q, True), EMPTY), frame.get((q, False), EMPTY)
            frame[q, True], frame[q, False] = z, x
            count[0] += bool(x) + bool(z)
        elif g.kind == "t":
            if frame.get((q, True)):
                return None
        elif g.kind == "cx":
            tgt = g.qubits[1]
            # An X on the control copies onto the target, a Z on the
            # target onto the control.
            for src, dst, is_x in ((q, tgt, True), (tgt, q, False)):
                part = frame.get((src, is_x))
                if part:
                    frame[dst, is_x] = frame.get((dst, is_x), EMPTY) ^ part
                    count[0] += 1
        elif g.kind == "m":
            # A Z before a measurement only changes the branch phase. An X
            # flips the outcome: every reader of the bit reads the flip too.
            x, z = frame.pop((q, True), EMPTY), frame.pop((q, False), EMPTY)
            count[0] += bool(x) + bool(z)
            if x:
                for key, part in frame.items():
                    if g.bit in part:
                        frame[key] = part ^ x
                for p in range(i + 1, len(work)):
                    later = work[p]
                    if later.kind in ("px", "pz") and g.bit in later.expr:
                        work[p] = EGate(later.kind, later.qubits, expr=later.expr ^ x)

    corrections = [(px if x else pz)(q, expr) for (q, x), expr in sorted(frame.items()) if expr]
    return RewriteOutcome(in_step, corrections)


# --- Telegate fragments -----------------------------------------------


def bare_telegate(com: Commodity) -> list[EGate]:
    """Single-link protocol for one remote cx: entangle, local cx pair,
    h on the target-side qubit, both measurements, then the deferred
    corrections (Z on the control from the h-side bit, X on the target).
    Its communication qubits ``_c<i>a`` and ``_c<i>b`` live 1 and 2 layers."""
    i = com.index
    ctrl_comm, tgt_comm, ctrl_bit, tgt_bit = f"_c{i}a", f"_c{i}b", f"_b{i}a", f"_b{i}b"
    return [
        e(ctrl_comm, tgt_comm),
        cx(com.control_qubit, ctrl_comm),
        cx(tgt_comm, com.target_qubit),
        h(tgt_comm),
        m(ctrl_comm, ctrl_bit),
        m(tgt_comm, tgt_bit),
        pz(com.control_qubit, frozenset({tgt_bit})),
        px(com.target_qubit, frozenset({ctrl_bit})),
    ]


@dataclass
class PredicateStats:
    """Counters backing the polynomial-cost assertions.

    ``rule_applications`` counts each cx that a backward rule moves, and
    each non-empty Pauli-frame part that an h swaps, a cx copies or a
    measurement absorbs. ``recursive_calls`` counts pair evaluations: a
    pair whose cost is read back from a ``relations.MergeCosts`` table is
    not counted again.
    """

    rule_applications: int = 0
    recursive_calls: int = 0
