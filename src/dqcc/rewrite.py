"""Extended-gate algebra and the transformation engine behind quasi-parallelism.

Extended circuits add entanglement creation, communication-qubit measurement
and classically-controlled Pauli gates (exponents are XOR expressions over
measurement bits) to the local set. The engine commutes pending Pauli
corrections forward and pre-processing CX gates backward so that two
logically conflicting telegates can share one entanglement round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .circuit import Gate, LogicalCircuit, Commodity, commodity_slots

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

    def layers(self) -> list[int]:
        """1-based as-soon-as-possible layer per gate, honouring both qubit
        contention and bit availability (a controlled Pauli must follow the
        layer measuring every bit it reads)."""
        return asap_layers(self.gates)

    @property
    def depth(self) -> int:
        layer = self.layers()
        return max(layer, default=0)


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


@dataclass(frozen=True)
class PauliTerm:
    """A pending classically-controlled Pauli being commuted rightward."""

    kind: str  # "x" or "z"
    qubit: str
    expr: BitExpr


def push_forward(pauli: PauliTerm, gate: EGate) -> list[PauliTerm] | None:
    """Commute a pending Pauli through the next gate on its qubit.

    Returns the equivalent terms placed after the gate, or None when no
    rule applies (an X against a t gate). Measurements are handled by the
    caller via forward_measurement_bit.
    """
    k, q, expr = pauli.kind, pauli.qubit, pauli.expr
    if gate.kind == "h":
        return [PauliTerm("z" if k == "x" else "x", q, expr)]
    if gate.kind == "t":
        if k == "z":
            return [pauli]
        return None
    if gate.kind == "cx":
        ctrl, tgt = gate.qubits
        if q == ctrl:
            if k == "x":  # X on control copies onto the target
                return [pauli, PauliTerm("x", tgt, expr)]
            return [pauli]  # Z on control commutes
        if q == tgt:
            if k == "z":  # Z on target copies onto the control
                return [pauli, PauliTerm("z", ctrl, expr)]
            return [pauli]  # X on target commutes
    return None


def forward_measurement_bit(
    pauli: PauliTerm, meas: EGate, downstream: list[EGate]
) -> list[EGate]:
    """Absorb an X sitting right before a measurement into its bit.

    The X is deleted; every later exponent that reads the measured bit is
    XOR-ed with the X's own exponent. A pending Z only contributes branch
    phase and is dropped unchanged.
    """
    if pauli.kind == "z":
        return downstream
    bit = meas.bit
    out: list[EGate] = []
    for g in downstream:
        if g.kind in ("px", "pz") and bit in g.expr:
            out.append(replace(g, expr=g.expr ^ pauli.expr))
        else:
            out.append(g)
    return out


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
    """Result of rewriting one step fragment. The rules applied are counted
    in ``rewrite_step``'s ``counter``."""

    in_step: list[EGate]
    corrections: list[EGate]


def _comm_qubits(gates: list[EGate]) -> set[str]:
    return {q for g in gates if g.kind == "e" for q in g.qubits}


def _prev_sharing(gates: list[EGate], idx: int, wires: set[str]) -> int | None:
    for p in range(idx - 1, -1, -1):
        if wires & set(gates[p].qubits):
            return p
    return None


def _next_sharing(gates: list[EGate], idx: int, wire: str) -> int | None:
    for p in range(idx, len(gates)):
        if wire in gates[p].qubits:
            return p
    return None


def _bubble_left(work: list[EGate], c: int, comm: set[str], count: list[int]) -> tuple[list[EGate], int]:
    """Move the communication-touching cx at index c left past local
    unitaries on shared wires while the rule set allows. Returns the new
    list and the cx's final index."""
    while True:
        g = work[c]
        prev = _prev_sharing(work, c, set(g.qubits))
        if prev is None:
            return work, c
        before = work[prev]
        if before.kind not in ("h", "t", "cx") or (comm & set(before.qubits)):
            return work, c  # protocol gate, pauli, or another telegate
        if before.kind == "h":
            w = before.qubits[0]
            other = g.qubits[1] if w == g.qubits[0] else g.qubits[0]
            twin = _prev_sharing(work, c, {other})
            if (
                twin is not None
                and work[twin].kind == "h"
                and other not in comm
            ):
                # h on both wires immediately before: flip and jump both.
                count[0] += 1
                flipped = cx(g.qubits[1], g.qubits[0])
                lo = min(prev, twin)
                pre = [x for i, x in enumerate(work[:c]) if i not in (prev, twin)]
                work = (
                    pre[:lo]
                    + [flipped, h(g.qubits[0]), h(g.qubits[1])]
                    + pre[lo:]
                    + work[c + 1 :]
                )
                c = lo
                continue
        repl = push_backward(g, before)
        if repl is None:
            return work, c
        if len(repl) == 2:
            # plain commutation: swap the cx before the local gate
            count[0] += 1
            work = work[:prev] + [repl[0]] + work[prev + 1 : c] + [repl[1]] + work[c + 1 :]
            c = prev
            continue
        # Single-h rule: [h w, cx] -> [h other, cx flipped, h w, h other].
        # Worth applying only when the trailing h cancels against the next
        # h on that wire (the protocol h before the measurement); otherwise
        # the flip just lengthens the communication qubit's life.
        trailing = repl[3]
        follow = _next_sharing(work, c + 1, trailing.qubits[0])
        if follow is None or work[follow] != trailing:
            return work, c
        count[0] += 1
        work = work[:prev] + repl + work[prev + 1 : c] + work[c + 1 :]
        c = prev + 1
        trailing_at = prev + 3
        nxt = _next_sharing(work, trailing_at + 1, trailing.qubits[0])
        del work[nxt]  # type: ignore[arg-type]
        del work[trailing_at]
        return work, c  # the inserted h on the comm wire shields further moves


def rewrite_step(gates: list[EGate], counter: list[int] | None = None) -> RewriteOutcome | None:
    """Rewrite a sequential fragment so every classically-controlled Pauli
    defers past the fragment while all other gates stay inside it.

    Entangling gates float to the front (their qubits are fresh), pre-
    processing CX gates bubble left past intervening local gates to keep
    communication qubits short-lived, and pending Paulis commute rightward,
    folding into measurement bits where they meet one. Returns None when a
    pending Pauli cannot clear the fragment.
    """
    count = counter if counter is not None else [0]
    work = [g for g in gates if g.kind == "e"] + [g for g in gates if g.kind != "e"]
    comm = _comm_qubits(work)

    idx = 0
    while idx < len(work):
        g = work[idx]
        if g.kind != "cx" or not (comm & set(g.qubits)):
            idx += 1
            continue
        work, pos = _bubble_left(work, idx, comm, count)
        idx = pos + 1

    # Forward pass: commute every pending Pauli to the fragment end.
    parked: dict[tuple[str, str], BitExpr] = {}

    def park(term: PauliTerm) -> None:
        key = (term.qubit, term.kind)
        parked[key] = parked.get(key, EMPTY) ^ term.expr

    pos = 0
    while pos < len(work):
        g = work[pos]
        if g.kind not in ("px", "pz"):
            pos += 1
            continue
        del work[pos]
        queue = [(PauliTerm("x" if g.kind == "px" else "z", g.qubits[0], g.expr), pos)]
        while queue:
            term, at = queue.pop(0)
            if not term.expr:
                continue
            nxt = _next_sharing(work, at, term.qubit)
            while nxt is not None and work[nxt].kind in ("px", "pz"):
                nxt = _next_sharing(work, nxt + 1, term.qubit)  # paulis commute
            if nxt is None:
                park(term)
                continue
            gate_n = work[nxt]
            if gate_n.kind == "m":
                count[0] += 1
                tail = forward_measurement_bit(term, gate_n, work[nxt + 1 :])
                work = work[: nxt + 1] + tail
                if term.kind == "x":
                    queue = [
                        (replace(tm, expr=tm.expr ^ term.expr), a)
                        if gate_n.bit in tm.expr
                        else (tm, a)
                        for tm, a in queue
                    ]
                    parked.update(
                        {
                            k: v ^ term.expr
                            for k, v in parked.items()
                            if gate_n.bit in v
                        }
                    )
                continue
            res = push_forward(term, gate_n)
            if res is None:
                return None
            count[0] += 1
            for tm in res:
                queue.append((tm, nxt + 1))

    corrections = [
        (px(q, expr) if kind == "x" else pz(q, expr))
        for (q, kind), expr in sorted(parked.items(), key=lambda kv: (kv[0][0], kv[0][1] != "z"))
        if expr
    ]
    return RewriteOutcome(work, corrections)


# --- Telegate fragments and the pairwise merge cost ---------------------


@dataclass(frozen=True)
class TelegateNames:
    """Wire and bit names for one commodity's bare protocol fragment."""

    ctrl_comm: str
    tgt_comm: str
    ctrl_bit: str
    tgt_bit: str


def _names(index: int) -> TelegateNames:
    return TelegateNames(f"_c{index}a", f"_c{index}b", f"_b{index}a", f"_b{index}b")


def bare_telegate(com: Commodity) -> list[EGate]:
    """Single-link protocol for one remote cx: entangle, local cx pair,
    h on the target-side qubit, both measurements, then the deferred
    corrections (Z on the control from the h-side bit, X on the target)."""
    n = _names(com.index)
    return [
        e(n.ctrl_comm, n.tgt_comm),
        cx(com.control_qubit, n.ctrl_comm),
        cx(n.tgt_comm, com.target_qubit),
        h(n.tgt_comm),
        m(n.ctrl_comm, n.ctrl_bit),
        m(n.tgt_comm, n.tgt_bit),
        pz(com.control_qubit, frozenset({n.tgt_bit})),
        px(com.target_qubit, frozenset({n.ctrl_bit})),
    ]


@dataclass(frozen=True)
class MergePlan:
    """Witness that two conflicting telegates can share a time step.

    ``sequential`` is the untouched composition (protocol of the earlier
    gate, intervening locals, protocol of the later gate); ``in_step`` and
    ``corrections`` are the rewritten form.
    """

    sequential: tuple[EGate, ...]
    in_step: tuple[EGate, ...]
    corrections: tuple[EGate, ...]


@dataclass
class PredicateStats:
    """Counters backing the polynomial-cost assertions.

    ``recursive_calls`` counts pair evaluations: a pair whose cost is read
    back from a ``MergeCosts`` table is not counted again.
    """

    rule_applications: int = 0
    recursive_calls: int = 0


def cone_independent(ci: Commodity, cj: Commodity, circuit: LogicalCircuit) -> bool:
    """True when nothing the earlier operation does can reach the later
    one: the qubits reachable from ci's operands through gates in the
    intervening layers stay disjoint from cj's operands. Conservative."""
    cone = set(ci.operands)
    for lay in range(ci.layer + 1, cj.layer):
        for g in circuit.layers[lay]:
            if cone & set(g.qubits):
                cone.update(g.qubits)
    return not (cone & set(cj.operands))


class MergeCosts:
    """Merge costs of one circuit's commodity pairs, each pair evaluated at
    most once.

    Results are kept by ``(ci.index, cj.index)``, and a composite pair reads
    its two sub-pairs from the same table, so one relation build evaluates
    each pair once however many longer pairs span it. The remote-gate
    slots, each commodity's bare telegate and its lifetimes are computed
    once per table.
    """

    def __init__(
        self,
        circuit: LogicalCircuit,
        commodities: list[Commodity],
        stats: PredicateStats | None = None,
    ) -> None:
        self.circuit = circuit
        self.commodities = commodities
        self.stats = stats if stats is not None else PredicateStats()
        self._remote = set(commodity_slots(circuit, commodities).values())
        self._telegates: dict[int, list[EGate]] = {}
        self._baselines: dict[int, dict[str, int]] = {}
        self._costs: dict[tuple[int, int], tuple[int | None, MergePlan | None]] = {}

    def cost(self, ci: Commodity, cj: Commodity) -> tuple[int | None, MergePlan | None]:
        """``merge_cost`` of the pair, evaluated on first request only."""
        key = (ci.index, cj.index)
        if key not in self._costs:
            self._costs[key] = self._evaluate(ci, cj)
        return self._costs[key]

    def shares(self, ci: Commodity, cj: Commodity, budget: int) -> tuple[bool, MergePlan | None]:
        """``quasi_parallel`` of the pair under the budget."""
        cost, plan = self.cost(ci, cj)
        if cost is None or cost > budget:
            return False, None
        return True, plan

    def _telegate(self, com: Commodity) -> list[EGate]:
        if com.index not in self._telegates:
            self._telegates[com.index] = bare_telegate(com)
        return self._telegates[com.index]

    def _baseline(self, com: Commodity) -> dict[str, int]:
        if com.index not in self._baselines:
            self._baselines[com.index] = lifetimes(self._telegate(com))
        return self._baselines[com.index]

    def _pair_fragment(self, ci: Commodity, cj: Commodity) -> list[EGate]:
        """Sequential fragment: both protocols with the local gates whose
        layers fall inside the pair's span. Other remote operations are
        excluded (the recursion handles them); locals precede their layer's
        commodities."""
        frag: list[EGate] = []
        for lay in range(ci.layer, cj.layer + 1):
            frag.extend(
                lift(g)
                for slot, g in enumerate(self.circuit.layers[lay])
                if (lay, slot) not in self._remote
            )
            if lay == ci.layer:
                frag.extend(self._telegate(ci))
            if lay == cj.layer:
                frag.extend(self._telegate(cj))
        return frag

    def _evaluate(self, ci: Commodity, cj: Commodity) -> tuple[int | None, MergePlan | None]:
        self.stats.recursive_calls += 1
        if ci.layer == cj.layer or cone_independent(ci, cj, self.circuit):
            return 0, None
        between = [c for c in self.commodities if ci.layer < c.layer < cj.layer]
        if between:
            pivot = between[len(between) // 2]
            left, _ = self.cost(ci, pivot)
            if left is None:
                return None, None
            right, _ = self.cost(pivot, cj)
            if right is None:
                return None, None
            return left + right, None

        seq = self._pair_fragment(ci, cj)
        counter = [0]
        outcome = rewrite_step(seq, counter)
        self.stats.rule_applications += counter[0]
        if outcome is None:
            return None, None
        merged = lifetimes(outcome.in_step)
        worst = 0
        for com in (ci, cj):
            for q, ref in self._baseline(com).items():
                worst = max(worst, merged[q] - ref)
        plan = MergePlan(tuple(seq), tuple(outcome.in_step), tuple(outcome.corrections))
        return worst, plan


def merge_cost(
    ci: Commodity,
    cj: Commodity,
    circuit: LogicalCircuit,
    commodities: list[Commodity],
    stats: PredicateStats | None = None,
) -> tuple[int | None, MergePlan | None]:
    """Smallest coherence budget letting ci and cj share a step, or None
    when the rule engine cannot merge them.

    Same-layer and provably independent pairs cost nothing. A pair with
    remote operations in between recurses through the middle one, and the
    two sides' costs add: a budget split serving both exists exactly when
    the sum fits (budget monotonicity makes integer splits exact). Each
    call evaluates in a fresh ``MergeCosts`` table, so every sub-pair of
    the recursion is evaluated once; a relation build shares one table
    across all its pairs instead.
    """
    return MergeCosts(circuit, commodities, stats).cost(ci, cj)


def quasi_parallel(
    ci: Commodity,
    cj: Commodity,
    budget: int,
    circuit: LogicalCircuit,
    commodities: list[Commodity],
    stats: PredicateStats | None = None,
) -> tuple[bool, MergePlan | None]:
    """Decide whether two remote operations may run in the same time step
    under the given coherence budget (layer units)."""
    return MergeCosts(circuit, commodities, stats).shares(ci, cj, budget)
