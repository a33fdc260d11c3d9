"""Emission of the physical circuit realizing a schedule.

Each time step opens with its entanglement generations; remote operations
become telegate protocols, routed over entanglement paths whose swaps keep
a constant five-stage depth; operations sharing a step are rewritten by
the rule engine so their corrections defer past the step boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Commodity, Gate, LogicalCircuit, commodity_slots
from .flow import Solution, e_depth
from .network import NetworkGraph, edge_key, links_by_edge
from .relations import RelationTable
from .rewrite import (
    EGate,
    ExtendedCircuit,
    cx,
    e,
    h,
    lift,
    m,
    px,
    pz,
    rewrite_step,
)


class EmitError(RuntimeError):
    pass


class BitAllocator:
    """Globally unique measurement bits, named b<step>_<seq>."""

    def __init__(self, step: int):
        self.step = step
        self.n = 0

    def new(self) -> str:
        name = f"b{self.step}_{self.n}"
        self.n += 1
        return name


@dataclass(frozen=True)
class BoundPath:
    """A routed path with concrete communication qubits per hop, ordered
    from the control processor to the target processor. ``hops[t]`` holds
    (qubit on the near side, qubit on the far side)."""

    procs: tuple[str, ...]
    hops: tuple[tuple[str, str], ...]


def entanglement_path_fragment(
    hops: list[tuple[str, str]], alloc: BitAllocator
) -> list[list[EGate]]:
    """Stage-layered fragment entangling the two endpoint qubits of a path.

    One entangling gate per hop, one swap per intermediate processor, all
    measurements in one stage and a single correction pair on the
    endpoints: the depth is five stages for any path with at least one
    intermediate processor, one stage for a bare link.
    """
    if not hops:
        raise EmitError("empty entanglement path")
    stages: list[list[EGate]] = [[e(u, v) for u, v in hops]]
    if len(hops) == 1:
        return stages
    cxs: list[EGate] = []
    hs: list[EGate] = []
    ms: list[EGate] = []
    z_bits: list[str] = []
    x_bits: list[str] = []
    for t in range(1, len(hops)):
        far_prev = hops[t - 1][1]
        near_next = hops[t][0]
        cxs.append(cx(far_prev, near_next))
        hs.append(h(far_prev))
        zb, xb = alloc.new(), alloc.new()
        ms.append(m(far_prev, zb))
        ms.append(m(near_next, xb))
        z_bits.append(zb)
        x_bits.append(xb)
    first, last = hops[0][0], hops[-1][1]
    stages += [
        cxs,
        hs,
        ms,
        [pz(first, frozenset(z_bits)), px(last, frozenset(x_bits))],
    ]
    return stages


def _local_route(net: NetworkGraph, start: str, goal: str) -> list[str] | None:
    """Shortest intra-processor path from a computation qubit to a bound
    communication qubit. Interior nodes are restricted to computation
    qubits: communication qubits exist only between their entangling gate
    and their measurement, so program state never parks on one."""
    comm = set(net.communication_qubits)
    frontier = [start]
    parent: dict[str, str] = {start: start}
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for nb in sorted(net.local_neighbors(node)):
                if nb in parent or (nb in comm and nb != goal):
                    continue
                parent[nb] = node
                if nb == goal:
                    path = [nb]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt.append(nb)
        frontier = nxt
    return None


def _swap(a: str, b: str) -> list[EGate]:
    return [cx(a, b), cx(b, a), cx(a, b)]


def emit_telegate(
    com: Commodity,
    bound: BoundPath,
    alloc: BitAllocator,
    net: NetworkGraph | None = None,
) -> list[EGate]:
    """Sequential protocol for one remote cx over its bound path.

    The swap chain's measurement bits fold into the endpoint corrections:
    the control qubit's Z reads every Hadamard-side bit, the target's X
    every other bit. When the computation qubit is not locally coupled to
    its bound communication qubit, the state is naively swapped to a
    neighbouring qubit and back (local routing quality is out of scope).
    """
    stages = entanglement_path_fragment(list(bound.hops), alloc)
    gates: list[EGate] = list(stages[0])
    z_bits: set[str] = set()
    x_bits: set[str] = set()
    if len(stages) > 1:
        gates += stages[1] + stages[2] + stages[3]
        z_bits |= stages[4][0].expr
        x_bits |= stages[4][1].expr

    ctrl_comm = bound.hops[0][0]
    tgt_comm = bound.hops[-1][1]
    cb, tb = alloc.new(), alloc.new()

    def attach(comp: str, comm_q: str) -> tuple[str, list[EGate], list[EGate]]:
        """Effective computation wire for the pre-processing cx, with the
        swap chains moving the state there and back."""
        if net is None or comp in net.local_neighbors(comm_q):
            return comp, [], []
        route = _local_route(net, comp, comm_q)
        if route is None or len(route) < 3:
            return comp, [], []  # no usable local route; emit the direct cx
        chain = route[:-1]  # stop at the comm qubit's neighbour
        swaps: list[EGate] = []
        for a, b in zip(chain, chain[1:]):
            swaps += _swap(a, b)
        unswaps: list[EGate] = []
        for a, b in reversed(list(zip(chain, chain[1:]))):
            unswaps += _swap(a, b)
        return chain[-1], swaps, unswaps

    eff_c, in_c, out_c = attach(com.control_qubit, ctrl_comm)
    gates += in_c + [cx(eff_c, ctrl_comm)] + out_c
    eff_t, in_t, out_t = attach(com.target_qubit, tgt_comm)
    gates += in_t + [cx(tgt_comm, eff_t)] + out_t
    gates.append(h(tgt_comm))
    gates.append(m(ctrl_comm, cb))
    gates.append(m(tgt_comm, tb))
    x_bits.add(cb)
    z_bits.add(tb)
    gates.append(pz(com.control_qubit, frozenset(z_bits)))
    gates.append(px(com.target_qubit, frozenset(x_bits)))
    return gates


@dataclass
class StepBlock:
    index: int
    gates: list[EGate]


@dataclass
class PhysicalSchedule:
    """The compiled circuit partitioned into time-step blocks. The block
    after the last entanglement round (if any) carries only deferred
    corrections and trailing local gates."""

    comp_qubits: tuple[str, ...]
    blocks: list[StepBlock]
    e_depth: int

    def flat(self) -> ExtendedCircuit:
        return ExtendedCircuit(
            self.comp_qubits, tuple(g for b in self.blocks for g in b.gates)
        )

    def render(self) -> str:
        lines = ["qubits " + " ".join(self.comp_qubits)]
        for block in self.blocks:
            if self.e_depth > 0:
                lines.append(f"--- step {block.index} ---")
            lines += [str(g) for g in block.gates]
        return "\n".join(lines) + "\n"


def _bind_paths(
    members: list[Commodity],
    solution: Solution,
    net: NetworkGraph,
    table: dict,
) -> dict[int, BoundPath]:
    """Assign concrete links per hop: lowest declaration index free per
    edge class, commodities in enumeration order."""
    used: dict[tuple[str, str], int] = {}
    out: dict[int, BoundPath] = {}
    for com in members:
        flow_path = solution.paths[com.index]
        procs = tuple(reversed(flow_path))  # control -> target
        hops: list[tuple[str, str]] = []
        for a, b in zip(procs, procs[1:]):
            key = edge_key(a, b)
            idx = used.get(key, 0)
            used[key] = idx + 1
            links = table.get(key, [])
            if idx >= len(links):
                raise EmitError(
                    f"no free entanglement link on {key} for commodity {com.index}"
                )
            u, v = links[idx]
            hops.append((u, v) if a == key[0] else (v, u))
        out[com.index] = BoundPath(procs, tuple(hops))
    return out


def emit_schedule(
    solution: Solution,
    circuit: LogicalCircuit,
    commodities: list[Commodity],
    relations: RelationTable,
    net: NetworkGraph,
) -> PhysicalSchedule:
    """Expand a schedule into the physical circuit.

    Local gates a step's telegates depend on join that step's fragment;
    every other local gate runs at the start of the step after its last
    remote predecessor completes, once that step's corrections have
    landed. Deferred corrections open the following block.

    ``relations`` is not read: each step's fragment is rewritten here from
    the circuit. The parameter stays only because ``perfbench/tracing.py``
    passes it by position.
    """
    d = e_depth(solution)
    by_step: dict[int, list[Commodity]] = {}
    for c in commodities:
        by_step.setdefault(solution.steps[c.index], []).append(c)
    for step in by_step:
        by_step[step].sort(key=lambda c: c.index)
    remote_gate_pos = commodity_slots(circuit, commodities)
    remote_positions = set(remote_gate_pos.values())

    # A step's fragment needs exactly the local gates its telegates depend
    # on: sweep each span backwards collecting the dependency cone of the
    # step's operands. Anything else may run later.
    required: dict[int, set[tuple[int, int]]] = {}
    for step, members in by_step.items():
        lo = min(c.layer for c in members)
        hi = max(c.layer for c in members)
        wires: set[str] = set()
        needed: set[tuple[int, int]] = set()
        for lay in range(hi, lo - 1, -1):
            for c in members:
                if c.layer == lay:
                    wires.update(c.operands)
            for gi, gate in enumerate(circuit.layers[lay]):
                if (lay, gi) in remote_positions:
                    continue
                if wires & set(gate.qubits):
                    needed.add((lay, gi))
                    wires.update(gate.qubits)
        required[step] = needed

    # Destination of each local gate: absorbed into the earliest step's
    # fragment whose telegates depend on it, otherwise the prefix of the
    # step after its last remote predecessor completes (its corrections
    # have landed by then), or the trailing block.
    absorbed: dict[tuple[int, int], int] = {}
    for step in sorted(required):
        for pos in required[step]:
            absorbed.setdefault(pos, step)
    last_step: dict[int, int] = {}  # layer -> latest step of its commodities
    for c in commodities:
        last_step[c.layer] = max(last_step.get(c.layer, 0), solution.steps[c.index])
    prefix: dict[int, list[Gate]] = {}
    trailing_locals: list[Gate] = []
    latest = 0  # latest step of any commodity in an earlier layer
    for lay, layer in enumerate(circuit.layers):
        dest = latest + 1
        latest = max(latest, last_step.get(lay, 0))
        for gi, gate in enumerate(layer):
            if (lay, gi) in remote_positions or (lay, gi) in absorbed:
                continue
            if dest > d or d == 0:
                trailing_locals.append(gate)
            else:
                prefix.setdefault(dest, []).append(gate)

    table = links_by_edge(net)
    blocks: list[StepBlock] = []
    pending: list[EGate] = []
    for step in range(1, d + 1):
        members = by_step.get(step, [])
        alloc = BitAllocator(step)
        bound = _bind_paths(members, solution, net, table)
        frag: list[EGate] = []
        lo = min((c.layer for c in members), default=0)
        hi = max((c.layer for c in members), default=-1)
        by_layer_members = {remote_gate_pos[c.index]: c for c in members}
        for lay in range(lo, hi + 1):
            for gi, gate in enumerate(circuit.layers[lay]):
                if (lay, gi) in by_layer_members:
                    com = by_layer_members[(lay, gi)]
                    frag += emit_telegate(com, bound[com.index], alloc, net)
                elif absorbed.get((lay, gi)) == step:
                    frag.append(lift(gate))
        outcome = rewrite_step(frag)
        if outcome is None:
            raise EmitError(f"step {step} fragment failed to rewrite; solver and predicate disagree")
        gates = list(outcome.in_step)
        head = [g for g in gates if g.kind == "e"]
        rest = [g for g in gates if g.kind != "e"]
        block_gates = head + pending + [lift(g) for g in prefix.get(step, [])] + rest
        blocks.append(StepBlock(step, block_gates))
        pending = list(outcome.corrections)

    tail = pending + [lift(g) for g in trailing_locals]
    if tail or d == 0:
        blocks.append(StepBlock(d + 1 if d else 0, tail))
    return PhysicalSchedule(tuple(circuit.qubits), blocks, d)


# Operand count of every physical gate but the measurement, which has its
# own ``m <q> -> <bit>`` form.
_OPERANDS = {"h": 1, "t": 1, "cx": 2, "e": 2, "zc": 2, "xc": 2}


def parse_physical(text: str) -> PhysicalSchedule:
    """Parse the physical circuit format back into step blocks. A malformed
    line raises ``EmitError`` naming the line."""
    comp: tuple[str, ...] | None = None
    blocks: list[StepBlock] = []
    current = StepBlock(0, [])
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("---"):
            parts = line.strip("- ").split()
            if len(parts) != 2 or parts[0] != "step":
                raise EmitError(f"line {lineno}: malformed step marker")
            try:
                index = int(parts[1])
            except ValueError:
                raise EmitError(f"line {lineno}: malformed step number {parts[1]!r}") from None
            if current.gates or current.index > 0:
                blocks.append(current)
            current = StepBlock(index, [])
            continue
        parts = line.split()
        head = parts[0].lower()
        if head == "qubits":
            comp = tuple(parts[1:])
            continue
        if comp is None:
            raise EmitError(f"line {lineno}: gate before qubits header")
        if head in _OPERANDS and len(parts) != 1 + _OPERANDS[head]:
            raise EmitError(f"line {lineno}: {head} takes {_OPERANDS[head]} operand(s)")
        if head in ("h", "t"):
            current.gates.append(EGate(head, (parts[1],)))
        elif head == "cx":
            current.gates.append(cx(parts[1], parts[2]))
        elif head == "e":
            current.gates.append(e(parts[1], parts[2]))
        elif head == "m":
            if len(parts) != 4 or parts[2] != "->":
                raise EmitError(f"line {lineno}: malformed measurement")
            current.gates.append(m(parts[1], parts[3]))
        elif head in ("zc", "xc"):
            expr = frozenset() if parts[2] == "0" else frozenset(parts[2].split("^"))
            fn = pz if head == "zc" else px
            current.gates.append(fn(parts[1], expr))
        else:
            raise EmitError(f"line {lineno}: unknown physical gate {head!r}")
    if comp is None:
        raise EmitError("missing qubits header")
    if current.gates or current.index > 0:
        blocks.append(current)
    depth = max((b.index for b in blocks if any(g.kind == "e" for g in b.gates)), default=0)
    return PhysicalSchedule(comp, blocks, depth)
