"""Seeded ring-architecture instance generator.

A ring has ``p`` processors ``P0 .. P{p-1}``. Each processor holds ``comp``
computation qubits and ``2 * cap`` communication qubits (``cap`` facing each
ring neighbour), and every communication qubit is locally coupled to every
computation qubit of its processor. Each ring hop carries ``cap`` parallel
entanglement links. Circuits are 50% ``cx``, 25% ``h`` and 25% ``t`` over
all computation qubits.

The generator uses only ``random.Random`` seeded from a string, so one seed
gives byte-identical files on every run and platform. Draws are never
filtered: instances the compiler fails on stay in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    name: str
    p: int
    cap: int
    comp: int
    circuit: str
    network: str

    @property
    def network_name(self) -> str:
        """Instances on the same ring share one network file."""
        return f"ring-p{self.p}-c{self.cap}-q{self.comp}"


def ring_network(p: int, cap: int, comp: int) -> str:
    lines = []
    for i in range(p):
        qs = " ".join(f"q{i}_{j}" for j in range(comp))
        comms = [f"l{i}_{c}" for c in range(cap)] + [f"r{i}_{c}" for c in range(cap)]
        lines.append(f"processor P{i} {{ comp {qs} comm {' '.join(comms)} }}")
    for i in range(p):
        for j in range(comp):
            for c in range(cap):
                lines.append(f"local q{i}_{j} l{i}_{c}")
                lines.append(f"local q{i}_{j} r{i}_{c}")
    for i in range(p):
        for c in range(cap):
            lines.append(f"elink r{i}_{c} l{(i + 1) % p}_{c}")
    return "\n".join(lines) + "\n"


def ring_circuit(rng: random.Random, p: int, comp: int, gates: int) -> str:
    """Exactly half the gates (rounded down) are ``cx``; the rest split
    evenly between ``h`` and ``t``, in a shuffled order."""
    qubits = [f"q{i}_{j}" for i in range(p) for j in range(comp)]
    n_cx = gates // 2
    n_h = (gates - n_cx) // 2
    kinds = ["cx"] * n_cx + ["h"] * n_h + ["t"] * (gates - n_cx - n_h)
    rng.shuffle(kinds)
    lines = ["qubits " + " ".join(qubits)]
    for kind in kinds:
        if kind == "cx":
            a, b = rng.sample(qubits, 2)
            lines.append(f"cx {a} {b}")
        else:
            lines.append(f"{kind} {rng.choice(qubits)}")
    return "\n".join(lines) + "\n"


def draw(label: str, seed: int, count: int, p: tuple[int, int], cap: tuple[int, int],
         comp: int, gates: tuple[int, int]) -> list[Instance]:
    """``count`` instances with p, cap and gate count uniform over the given
    inclusive ranges. ``label`` separates the streams of different
    workloads that share a seed."""
    rng = random.Random(f"{label}:{seed}")
    out = []
    for n in range(count):
        pi = rng.randint(*p)
        ci = rng.randint(*cap)
        gi = rng.randint(*gates)
        out.append(Instance(f"{label}-{n:04d}", pi, ci, comp,
                            ring_circuit(rng, pi, comp, gi), ring_network(pi, ci, comp)))
    return out
