"""Golden outputs of ``dqcc compile`` on seeded ring programs.

Each case compiles one program in-process through ``dqcc.cli.main`` and is
summarised as one line of ``tests/data/cli_golden.txt``:

    <name> <flags> exit=<code> e_depth=<n> total_flow=<n> solver_nodes=<n> out=<hex> err=<hex>

``flags`` joins the options with commas (``-`` for none); ``out`` and ``err``
are the first 16 hex digits of the sha256 of standard output, without its
``wall_time_s=`` and ``solver_nodes=`` lines, and of standard error. The
node count stays pinned in its own column, so a change to the search alone
shows in that column and leaves ``out`` as it was. A report field the run
did not print reads ``-``.

The programs come from ``random.Random("golden:1")`` on rings of 2-6
processors, one or two computation qubits each; the generator lives here so
the file does not depend on the benchmark's. Most cases run with
``--emit-physical --dump-relations``, some with ``--no-quasi-parallel`` or
``--coherence 2``, and about ten 2-ring cases with ``--verify``. The last
case is a fixed program whose emission fails (exit 3).

Regenerate the file from the repository root with

    PYTHONPATH=src python tests/golden_cli.py

only when a change to the compiler's output is intended, and list every
changed line in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.txt"
REPORT_KEYS = ("e_depth", "total_flow", "solver_nodes")

# A 3-ring program whose step 1 holds operations the rewrite engine cannot
# merge once their fragments meet: emission stops with exit 3.
EMIT_FAILURE = """\
qubits q0_0 q0_1 q1_0 q1_1 q2_0 q2_1
cx q0_0 q2_1
t q2_0
h q1_1
cx q2_1 q1_0
t q2_1
cx q2_1 q1_0
cx q2_1 q0_1
t q0_1
"""


@dataclass(frozen=True)
class Case:
    name: str
    flags: tuple[str, ...]
    circuit: str
    network: str


def ring_network(p: int, cap: int, comp: int) -> str:
    """``p`` processors in a ring, ``cap`` links per hop, every
    communication qubit coupled to every computation qubit of its
    processor. A 2-ring has a single hop."""
    lines = []
    for i in range(p):
        qs = " ".join(f"q{i}_{j}" for j in range(comp))
        comms = [f"l{i}_{c}" for c in range(cap)] + [f"r{i}_{c}" for c in range(cap)]
        lines.append(f"processor P{i} {{ comp {qs} comm {' '.join(comms)} }}")
        lines += [f"local q{i}_{j} {c}" for j in range(comp) for c in comms]
    hops = p if p > 2 else 1
    lines += [f"elink r{i}_{c} l{(i + 1) % p}_{c}" for i in range(hops) for c in range(cap)]
    return "\n".join(lines) + "\n"


def ring_circuit(rng: random.Random, p: int, comp: int, gates: int) -> str:
    """Half the gates ``cx`` on random operand pairs, the rest ``h``/``t``."""
    qubits = [f"q{i}_{j}" for i in range(p) for j in range(comp)]
    lines = ["qubits " + " ".join(qubits)]
    for n in range(gates):
        if n % 2 == 0:
            a, b = rng.sample(qubits, 2)
            lines.append(f"cx {a} {b}")
        else:
            lines.append(f"{rng.choice('ht')} {rng.choice(qubits)}")
    body = lines[1:]
    rng.shuffle(body)
    return "\n".join(lines[:1] + body) + "\n"


def cases() -> list[Case]:
    rng = random.Random("golden:1")
    out: list[Case] = []
    for n in range(110):
        p = rng.randint(2, 6)
        cap = rng.randint(1, 2)
        comp = rng.randint(1, 2)
        gates = rng.randint(6, 12 if p >= 5 else 16)
        flags = ["--emit-physical", "--dump-relations"]
        roll = rng.random()
        if roll < 0.15:
            flags.append("--no-quasi-parallel")
        elif roll < 0.3:
            flags += ["--coherence", "2"]
        out.append(Case(f"g{n:03d}", tuple(flags), ring_circuit(rng, p, comp, gates),
                        ring_network(p, cap, comp)))
    for n in range(10):
        gates = rng.randint(4, 9)
        out.append(Case(f"v{n:03d}", ("--verify",), ring_circuit(rng, 2, 1, gates),
                        ring_network(2, rng.randint(1, 2), 1)))
    out.append(Case("emit-failure", ("--emit-physical",), EMIT_FAILURE, ring_network(3, 2, 2)))
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(case: Case, workdir: Path) -> str:
    """Compile one case through ``cli.main`` and summarise it as a line."""
    from dqcc.cli import main

    circ = workdir / f"{case.name}.circ"
    net = workdir / f"{case.name}.net"
    circ.write_text(case.circuit)
    net.write_text(case.network)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compile", "--circuit", str(circ), "--network", str(net), *case.flags])
    lines = out.getvalue().splitlines(keepends=True)
    report: dict[str, str] = {}
    for line in lines:  # the report comes first; later lines may repeat a key
        key, eq, value = line.rstrip("\n").partition("=")
        if eq and " " not in key:
            report.setdefault(key, value)
    stable = "".join(line for line in lines if not line.startswith(("wall_time_s=", "solver_nodes=")))
    fields = [case.name, ",".join(case.flags) or "-", f"exit={code}"]
    fields += [f"{key}={report.get(key, '-')}" for key in REPORT_KEYS]
    fields += [f"out={_digest(stable)}", f"err={_digest(err.getvalue())}"]
    return " ".join(fields)


def golden_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run_case(case, Path(tmp)) for case in cases()]


if __name__ == "__main__":
    lines = golden_lines()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN}", file=sys.stderr)
