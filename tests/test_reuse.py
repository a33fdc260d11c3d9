"""Fixed costs paid once: one CLI parser per process, one set of precedence
lists per ``quickest`` call, with outputs unchanged."""

import subprocess
import sys

from dqcc import cli, flow
from dqcc.flow import SolverStats, quickest, solve_fixed_horizon
from dqcc.pipeline import prepare
from conftest import EXAMPLE_CIRCUIT, LINE4_NETWORK

# Four disjoint remote cx in one layer over a single link: nothing orders
# them, but only one fits per step, so the one search ends at depth 4.
PARALLEL_CIRCUIT = "qubits a1 a2 a3 a4 b1 b2 b3 b4\n" + "".join(
    f"cx a{i} b{i}\n" for i in range(1, 5)
)
ONE_LINK_NETWORK = """\
processor A { comp a1 a2 a3 a4 comm ca }
processor B { comp b1 b2 b3 b4 comm cb }
local a1 ca
local a2 ca
local a3 ca
local a4 ca
local b1 cb
local b2 cb
local b3 cb
local b4 cb
elink ca cb
"""

COMPILE_RUNS = (
    ["--dump-relations", "--no-quasi-parallel", "--coherence", "2"],
    [],
)


def _stable(out: str) -> str:
    return "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("wall_time_s=")
    )


def test_back_to_back_calls_match_separate_processes(tmp_path, capsys):
    circ, net = tmp_path / "c.circ", tmp_path / "n.net"
    circ.write_text(EXAMPLE_CIRCUIT)
    net.write_text(LINE4_NETWORK)
    base = ["compile", "--circuit", str(circ), "--network", str(net)]
    in_process = []
    for extra in COMPILE_RUNS:
        assert cli.main(base + extra) == 0
        in_process.append(_stable(capsys.readouterr().out))
    separate = []
    for extra in COMPILE_RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "dqcc.cli", *base, *extra], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        separate.append(_stable(proc.stdout))
    assert in_process == separate
    assert in_process[0] != in_process[1]  # the options took effect each time


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_precedence_built_once_per_quickest(monkeypatch):
    f = prepare(PARALLEL_CIRCUIT, ONE_LINK_NETWORK, coherence=4)
    q, coms, rel = f.quotient, f.commodities, f.relations
    calls = []
    real = flow._precedence

    def counted(commodities, relations):
        calls.append(len(commodities))
        return real(commodities, relations)

    monkeypatch.setattr(flow, "_precedence", counted)
    stats = SolverStats()
    sol = quickest(q, coms, rel, stats)
    assert sol.d == 4 and stats.invocations == 1
    assert calls == [4]

    # A direct call at the serial horizon is the same search.
    calls.clear()
    assert solve_fixed_horizon(q, coms, rel, 4) == sol
    assert calls == [4]
