import subprocess
import sys

import pytest

from dqcc.cli import main
from conftest import EXAMPLE_CIRCUIT, LINE4_NETWORK, hub_chain, hub_network


@pytest.fixture
def files(tmp_path):
    circ = tmp_path / "c.circ"
    net = tmp_path / "n.net"
    circ.write_text(EXAMPLE_CIRCUIT)
    net.write_text(LINE4_NETWORK)
    return circ, net, tmp_path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


def test_compile_report_keys(files, capsys):
    circ, net, tmp = files
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--no-quasi-parallel"], capsys
    )
    assert code == 0
    keys = {line.split("=")[0] for line in out.splitlines() if "=" in line and " " not in line.split("=")[0]}
    assert {"k", "e_depth", "total_flow", "solver_nodes", "solver_invocations", "wall_time_s"} <= keys
    assert "e_depth=5 total_flow=6" in out
    assert "1 tau=1 path=" in out


def test_compile_outputs_deterministic(files, capsys):
    circ, net, tmp = files
    outs = []
    for run in ("a", "b"):
        path = tmp / f"sol_{run}.txt"
        code, out = run_cli(
            [
                "compile", "--circuit", circ, "--network", net,
                "--emit-physical", "--out", path,
            ],
            capsys,
        )
        assert code == 0
        stable = [l for l in out.splitlines() if not l.startswith("wall_time_s=")]
        outs.append((path.read_bytes(), (tmp / f"sol_{run}.txt.physical").read_bytes(), stable))
    assert outs[0] == outs[1]


def test_compile_verify_pass(files, capsys):
    circ, net, tmp = files
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--verify"], capsys
    )
    assert code == 0
    assert "verify_end_to_end=PASS" in out
    assert "check end_to_end: PASS" in out


def test_verify_merges_branches_of_a_long_telegate_chain(tmp_path, capsys):
    # Eight remote cx over a single link: 16 measurements, which would be
    # 65,536 branches without merging the ones whose bits are dead.
    circ = tmp_path / "c.circ"
    net = tmp_path / "n.net"
    circ.write_text("qubits hub q1\n" + "cx hub q1\ncx q1 hub\n" * 4)
    net.write_text(hub_network(1, 1))
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--verify", "--emit-physical"], capsys
    )
    assert code == 0
    assert "k=8" in out and out.count("\nm ") == 16
    report = dict(line.split("=", 1) for line in out.splitlines() if line.startswith("verify_"))
    assert report["verify_end_to_end"] == "PASS" and report["verify_mode"] == "process"
    assert int(report["verify_peak_branches"]) <= 16


def test_compile_parse_error_exit_2(files, capsys):
    circ, net, tmp = files
    bad = tmp / "bad.circ"
    bad.write_text("qubits a\ncx a a\n")
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--circuit", str(bad), "--network", str(net)])
    assert exc.value.code == 2


def test_compile_k0_physical_passthrough(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    net = tmp_path / "n.net"
    circ.write_text("qubits q1 q2\nh q1\ncx q1 q2\nt q2\n")
    net.write_text(
        "processor P1 { comp q1 q2 comm c1 }\nlocal q1 q2\nlocal q1 c1\n"
        "processor P2 { comp q9 comm c9 }\nlocal q9 c9\nelink c1 c9\n"
    )
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--emit-physical", "--verify"],
        capsys,
    )
    assert code == 0
    assert "k=0" in out and "e_depth=0 total_flow=0" in out
    assert "qubits q1 q2\nh q1\ncx q1 q2\nt q2\n" in out


def test_verify_subcommand_and_tamper_detection(files, capsys):
    circ, net, tmp = files
    sol = tmp / "sol.txt"
    code, _ = run_cli(
        [
            "compile", "--circuit", circ, "--network", net,
            "--emit-physical", "--out", sol,
        ],
        capsys,
    )
    assert code == 0
    phys = tmp / "sol.txt.physical"
    code, out = run_cli(["verify", "--circuit", circ, "--physical", phys], capsys)
    assert code == 0 and "check end_to_end: PASS" in out

    # flip one correction and watch the check fail
    text = phys.read_text()
    tampered = text.replace("zc q3", "zc q2", 1)
    assert tampered != text
    phys.write_text(tampered)
    code, out = run_cli(["verify", "--circuit", circ, "--physical", phys], capsys)
    assert code == 4 and "FAIL" in out


def test_oracle_subcommand(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    net = tmp_path / "n.net"
    circ.write_text(hub_chain(3))
    net.write_text(hub_network(3, 3))
    code, out = run_cli(
        ["oracle", "--circuit", circ, "--network", net, "--coherence", "4"], capsys
    )
    assert code == 0
    assert "e_depth=1" in out


def test_oracle_instance_too_large_exit_3(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    net = tmp_path / "n.net"
    circ.write_text(hub_chain(3))
    net.write_text(hub_network(3, 3))
    code, _ = run_cli(
        ["oracle", "--circuit", circ, "--network", net, "--max-k", "1"], capsys
    )
    assert code == 3


def test_dump_relations_flag(files, capsys):
    circ, net, tmp = files
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--dump-relations"], capsys
    )
    assert code == 0
    assert "1 2 prec=1 qp=1" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dqcc.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "compile" in proc.stdout and "oracle" in proc.stdout


def test_numpy_loads_only_for_verification(files):
    circ, net, tmp = files
    probe = (
        "import sys, dqcc; assert 'numpy' not in sys.modules; "
        "from dqcc import equivalent, StateBranch; assert 'numpy' in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # -X importtime names every module the process imports on stderr.
    proc = subprocess.run(
        [
            sys.executable, "-X", "importtime", "-m", "dqcc.cli", "compile",
            "--circuit", str(circ), "--network", str(net), "--emit-physical",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "e_depth=" in proc.stdout
    assert "dqcc.relations" in proc.stderr
    assert "numpy" not in proc.stderr


@pytest.mark.parametrize("line", ["cx a", "h", "e a", "zc a", "--- step x ---"])
def test_verify_rejects_malformed_physical_line(tmp_path, capsys, line):
    circ = tmp_path / "c.circ"
    phys = tmp_path / "c.physical"
    circ.write_text("qubits a b\ncx a b\n")
    phys.write_text(f"qubits a b\n{line}\n")
    code = main(["verify", "--circuit", str(circ), "--physical", str(phys)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
