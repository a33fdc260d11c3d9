import re
import subprocess
import sys
from pathlib import Path

import pytest

from dqcc import cli
from dqcc.cli import main
from dqcc.flow import SolverStats
from conftest import EXAMPLE_CIRCUIT, LINE4_NETWORK, hub_chain, hub_network
from test_reuse import ONE_LINK_NETWORK, PARALLEL_CIRCUIT

# The seeded ring programs and networks that the CI workflow also compiles
# with the installed console script.
DATA = Path(__file__).resolve().parent / "data"

TWO_PROCESSORS = (
    "processor P1 { comp q1 comm c1 }\nprocessor P2 { comp q2 comm c2 }\n"
    "local q1 c1\nlocal q2 c2\nelink c1 c2\n"
)


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


def test_verify_passes_a_rewritten_three_operation_step(capsys):
    # A seeded ring program (perfbench's ring-batch.0-0369, seed 1) on a
    # 3-ring with one link per hop: step 2 shares one round among three
    # operations, and the rewrite of their fragment must keep its meaning.
    circ, net = DATA / "ring-batch.0-0369.seed1.circ", DATA / "ring-p3-c1-q2.net"
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--verify", "--emit-physical"], capsys
    )
    assert code == 0 and "verify_end_to_end=PASS" in out


def test_verify_passes_a_step_shared_after_an_x_cancels(capsys):
    # A seeded ring program (perfbench's ring-batch.0-0257, seed 3) on a
    # 3-ring with two links per hop. The merged fragment of its third and
    # fourth remote operations holds `cx q0_1 q0_0; h q2_0; cx q0_0 q0_1`,
    # which copies the X correction on q0_1 back onto it, so the two copies
    # cancel before `t q0_1` and the program needs two rounds, not three.
    circ, net = DATA / "ring-batch.0-0257.seed3.circ", DATA / "ring-p3-c2-q2.net"
    code, out = run_cli(
        ["compile", "--circuit", circ, "--network", net, "--verify", "--emit-physical"], capsys
    )
    assert code == 0 and "e_depth=2" in out.split() and "verify_end_to_end=PASS" in out


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


@pytest.mark.parametrize("command", ["compile", "verify", "oracle"])
def test_no_command_takes_a_seed(files, capsys, command):
    # The verifier has one mode, the process check, and nothing in it is random.
    circ, net, tmp = files
    second = ["--physical", circ] if command == "verify" else ["--network", net]
    assert exit_code([command, "--circuit", circ, *second, "--seed", "3"]) == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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
        "from dqcc import equivalent, Ensemble; assert 'numpy' in sys.modules"
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


@pytest.mark.parametrize(
    "line",
    [
        "cx a", "h", "e a", "zc a", "--- step x ---", "cx a a", "e c c", "h _r0",
        "zc a b1_1^", "xc a ^b1_1", "zc a b1_1^^b1_2", "m a -> 0", "m a -> b1^b2",
        "qubits a b", "qubits zz", "zc a y",
    ],
)
def test_verify_rejects_malformed_physical_line(tmp_path, capsys, line):
    circ = tmp_path / "c.circ"
    phys = tmp_path / "c.physical"
    circ.write_text("qubits a b\ncx a b\n")
    phys.write_text(f"qubits a b\n{line}\n")
    code = main(["verify", "--circuit", str(circ), "--physical", str(phys)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize(
    "header, message",
    [("qubits", "empty qubits header"), ("qubits a a", "duplicate qubit declaration")],
)
def test_verify_rejects_a_malformed_physical_header(tmp_path, capsys, header, message):
    # parse_circuit rejects both headers; the physical parser must as well,
    # or `qubits a a` / `h a` would pass against `qubits a` / `h a`.
    circ = tmp_path / "c.circ"
    phys = tmp_path / "c.physical"
    circ.write_text("qubits a\nh a\n")
    phys.write_text(f"{header}\nh a\n")
    code = main(["verify", "--circuit", str(circ), "--physical", str(phys)])
    assert code == 2
    assert capsys.readouterr().err == f"error: line 1: {message}\n"


def exit_code(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # compile exits this way on unparsable input
        return exc.code


# The rewrite engine names commodity i's communication wires _c{i}a and
# _c{i}b, and the verifier names its reference wires _r{i}. Before the '_'
# prefix was reserved, naming a program qubit _c1b dropped qp of pair (1, 3)
# from this program's relation table, and `qubits _r0 a` crashed the
# verifier with numpy's "repeated axis in transpose".
COLLIDING = [
    "qubits _c1b q0_1 q1_0 q1_1\nh q1_0\ncx q1_1 _c1b\nt q1_1\ncx _c1b q0_1\n"
    "cx _c1b q1_1\nt q1_0\nh _c1b\ncx _c1b q1_1\n",
    "qubits _r0 a\nh a\ncx _r0 a\n",
]


@pytest.mark.parametrize("text", COLLIDING, ids=["_c1b", "_r0"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_reserved_qubit_name_exits_2(tmp_path, capsys, text, command):
    circ = tmp_path / "c.circ"
    circ.write_text(text)
    name = text.split()[1]
    net = tmp_path / "n.net"
    net.write_text("processor P0 { comp a }\n")  # never read: the circuit fails first
    if command == "compile":
        argv = ["compile", "--circuit", circ, "--network", net, "--verify"]
    else:
        argv = ["verify", "--circuit", circ, "--physical", circ]
    assert exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: qubit name {name!r}: the prefix '_' is reserved\n"


def test_verifier_memory_refusal_exits_4(files, capsys, monkeypatch):
    from dqcc import simulate

    monkeypatch.setattr(simulate, "MEMORY_BUDGET", 1024)
    circ, net, tmp = files
    code = main(["compile", "--circuit", str(circ), "--network", str(net), "--verify"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: memory budget 1024 B exceeded: e ")


def test_verify_rejects_a_second_measurement_of_one_qubit(tmp_path, capsys):
    circ, phys = tmp_path / "c.circ", tmp_path / "c.physical"
    circ.write_text("qubits q1 q2\ncx q1 q2\n")
    phys.write_text("qubits q1 q2\nm q1 -> a\nm q1 -> b\n")
    assert main(["verify", "--circuit", str(circ), "--physical", str(phys)]) == 4
    assert capsys.readouterr().err == "error: gate m q1 -> b on consumed or unknown qubit 'q1'\n"


def test_verify_rejects_a_physical_file_that_leaves_a_pair_unmeasured(tmp_path, capsys):
    circ, phys = tmp_path / "c.circ", tmp_path / "c.physical"
    circ.write_text("qubits a b\ncx a b\n")
    phys.write_text("qubits a b\ne c d\ncx a b\n")
    assert main(["verify", "--circuit", str(circ), "--physical", str(phys)]) == 4
    assert capsys.readouterr().err == (
        "error: fragments produce different output registers: ('a', 'b', 'c', 'd') vs ('a', 'b')\n"
    )


def test_verify_reads_a_repeated_correction_bit_as_xor(tmp_path, capsys):
    # b^b is 0 in the XOR format: the tampered file applies no correction
    # to q1, so it must fail where the emitted one passes.
    circ, net, sol = tmp_path / "c.circ", tmp_path / "n.net", tmp_path / "s"
    circ.write_text("qubits q1 q2\ncx q1 q2\n")
    net.write_text(TWO_PROCESSORS)
    assert main(["compile", "--circuit", str(circ), "--network", str(net),
                 "--emit-physical", "--out", str(sol)]) == 0
    phys = tmp_path / "s.physical"
    text = phys.read_text()
    tampered = re.sub(r"^zc q1 (\S+)$", r"zc q1 \1^\1", text, flags=re.M)
    assert tampered != text
    phys.write_text(tampered)
    capsys.readouterr()
    assert main(["verify", "--circuit", str(circ), "--physical", str(phys)]) == 4
    assert "check end_to_end: FAIL" in capsys.readouterr().out


def test_verify_rejects_a_physical_file_over_other_qubits(tmp_path, capsys):
    circ, net, sol = tmp_path / "c.circ", tmp_path / "n.net", tmp_path / "s"
    circ.write_text("qubits q1 q2\ncx q1 q2\n")
    net.write_text(TWO_PROCESSORS)
    assert main(["compile", "--circuit", str(circ), "--network", str(net),
                 "--emit-physical", "--out", str(sol)]) == 0
    phys = tmp_path / "s.physical"
    text = phys.read_text()
    assert text.startswith("qubits q1 q2\n")
    phys.write_text(text.replace("qubits q1 q2\n", "qubits zz\n", 1))
    capsys.readouterr()
    assert main(["verify", "--circuit", str(circ), "--physical", str(phys)]) == 4
    assert capsys.readouterr().err == (
        "error: physical circuit declares qubits 'zz', the logical circuit 'q1 q2'\n"
    )


def test_second_link_on_a_communication_qubit_exits_2(tmp_path, capsys):
    circ, net = tmp_path / "c.circ", tmp_path / "n.net"
    circ.write_text("qubits q1 q2\ncx q1 q2\n")
    net.write_text(TWO_PROCESSORS + "elink c1 c2\n")
    assert exit_code(["compile", "--circuit", circ, "--network", net, "--verify"]) == 2
    assert capsys.readouterr().err == (
        "error: line 6: communication qubit 'c1' already ends the link on line 5\n"
    )


@pytest.mark.parametrize(
    "command, option",
    [("compile", "--circuit"), ("compile", "--network"), ("verify", "--physical"),
     ("compile", "--out")],
)
def test_unreadable_or_unwritable_file_exits_2(files, capsys, command, option):
    circ, net, tmp = files
    latin1 = tmp / "latin1.txt"
    latin1.write_bytes("qubits q\xe9\n".encode("latin-1"))  # not UTF-8
    given = {"--circuit": circ}
    if command == "compile":
        given["--network"] = net
    else:
        given["--physical"] = circ
    given[option] = tmp / "missing" / "sol" if option == "--out" else latin1
    argv = [command, *(str(a) for pair in given.items() for a in pair)]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, option, value",
    [("compile", "--coherence", "-1"), ("oracle", "--coherence", "-1"),
     ("verify", "--tol", "-1"), ("verify", "--tol", "nan"),
     ("oracle", "--max-k", "-1"), ("oracle", "--max-d", "-1")],
)
def test_out_of_range_number_exits_2(files, capsys, command, option, value):
    circ, net, tmp = files
    second = ["--physical", circ] if command == "verify" else ["--network", net]
    assert exit_code([command, "--circuit", circ, *second, option, value]) == 2
    assert f"argument {option}: must be a number at least 0" in capsys.readouterr().err


def test_compile_counts_nodes_in_the_module_stats_class(tmp_path, monkeypatch):
    # A caller stops the search at a node budget by replacing
    # ``cli.SolverStats`` with a subclass that raises; compile must build
    # its counters from that name on every call.
    class Stop(BaseException):
        pass

    class StopAtNode3(SolverStats):
        def __setattr__(self, name, value):
            if name == "nodes" and value == 3:
                raise Stop()
            object.__setattr__(self, name, value)

    monkeypatch.setattr(cli, "SolverStats", StopAtNode3)
    circ, net = tmp_path / "c.circ", tmp_path / "n.net"
    circ.write_text(PARALLEL_CIRCUIT)
    net.write_text(ONE_LINK_NETWORK)
    with pytest.raises(Stop):
        main(["compile", "--circuit", str(circ), "--network", str(net)])
