"""dqcc benchmark: seeded ring workloads compiled through the user's command.

Usage, from the repository root:

    python3 perfbench/run.py --workload ring-batch --seed 1 --seconds 25 --trace 0

Set-up (timed as ``setup_s``) imports dqcc, generates the workload's
instances from the seed and writes their files; it runs in five fresh
processes and the median is reported. The timed loop then compiles the
instances one after another in this process with ``dqcc.cli.main`` (a
closed loop: one user, one program at a time, no extra threads). The first
pass compiles every instance; while ``--seconds`` have not passed, later
passes compile again those the timer did not stop. Each compile has two
deadlines: a budget of solver search nodes, which stops an instance at the
same point on every run, and an interval timer, which bounds the parts the
node budget does not cover (verification above all).

Output checks run outside the timed region: identical generator output
across the set-ups, solver optimum equal to ``brute_force_oracle`` where
k <= 4, and byte-identical output for repeated compiles. With ``--trace 1``
one more pass runs the library sequence under spans and reports per-module
metrics; its outcomes and E-depths must equal the CLI's.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
FRONTIER_GATES = 25
FRONTIER_NODES = 2_500


@dataclass(frozen=True)
class Stratum:
    count: int
    p: tuple[int, int]
    cap: tuple[int, int]
    comp: int
    gates: tuple[int, int]


@dataclass(frozen=True)
class Workload:
    flag: str  # --emit-physical or --verify
    deadline: float  # seconds per compile
    nodes: int  # solver search nodes per compile
    strata: tuple[Stratum, ...]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # No instance of ring-batch or verify-small has come near its node
    # budget (ring-batch seeds 1-3 need at most 2,499 nodes); the budget only
    # keeps an outlier from making the failure count depend on timing.
    "ring-batch": Workload("--emit-physical", 2.0, 20_000, (Stratum(500, (3, 4), (1, 2), 2, (8, 18)),)),
    # One stratum per ring shape, so that the mix of shapes, which sets how
    # many programs solve within the node budget, is the same for every seed.
    "ring-frontier": Workload("--emit-physical", 2.0, FRONTIER_NODES, tuple(
        Stratum(36, (p, p), (cap, cap), 2, (FRONTIER_GATES, FRONTIER_GATES))
        for p in (5, 6) for cap in (1, 2))),
    # The 16-gate programs need 16 measurements each (seeds 1-40), which
    # takes the verifier several seconds: they reach the timer on any host.
    "verify-small": Workload("--verify", 1.0, 20_000, (
        Stratum(32, (2, 2), (1, 1), 1, (9, 9)),
        Stratum(10, (3, 3), (1, 1), 2, (4, 4)),
        Stratum(4, (2, 2), (1, 1), 1, (16, 16)),
    )),
}


def instances(workload: str, seed: int):
    import gen

    out = []
    for n, s in enumerate(WORKLOADS[workload].strata):
        out += gen.draw(f"{workload}.{n}", seed, s.count, s.p, s.cap, s.comp, s.gates)
    return out


def write_instances(insts, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        (directory / f"{inst.name}.circ").write_text(inst.circuit)
    for network_name, text in {i.network_name: i.network for i in insts}.items():
        (directory / f"{network_name}.net").write_text(text)


def digest(insts) -> str:
    h = hashlib.sha256()
    for inst in insts:
        h.update(f"{inst.name}\0{inst.circuit}\0{inst.network}\0".encode())
    return h.hexdigest()


def setup_probe(workload: str, seed: int, directory: Path) -> None:
    """One set-up, timed from before ``import dqcc``; prints the seconds and
    a digest of the files written."""
    started = time.perf_counter()
    import dqcc  # noqa: F401

    insts = instances(workload, seed)
    write_instances(insts, directory)
    print(time.perf_counter() - started, digest(insts))


@dataclass
class Compiled:
    outcome: str  # ok, node_budget, timeout, exit<code>, simulation_error, uncaught <type>, oracle_mismatch
    seconds: float
    e_depth: int | None
    total_flow: int | None
    output: str  # the CLI's standard output without its wall_time_s line


def compile_cli(main, circ: Path, net: Path, flag: str, limit: float) -> Compiled:
    """One ``dqcc compile`` through the CLI entry point, under a deadline.

    Without ``--out`` the CLI prints the solution dump and the physical
    circuit to standard output, which is captured in memory: on a shared
    disk, writing two files per 5 ms compile made file-system latency the
    largest and least steady part of the measurement.
    """
    from tracing import Deadline, NodeBudget, deadline

    argv = ["compile", "--circuit", str(circ), "--network", str(net), flag]
    stdout, stderr = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with deadline(limit), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except NodeBudget:
        code = "node_budget"
    except Deadline:
        code = "timeout"
    except SystemExit as exc:  # the CLI exits this way on unreadable input
        code = exc.code
    except Exception as exc:  # one crashing instance must not end the run
        print(f"{circ.name}: uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
        code = f"uncaught {type(exc).__name__}"
    seconds = time.perf_counter() - started
    if isinstance(code, str):
        return Compiled(code, seconds, None, None, "")
    if code == 4 and stderr.getvalue().startswith("error:"):
        return Compiled("simulation_error", seconds, None, None, "")
    if code != 0:
        return Compiled(f"exit{code}", seconds, None, None, "")
    lines = stdout.getvalue().splitlines(keepends=True)
    report = dict(line.strip().split("=", 1) for line in lines if "=" in line and " " not in line)
    # Everything the CLI printed except its own timer is the output.
    output = "".join(line for line in lines if not line.startswith("wall_time_s="))
    return Compiled("ok", seconds, int(report["e_depth"]), int(report["total_flow"]), output)


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # One directory per workload, rewritten in place by every run: creating
    # and deleting thousands of files per run slows a disk mounted with
    # online discard, and later runs with it.
    work = HERE / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    return measure(args, work)


def timed_setup(args, directory: Path) -> tuple[list[float], set[str]]:
    """Seconds of each fresh-process set-up and the digests of what they
    wrote; raises on failure."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(directory),
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        seconds, written = proc.stdout.split()
        times.append(float(seconds))
        digests.add(written)
    return times, digests


def measure(args, work: Path) -> int:
    wl = WORKLOADS[args.workload]
    files = work / "instances"
    setup_times, digests = timed_setup(args, files)

    from dqcc import cli, extract_commodities, layerize, parse_circuit, parse_network
    from tracing import budgeted_stats, oracle_optimum

    cli.SolverStats = budgeted_stats(wl.nodes)

    insts = instances(args.workload, args.seed)
    generator_stable = digests == {digest(insts)} and all(
        (files / f"{i.name}.circ").read_text() == i.circuit for i in insts)
    serial = {}  # k, the serial horizon a failed instance is counted at
    for inst in insts:
        circ = layerize(parse_circuit(inst.circuit))
        serial[inst.name] = len(extract_commodities(circ, parse_network(inst.network).placement()))
    network_of = {i.name: i.network_name for i in insts}

    def compile_one(name: str) -> Compiled:
        return compile_cli(cli.main, files / f"{name}.circ", files / f"{network_of[name]}.net",
                           wl.flag, wl.deadline)

    # --- timed closed loop ---------------------------------------------
    # The first pass compiles every instance. Later passes, while time is
    # left, compile again the instances the timer did not stop; a repeat
    # must end as the first compile did (node budget included).
    # An instance's latency is the median of its compiles in the run. On a
    # shared machine a few compiles run much faster or slower than the rest,
    # so the fastest compile of an instance moves from run to run far more
    # than the median of its compiles does.
    first: dict[str, Compiled] = {}
    times: dict[str, list[float]] = {}
    repeats_ok = repeats_differ = 0
    repeated: set[str] = set()
    started = time.perf_counter()
    for inst in insts:
        first[inst.name] = compile_one(inst.name)
        times[inst.name] = [first[inst.name].seconds]
    first_pass_s = time.perf_counter() - started
    calls = len(insts)
    again = [i.name for i in insts if first[i.name].outcome != "timeout"]
    while again and time.perf_counter() - started < args.seconds:
        for name in again:
            if time.perf_counter() - started >= args.seconds:
                break
            r = compile_one(name)
            calls += 1
            times[name].append(r.seconds)
            if r.outcome == "timeout":
                continue
            repeats_ok += 1
            repeats_differ += (r.outcome, r.output) != (first[name].outcome, first[name].output)
            repeated.add(name)
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    solved = sum(r.outcome == "ok" for r in first.values())

    # --- output checks, outside the timed region -------------------------
    # Instances the loop compiled only once, and the timer did not stop, get
    # a second compile, fastest first, for at most a quarter of the measured
    # time.
    budget_end = time.perf_counter() + args.seconds / 4
    once = [n for n, r in first.items() if r.outcome != "timeout" and n not in repeated]
    for name in sorted(once, key=lambda n: first[n].seconds):
        if time.perf_counter() >= budget_end:
            break
        r = compile_one(name)
        if r.outcome != "timeout":
            repeats_ok += 1
            repeats_differ += (r.outcome, r.output) != (first[name].outcome, first[name].output)
            repeated.add(name)

    cli_result = {name: (r.outcome, r.e_depth) for name, r in first.items()}
    oracle_checked = mismatches = 0
    for inst in insts:
        r = first[inst.name]
        if r.outcome == "ok" and serial[inst.name] <= 4:
            oracle_checked += 1
            if (r.e_depth, r.total_flow) != oracle_optimum(inst.circuit, inst.network):
                mismatches += 1
                first[inst.name] = Compiled("oracle_mismatch", r.seconds, None, None, "")

    outcomes = Counter(r.outcome for r in first.values())
    failed = len(insts) - outcomes["ok"]
    e_depth_total = sum(r.e_depth if r.outcome == "ok" else serial[n] for n, r in first.items())
    latencies = [statistics.median(ts) for ts in times.values()]
    q1, p50, q3 = statistics.quantiles(latencies, n=4, method="inclusive")
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]

    print(f"workload {args.workload} seed {args.seed}: {len(insts)} instances, {wl.flag}, "
          f"deadline {wl.nodes} solver nodes and {wl.deadline} s; {calls} compiles in {wall:.3f} s, first pass {first_pass_s:.3f} s")
    print(f"set-up runs: {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(f"latency (median compile per instance): q1 {q1:.6f} s, median {p50:.6f} s, q3 {q3:.6f} s, "
          f"p99 {p99:.6f} s ({sum(x > p99 for x in latencies)} of {len(latencies)} instances beyond p99)")
    print(f"solved_per_s = {solved / first_pass_s:.6g} 1/s ({solved} of {len(insts)} instances "
          f"exit 0 within the deadline in the {first_pass_s:.3f} s first pass)")
    print(f"fail_frac = {failed / len(insts):.6f} ratio ({failed} of {len(insts)} instances; "
          + ", ".join(f"{o} {n}" for o, n in sorted(outcomes.items())) + ")")
    print(f"check oracle: {mismatches} of {oracle_checked} solved instances with k <= 4 miss the optimum")
    print(f"check determinism: {repeats_differ} of {repeats_ok} repeated compiles differ in outcome or "
          f"output, covering {len(repeated)} of {sum(o != 'timeout' for o, _ in cli_result.values())} "
          f"instances the timer did not stop; "
          f"generator files identical across {SETUP_REPEATS} set-ups: {generator_stable}")
    correct = generator_stable and not repeats_differ

    if args.trace:
        from tracing import traced_pass

        metrics, trace_mismatches, spans = traced_pass(
            insts, wl, cli_result, lambda name: compile_one(name).seconds)
        metrics["outcome.latency_p99_s"] = (p99, "s")
        metrics["outcome.solved_per_s"] = (solved / first_pass_s, "1/s")
        metrics["outcome.fail_frac"] = (failed / len(insts), "ratio")
        for cls in ("node_budget", "timeout", "exit3", "exit4", "simulation_error", "oracle_mismatch"):
            metrics[f"outcome.{cls}"] = (outcomes[cls], "count")
        metrics["outcome.uncaught"] = (sum(n for o, n in outcomes.items() if o.startswith("uncaught")), "count")
        print(f"check trace: {trace_mismatches} instances whose traced outcome or E-depth differs from the CLI's")
        correct = correct and not trace_mismatches
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        with open(results / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            for sp in spans:
                fh.write(json.dumps(sp.__dict__) + "\n")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_p50_s": (p50, "s"),
            "e_depth_total": (e_depth_total, "rounds"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(insts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "dqcc" / "cli.py").is_file():
        print(f"error: no dqcc sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(HERE))
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
