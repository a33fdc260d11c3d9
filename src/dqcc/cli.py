"""Command-line front end: compile, verify, oracle."""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .circuit import CircuitError, parse_circuit, layerize, extract_commodities
from .expand import EmitError, emit_schedule, parse_physical
from .flow import (
    InstanceTooLarge,
    NoSolutionError,
    Solution,
    SolverStats,
    brute_force_oracle,
    check_solution,
    dump_solution,
    e_depth,
    quickest,
)
from .network import NetworkError, parse_network, quotient
from .relations import build_relations

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the
    process: ``parse_args`` returns a fresh namespace on every call and no
    default is mutable, so one parser serves every ``main`` call."""
    top = argparse.ArgumentParser(prog="dqcc", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--circuit", required=True, help="logical circuit file")
        p.add_argument("--network", required=True, help="architecture file")
        p.add_argument(
            "--coherence",
            type=int,
            default=4,
            help="communication-qubit coherence budget in layers (default 4)",
        )
        p.add_argument(
            "--no-quasi-parallel",
            action="store_true",
            help="only same-layer operations may share a step",
        )

    comp = sub.add_parser("compile", help="schedule, expand and optionally verify")
    common(comp)
    comp.add_argument("--emit-physical", action="store_true", help="write the expanded circuit")
    comp.add_argument("--verify", action="store_true", help="simulate the expansion against the input")
    comp.add_argument("--out", help="write the solution dump here (physical goes to <out>.physical)")
    comp.add_argument("--dump-relations", action="store_true", help="print one line per commodity pair")
    comp.add_argument("--seed", type=int, default=7, help="seed for sampled verification")

    ver = sub.add_parser("verify", help="re-check a previously emitted circuit pair")
    ver.add_argument("--circuit", required=True)
    ver.add_argument("--physical", required=True)
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument(
        "--tol",
        type=float,
        default=1e-9,
        help="largest squared Hilbert-Schmidt distance between the two output "
        "ensembles that still passes (default 1e-9)",
    )

    orc = sub.add_parser("oracle", help="run the brute-force reference solver")
    common(orc)
    orc.add_argument("--max-k", type=int, default=4)
    orc.add_argument("--max-d", type=int, default=4)
    return top


def _load(args) -> tuple:
    try:
        circuit_text = Path(args.circuit).read_text()
        network_text = Path(args.network).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    try:
        parsed = parse_circuit(circuit_text)
        net = parse_network(network_text)
        circuit = layerize(parsed)
        commodities = extract_commodities(circuit, net.placement())
    except (CircuitError, NetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return parsed, circuit, net, commodities


def _cmd_compile(args) -> int:
    parsed, circuit, net, commodities = _load(args)
    q = quotient(net)
    started = time.perf_counter()
    relations = build_relations(
        commodities, circuit, budget=args.coherence, enable_qp=not args.no_quasi_parallel
    )
    stats = SolverStats()
    k = len(commodities)
    if k == 0:
        solution = Solution(0, {}, {}, 0)
    else:
        try:
            solution = quickest(q, commodities, relations, stats)
        except NoSolutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        problems = check_solution(q, commodities, relations, solution)
        if problems:
            for p in problems:
                print(f"violation: {p}", file=sys.stderr)
            return EXIT_INFEASIBLE
    wall = time.perf_counter() - started

    schedule = None
    if args.emit_physical or args.verify:
        try:
            schedule = emit_schedule(solution, circuit, commodities, relations, net)
        except EmitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE

    report = [
        f"k={k}",
        f"e_depth={e_depth(solution)}",
        f"total_flow={solution.total_flow}",
        f"solver_nodes={stats.nodes}",
        f"solver_invocations={stats.invocations}",
        f"wall_time_s={wall:.3f}",
    ]
    verdict_lines: list[str] = []
    code = EXIT_OK
    if args.verify:
        from .simulate import SimulationError, equivalent

        try:
            rep = equivalent(schedule.flat(), circuit, seed=args.seed)
        except SimulationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        report += [
            f"verify_end_to_end={'PASS' if rep.equal else 'FAIL'}",
            f"verify_mode={rep.mode}",
            f"verify_peak_branches={rep.peak_branches}",
            f"verify_max_dev={rep.max_deviation:.3e}",
            f"verify_seed={args.seed}",
        ]
        verdict_lines.append(
            f"check end_to_end: {'PASS' if rep.equal else 'FAIL'} (max-dev={rep.max_deviation:.3e})"
        )
        if not rep.equal:
            code = EXIT_VERIFY

    print("\n".join(report))
    if args.dump_relations:
        sys.stdout.write(relations.dump())
    dump = dump_solution(solution)
    sys.stdout.write(dump)
    for line in verdict_lines:
        print(line)

    physical_text = None
    if schedule is not None and args.emit_physical:
        # With nothing remote the physical circuit is the input itself.
        physical_text = parsed.to_text() if k == 0 else schedule.render()
    if args.out:
        Path(args.out).write_text(dump)
        if physical_text is not None:
            Path(args.out + ".physical").write_text(physical_text)
    elif physical_text is not None:
        sys.stdout.write(physical_text)
    return code


def _cmd_verify(args) -> int:
    from .simulate import SimulationError, equivalent

    try:
        logical = parse_circuit(Path(args.circuit).read_text())
        physical = parse_physical(Path(args.physical).read_text())
    except (OSError, CircuitError, EmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rep = equivalent(physical.flat(), logical, tol=args.tol, seed=args.seed)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    print(f"check end_to_end: {'PASS' if rep.equal else 'FAIL'} (max-dev={rep.max_deviation:.3e})")
    print(f"check mode: {rep.mode} seed={args.seed}")
    return EXIT_OK if rep.equal else EXIT_VERIFY


def _cmd_oracle(args) -> int:
    _, circuit, net, commodities = _load(args)
    q = quotient(net)
    relations = build_relations(
        commodities, circuit, budget=args.coherence, enable_qp=not args.no_quasi_parallel
    )
    try:
        solution = brute_force_oracle(
            q, commodities, relations, max_k=args.max_k, max_d=args.max_d
        )
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"k={len(commodities)}")
    sys.stdout.write(dump_solution(solution))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_oracle(args)


if __name__ == "__main__":
    sys.exit(main())
