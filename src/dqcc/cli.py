"""Command-line front end: compile, verify, oracle."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import NoReturn

from . import pipeline
from .circuit import CircuitError, parse_circuit
from .expand import EmitError, parse_physical
from .flow import (
    InstanceTooLarge,
    NoSolutionError,
    SolverStats,
    brute_force_oracle,
    dump_solution,
    e_depth,
)
from .network import NetworkError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


def _at_least_0(convert):
    """An argparse type: ``convert``, then reject a value below 0 or NaN."""

    def parse(text: str):
        value = convert(text)
        if not value >= 0:  # also false for NaN
            raise argparse.ArgumentTypeError(f"must be a number at least 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type on a bad literal
    return parse


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
            type=_at_least_0(int),
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

    ver = sub.add_parser("verify", help="re-check a previously emitted circuit pair")
    ver.add_argument("--circuit", required=True)
    ver.add_argument("--physical", required=True)
    ver.add_argument(
        "--tol",
        type=_at_least_0(float),
        default=1e-9,
        help="largest squared Hilbert-Schmidt distance between the two output "
        "ensembles that still passes (default 1e-9)",
    )

    orc = sub.add_parser("oracle", help="run the brute-force reference solver")
    common(orc)
    orc.add_argument("--max-k", type=_at_least_0(int), default=4)
    orc.add_argument("--max-d", type=_at_least_0(int), default=4)
    return top


def _error(message: object, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fail(message: object) -> NoReturn:
    raise SystemExit(_error(message, EXIT_PARSE))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        _fail(exc)
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _front(args, stage, **options):
    """Run ``pipeline.prepare`` or ``pipeline.compile`` on the files and
    options of ``args``; unreadable or unparsable input exits 2."""
    circuit_text, network_text = _read(args.circuit), _read(args.network)
    try:
        return stage(
            circuit_text, network_text, args.coherence, not args.no_quasi_parallel, **options
        )
    except (CircuitError, NetworkError) as exc:
        _fail(exc)


def _cmd_compile(args) -> int:
    # Looked up at call time: a caller may replace ``cli.SolverStats``, for
    # example with a subclass that stops the search at a node budget.
    stats = SolverStats()
    try:
        result = _front(
            args, pipeline.compile, emit=args.emit_physical or args.verify, stats=stats
        )
    except pipeline.CheckFailed as exc:
        for p in exc.problems:
            print(f"violation: {p}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoSolutionError, EmitError) as exc:
        return _error(exc, EXIT_INFEASIBLE)
    k = len(result.commodities)

    report = [
        f"k={k}",
        f"e_depth={e_depth(result.solution)}",
        f"total_flow={result.solution.total_flow}",
        f"solver_nodes={stats.nodes}",
        f"solver_invocations={stats.invocations}",
        f"wall_time_s={result.seconds:.3f}",
    ]
    verdict_lines: list[str] = []
    code = EXIT_OK
    if args.verify:
        from .simulate import SimulationError, equivalent

        try:
            rep = equivalent(result.schedule.flat(), result.circuit)
        except SimulationError as exc:
            return _error(exc, EXIT_VERIFY)
        report += [
            f"verify_end_to_end={'PASS' if rep.equal else 'FAIL'}",
            f"verify_mode={rep.mode}",
            f"verify_peak_branches={rep.peak_branches}",
            f"verify_max_dev={rep.max_deviation:.3e}",
        ]
        verdict_lines.append(
            f"check end_to_end: {'PASS' if rep.equal else 'FAIL'} (max-dev={rep.max_deviation:.3e})"
        )
        if not rep.equal:
            code = EXIT_VERIFY

    print("\n".join(report))
    if args.dump_relations:
        sys.stdout.write(result.relations.dump())
    dump = dump_solution(result.solution)
    sys.stdout.write(dump)
    for line in verdict_lines:
        print(line)

    physical_text = None
    if args.emit_physical:
        # With nothing remote the physical circuit is the input itself.
        physical_text = result.parsed.to_text() if k == 0 else result.schedule.render()
    if args.out:
        try:
            Path(args.out).write_text(dump, encoding="utf-8")
            if physical_text is not None:
                Path(args.out + ".physical").write_text(physical_text, encoding="utf-8")
        except OSError as exc:
            _fail(exc)
    elif physical_text is not None:
        sys.stdout.write(physical_text)
    return code


def _cmd_verify(args) -> int:
    from .simulate import SimulationError, equivalent

    try:
        logical = parse_circuit(_read(args.circuit))
        physical = parse_physical(_read(args.physical))
    except (CircuitError, EmitError) as exc:
        return _error(exc, EXIT_PARSE)
    try:
        rep = equivalent(physical.flat(), logical, tol=args.tol)
    except SimulationError as exc:
        return _error(exc, EXIT_VERIFY)
    print(f"check end_to_end: {'PASS' if rep.equal else 'FAIL'} (max-dev={rep.max_deviation:.3e})")
    print(f"check mode: {rep.mode}")
    return EXIT_OK if rep.equal else EXIT_VERIFY


def _cmd_oracle(args) -> int:
    front = _front(args, pipeline.prepare)
    try:
        solution = brute_force_oracle(
            front.quotient, front.commodities, front.relations, max_k=args.max_k, max_d=args.max_d
        )
    except InstanceTooLarge as exc:
        return _error(exc, EXIT_INFEASIBLE)
    print(f"k={len(front.commodities)}")
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
