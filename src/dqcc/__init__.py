"""Compiler for distributed quantum architectures: schedules remote CX
gates onto entanglement links to minimize the number of entanglement
rounds, rewrites conflicting telegates for quasi-parallel execution, and
verifies the emitted physical circuit by simulation."""

from .circuit import (
    CircuitError,
    Commodity,
    Gate,
    LogicalCircuit,
    extract_commodities,
    layerize,
    parse_circuit,
)
from .expand import (
    BoundPath,
    EmitError,
    PhysicalSchedule,
    emit_schedule,
    emit_telegate,
    entanglement_path_fragment,
    parse_physical,
)
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
    solve_fixed_horizon,
)
from .network import (
    NetworkError,
    NetworkGraph,
    QuotientGraph,
    parse_network,
    quotient,
)
from .relations import RelationTable, build_relations
from .rewrite import (
    EGate,
    ExtendedCircuit,
    lifetime,
    lifetimes,
    push_backward,
    rewrite_step,
)

__version__ = "0.1.0"

# The verifier's names load numpy, which only --verify needs: import
# ``simulate`` on first use of one of them (PEP 562), not with the package.
_SIMULATE_NAMES = frozenset(
    {
        "Ensemble",
        "EquivalenceReport",
        "SimulationError",
        "equivalent",
        "equivalent_fragments",
        "run",
    }
)


def __getattr__(name: str):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
