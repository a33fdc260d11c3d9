"""Compiler for distributed quantum architectures: schedules remote CX
gates onto entanglement links to minimize the number of entanglement
rounds, rewrites conflicting telegates for quasi-parallel execution, and
verifies the emitted physical circuit by simulation."""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports. A name, or a submodule by
# its own name, imports its module on first access (PEP 562) and is then
# bound here, so ``import dqcc`` compiles no submodule, and numpy, which only
# ``simulate`` needs, loads only with a verifier name.
_EXPORTS = {
    "circuit": "CircuitError Commodity Gate LogicalCircuit extract_commodities layerize parse_circuit",
    "expand": "BoundPath EmitError PhysicalSchedule emit_schedule emit_telegate "
    "entanglement_path_fragment parse_physical",
    "flow": "InstanceTooLarge NoSolutionError Solution SolverStats brute_force_oracle "
    "check_solution dump_solution e_depth quickest solve_fixed_horizon",
    "network": "NetworkError NetworkGraph QuotientGraph parse_network quotient",
    "relations": "RelationTable build_relations",
    "rewrite": "EGate ExtendedCircuit lifetime lifetimes push_backward rewrite_step",
    "simulate": "Ensemble EquivalenceReport SimulationError equivalent equivalent_fragments run",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
_MODULE_OF.update((module, module) for module in _EXPORTS)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = module if name in _EXPORTS else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
