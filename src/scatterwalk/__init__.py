"""Scattering-quantum-walk search for marked edges and subgraphs of complete graphs.

Five layers, each name of `__all__` reachable from the package root: the
full-state walk engine (`core`), the exact four-dimensional reduction
(`reduced`), the oracle-circuit formulation with query accounting
(`oracle`), measurement and simulated discovery statistics (`stats`), and
the exact discovery chain (`coverage`).  The `walk` command-line tool in
`cli` drives all of them.

Importing the package loads none of its modules, nor numpy: a root name
is resolved on first use (PEP 562), importing only the module that
defines it, so `scatterwalk.expected_runs_to_cover` needs no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "WalkConfig": "core",
    "ScatteringCoefficients": "core",
    "coefficients": "core",
    "initial_grid": "core",
    "apply_step": "core",
    "evolve": "core",
    "marked_probability": "core",
    "dense_step_operator": "core",
    "reduced_operator": "reduced",
    "reduced_initial_state": "reduced",
    "project": "reduced",
    "spectral_decompose": "reduced",
    "evolve_reduced": "reduced",
    "asymptotic_amplitudes": "reduced",
    "localization_rate": "reduced",
    "optimal_steps": "reduced",
    "OracleFunction": "oracle",
    "CompositeState": "oracle",
    "QueryLedger": "oracle",
    "kickback_ancilla": "oracle",
    "apply_oracle": "oracle",
    "conjugated_oracle": "oracle",
    "oracle_step": "oracle",
    "classical_query_baseline": "oracle",
    "RunOutcome": "stats",
    "CoverageDistribution": "coverage",
    "sample_measurement": "stats",
    "run_search": "stats",
    "coverage_distribution": "stats",
    "expected_runs_to_cover": "coverage",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
