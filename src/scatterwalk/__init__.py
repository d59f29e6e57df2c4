"""Scattering-quantum-walk search for marked edges and subgraphs of complete graphs.

Four layers, importable directly from the package root: the full-state
walk engine (`core`), the exact four-dimensional reduction (`reduced`),
the oracle-circuit formulation with query accounting (`oracle`), and
measurement plus multi-run discovery statistics (`stats`).  The `walk`
command-line tool in `cli` drives all of them.
"""

from .core import (
    ScatteringCoefficients,
    WalkConfig,
    apply_step,
    coefficients,
    dense_step_operator,
    edge_endpoints,
    edge_index,
    evolve,
    initial_grid,
    marked_probability,
)
from .oracle import (
    CompositeState,
    OracleFunction,
    QueryLedger,
    apply_oracle,
    classical_query_baseline,
    conjugated_oracle,
    kickback_ancilla,
    oracle_step,
)
from .reduced import (
    asymptotic_amplitudes,
    evolve_reduced,
    localization_rate,
    optimal_steps,
    project,
    reduced_initial_state,
    reduced_operator,
    spectral_decompose,
)
from .stats import (
    CoverageDistribution,
    RunOutcome,
    coverage_distribution,
    expected_runs_to_cover,
    run_search,
    sample_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "WalkConfig",
    "ScatteringCoefficients",
    "coefficients",
    "edge_index",
    "edge_endpoints",
    "initial_grid",
    "apply_step",
    "evolve",
    "marked_probability",
    "dense_step_operator",
    "reduced_operator",
    "reduced_initial_state",
    "project",
    "spectral_decompose",
    "evolve_reduced",
    "asymptotic_amplitudes",
    "localization_rate",
    "optimal_steps",
    "OracleFunction",
    "CompositeState",
    "QueryLedger",
    "kickback_ancilla",
    "apply_oracle",
    "conjugated_oracle",
    "oracle_step",
    "classical_query_baseline",
    "RunOutcome",
    "CoverageDistribution",
    "sample_measurement",
    "run_search",
    "coverage_distribution",
    "expected_runs_to_cover",
]
