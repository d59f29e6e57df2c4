"""Public surface: every exported name resolves, and so does every name the
benchmark's tracer wraps, so deleting one fails here before a traced run.
Every public entry point that takes a size, vertex, count or step number
reads it by one contract, `core.check_int`."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import scatterwalk
import scatterwalk as sw
from scatterwalk import core, reduced

MODULES = sorted(info.name for info in pkgutil.iter_modules(scatterwalk.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    """The TRACED tuple of perfbench/tracer.py, read without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"scatterwalk.{module}" if module else "scatterwalk")
    assert mod.__all__, f"{mod.__name__} exports nothing"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ names missing attributes: {missing}"


def test_every_traced_name_resolves():
    missing = []
    for qualified in traced_names():
        module, attr = qualified.split(".")
        if not hasattr(importlib.import_module(f"scatterwalk.{module}"), attr):
            missing.append(qualified)
    assert not missing, f"perfbench/tracer.py traces names that do not exist: {missing}"


CONFIG = sw.WalkConfig(10, {0, 1}, 0.5)
ORACLE = sw.OracleFunction(10, frozenset({0, 1}))
OP, STATE = sw.reduced_operator(10, 3, 0.5), sw.reduced_initial_state(10, 3)


def mc(engine, n=10, trials=20):
    return sw.coverage_distribution(3, 2, "mc", n_vertices=n, trials=trials, seed=1,
                                    engine=engine)


# entry point and argument: (parameter named, its lower bound, call, an accepted value)
INTEGER_INPUTS = {
    "WalkConfig-n_vertices": ("n_vertices", 3, lambda v: sw.WalkConfig(v, {0, 1}, 0.5), 10),
    "WalkConfig-marked_set": ("marked vertex", 0, lambda v: sw.WalkConfig(10, {0, v}, 0.5), 3),
    "coefficients": ("n_vertices", 3, sw.coefficients, 10),
    "initial_grid": ("n_vertices", 3, sw.initial_grid, 10),
    "n_edge_states": ("n_vertices", 2, core.n_edge_states, 100),  # int8: 100 * 99 overflows
    "check_grid": ("n_vertices", 2, lambda v: core.check_grid(sw.initial_grid(5), v), 5),
    "to_grid": ("n_vertices", 2, lambda v: core.to_grid(np.arange(20), v), 5),
    "edge_index-n_vertices": ("n_vertices", 2, lambda v: sw.edge_index(v, 1, 2), 10),
    "edge_index-source": ("source", 0, lambda v: sw.edge_index(10, v, 2), 3),
    "edge_index-target": ("target", 0, lambda v: sw.edge_index(10, 1, v), 3),
    "edge_endpoints-n_vertices": ("n_vertices", 2, lambda v: sw.edge_endpoints(v, 5), 10),
    "evolve-steps": ("steps", 0, lambda v: sw.evolve(sw.initial_grid(10), CONFIG, v), 3),
    "reduced_operator-n_vertices": ("n_vertices", 4, lambda v: sw.reduced_operator(v, 3, 0.5), 10),
    "reduced_operator-k_marked": ("k_marked", 2, lambda v: sw.reduced_operator(10, v, 0.5), 3),
    "reduced_initial_state-n_vertices": ("n_vertices", 4,
                                         lambda v: sw.reduced_initial_state(v, 3), 10),
    "reduced_initial_state-k_marked": ("k_marked", 2, lambda v: sw.reduced_initial_state(10, v), 3),
    "localization_rate-n_vertices": ("n_vertices", 4, lambda v: sw.localization_rate(v, 3), 10),
    "localization_rate-k_marked": ("k_marked", 2, lambda v: sw.localization_rate(10, v), 3),
    "optimal_steps-n_vertices": ("n_vertices", 4, lambda v: sw.optimal_steps(v, 3), 10),
    "optimal_steps-k_marked": ("k_marked", 2, lambda v: sw.optimal_steps(10, v), 3),
    "asymptotic_amplitudes-n_vertices": ("n_vertices", 4,
                                         lambda v: sw.asymptotic_amplitudes(v, 2, 5), 100),
    "asymptotic_amplitudes-k_marked": ("k_marked", 2,
                                       lambda v: sw.asymptotic_amplitudes(100, v, 5), 2),
    "asymptotic_amplitudes-steps": ("steps", 0, lambda v: sw.asymptotic_amplitudes(100, 2, v), 5),
    "evolve_reduced-steps": ("steps", 0, lambda v: sw.evolve_reduced(STATE, OP, v), 5),
    "component_series-horizon": ("horizon", 0,
                                 lambda v: reduced.component_series(OP, STATE, v), 5),
    "OracleFunction-n_vertices": ("n_vertices", 3,
                                  lambda v: sw.OracleFunction(v, frozenset({0, 1})), 10),
    "OracleFunction-marked_set": ("marked vertex", 0,
                                  lambda v: sw.OracleFunction(10, frozenset({0, v})), 3),
    "OracleFunction-call-k": ("k", 0, lambda v: ORACLE(v, 1), 3),
    "OracleFunction-call-l": ("l", 0, lambda v: ORACLE(1, v), 3),
    "conjugated_oracle-edge": ("source", 0, lambda v: sw.conjugated_oracle((v, 1), ORACLE), 3),
    "classical_query_baseline-n_vertices": ("n_vertices", 2,
                                            lambda v: sw.classical_query_baseline(v, 3), 10),
    "classical_query_baseline-k_marked": ("k_marked", 2,
                                          lambda v: sw.classical_query_baseline(10, v), 3),
    "coverage_distribution-k_marked": ("k_marked", 2, lambda v: sw.coverage_distribution(v, 2), 3),
    "coverage_distribution-runs": ("runs", 1, lambda v: sw.coverage_distribution(3, v), 2),
    "coverage_distribution-mc-reduced-n_vertices": ("n_vertices", 4, lambda v: mc("reduced", v), 10),
    "coverage_distribution-mc-full-n_vertices": ("n_vertices", 4, lambda v: mc("full", v), 10),
    "coverage_distribution-mc-trials": ("trials", 1, lambda v: mc("reduced", trials=v), 20),
    "expected_runs_to_cover-k_marked": ("k_marked", 2, sw.expected_runs_to_cover, 3),
}
NON_INTEGERS = [2.5, 3.0, True, np.bool_(True), np.float64(3), "3"]
INTEGER_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("entry", INTEGER_INPUTS)
@pytest.mark.parametrize("value", NON_INTEGERS, ids=repr)
def test_non_integers_are_refused_by_name(entry, value):
    name, low, call, _ = INTEGER_INPUTS[entry]
    message = f"^{name} must be an integer >= {low}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("entry", INTEGER_INPUTS)
@pytest.mark.parametrize("integer", INTEGER_TYPES, ids=lambda t: t.__name__)
def test_numpy_integers_act_as_python_ints(entry, integer):
    _, _, call, good = INTEGER_INPUTS[entry]
    np.testing.assert_equal(call(integer(good)), call(good))
