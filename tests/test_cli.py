"""Command-line harness: schemas, exit codes, determinism, fault injection."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scatterwalk.core as core
from scatterwalk import cli, oracle, reduced, stats, verify
from scatterwalk.cli import main, parse_phase
from scatterwalk.core import ScatteringCoefficients, WalkConfig
from scatterwalk.oracle import QueryLedger


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    """Split a written CSV into (header, data rows, summary dict)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows, summary = [], {}
    for line in lines[1:]:
        if line.startswith("# summary "):
            key, value = line[len("# summary "):].split("=", 1)
            summary[key] = value
        else:
            rows.append(line.split(","))
    return header, rows, summary


class TestParsePhase:
    @pytest.mark.parametrize(
        "token, value",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("PI/2", math.pi / 2),
            ("pi/4", math.pi / 4),
            ("0", 0.0),
            ("1.25", 1.25),
            ("-0.5", -0.5),
        ],
    )
    def test_tokens_and_numbers(self, token, value):
        assert parse_phase(token) == value

    def test_rejects_garbage(self):
        for token in ("two-pi", "nan", "inf", "-inf", "1e400"):
            with pytest.raises(ValueError, match=f"phase '{token}'"):
                parse_phase(token)


class TestRunCommand:
    def test_row_count_and_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = run_cli("run", "--n", "50", "--k", "2", "--phase", "pi/2",
                     "--steps", "auto", "--engine", "reduced", "--out", str(out))
        assert rc == 0
        header, rows, summary = read_csv(out)
        assert header == ["step", "p_marked", "p_w1", "p_w2", "p_w3", "p_w4",
                          "residual", "norm_error"]
        assert len(rows) == 28  # optimal count 27, plus the step-0 row
        assert summary["n_opt"] == "27"
        assert summary["quantum_calls"] == "54"

    def test_n_opt_is_exact_where_the_float_formula_is_not(self, tmp_path):
        # pi/(4x) = 241286235210.50004, within float rounding of the half-integer
        out = tmp_path / "run.csv"
        assert run_cli("run", "--engine", "reduced", "--n", "3837116321772", "--k", "13",
                       "--steps", "0", "--out", str(out)) == 0
        assert read_csv(out)[2]["n_opt"] == "241286235211"

    def test_byte_identical_reruns(self, tmp_path):
        args = ("run", "--n", "40", "--k", "3", "--steps", "auto", "--seed", "9")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_full_and_reduced_engines_agree(self, tmp_path):
        outputs = {}
        for engine in ("full", "reduced"):
            out = tmp_path / f"{engine}.csv"
            rc = run_cli("run", "--n", "100", "--k", "2", "--steps", "auto",
                         "--engine", engine, "--out", str(out))
            assert rc == 0
            _, rows, _ = read_csv(out)
            outputs[engine] = np.array([float(r[1]) for r in rows])
        assert np.abs(outputs["full"] - outputs["reduced"]).max() < 1e-9

    def test_oracle_engine_matches_reduced(self, tmp_path):
        outputs = {}
        for engine in ("oracle", "reduced"):
            out = tmp_path / f"{engine}.csv"
            assert run_cli("run", "--n", "30", "--k", "2", "--steps", "12",
                           "--engine", engine, "--out", str(out)) == 0
            header, rows, summary = read_csv(out)
            outputs[engine] = np.array([float(r[1]) for r in rows])
            assert summary["quantum_calls"] == "24"
        assert np.abs(outputs["oracle"] - outputs["reduced"]).max() < 1e-9

    def test_marked_list_and_explicit_steps(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = run_cli("run", "--n", "12", "--marked-list", "3,7", "--phase", "pi/2",
                     "--steps", "5", "--engine", "full", "--out", str(out))
        assert rc == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 6

    def test_row_weights_account_for_whole_state(self, tmp_path):
        # per-step record invariant: class weights plus residual^2 make up
        # the whole (unit) norm
        out = tmp_path / "run.csv"
        assert run_cli("run", "--n", "25", "--k", "3", "--steps", "40",
                       "--engine", "full", "--out", str(out)) == 0
        _, rows, _ = read_csv(out)
        for row in rows:
            weights = sum(float(v) for v in row[2:6])
            residual = float(row[6])
            assert abs(weights + residual**2 - 1.0) < 1e-9

    def test_sweep_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli("run", "--n-range", "20:40:10", "--k", "2", "--steps", "auto",
                     "--out", str(out))
        assert rc == 0
        header, rows, summary = read_csv(out)
        assert header == ["n", "k", "phase", "steps", "n_opt", "p_final", "p_peak",
                          "quantum_calls", "classical_queries"]
        assert [r[0] for r in rows] == ["20", "30", "40"]
        assert summary["points"] == "3"

    @pytest.mark.parametrize("engine, n_range, extra", [
        ("reduced", "20:400:95", ("--k", "3")),
        ("reduced", "4:104:25", ("--k", "2", "--steps", "0")),
        ("reduced", "10:100:30", ("--k", "3", "--phase", "0.7", "--steps", "12")),
        ("full", "10:40:10", ("--k", "2")),
        ("full", "10:40:10", ("--k", "3", "--steps", "0")),
        ("oracle", "10:40:10", ("--k", "2")),
        ("oracle", "10:40:10", ("--k", "2", "--steps", "0")),
    ])
    def test_sweep_rows_are_the_summaries_of_single_runs(self, engine, n_range, extra,
                                                         monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("a sweep point built a step table")

        out = tmp_path / "sweep.csv"
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_step_table", refuse)
            assert run_cli("run", "--engine", engine, "--n-range", n_range, *extra,
                           "--out", str(out)) == 0
        header, rows, _ = read_csv(out)
        keys = ("steps", "n_opt", "p_final", "p_peak", "quantum_calls", "classical_queries")
        for row in rows:
            single = tmp_path / f"run-{row[0]}.csv"
            assert run_cli("run", "--engine", engine, "--n", row[0], *extra,
                           "--out", str(single)) == 0
            single_header, single_rows, summary = read_csv(single)
            assert [row[header.index(key)] for key in keys] == [summary[key] for key in keys]
            p_marked = [r[single_header.index("p_marked")] for r in single_rows]
            assert (summary["p_final"], summary["p_peak"]) == (p_marked[-1],
                                                               max(p_marked, key=float))

    def test_json_output(self, tmp_path):
        out = tmp_path / "run.json"
        rc = run_cli("run", "--n", "30", "--k", "2", "--steps", "auto",
                     "--format", "json", "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"spec", "rows", "summary"}
        assert payload["spec"]["n"] == 30
        assert len(payload["rows"]) == payload["summary"]["steps"] + 1
        assert 0.0 <= payload["summary"]["p_peak"] <= 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--n", "8", "--k", "9"),                           # K > N
            ("run", "--n", "8", "--k", "7"),                           # K > N-2
            ("run", "--n", "2", "--k", "2"),                           # N too small
            ("run", "--n", "10", "--k", "2", "--phase", "nonsense"),
            ("run", "--n", "10", "--k", "2", "--phase", "pi", "--steps", "auto"),
            ("run", "--n", "10", "--k", "2", "--phase", "pi", "--steps", "4",
             "--engine", "oracle"),
            ("run", "--n", "10", "--k", "2", "--steps", "-3"),
            ("run", "--n", "10", "--k", "3", "--marked-list", "0,1"),
            ("run", "--n", "10", "--marked-list", "0,99"),
            ("run", "--n", "10", "--n-range", "5:8:1"),                # both given
            ("run",),                                                  # neither given
            ("run", "--n-range", "5:8"),                               # malformed
        ],
    )
    def test_invalid_specs_exit_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--n", "2000000", "--engine", "full"),
            ("run", "--n", "2000000", "--engine", "oracle"),
            ("run", "--n-range", "100:2000000:1999900", "--engine", "full"),
            ("stats", "--k", "3", "--runs", "2", "--mode", "mc", "--engine", "full",
             "--n", "2000000"),
        ],
    )
    def test_full_engine_memory_guard_exits_2_before_allocating(
        self, argv, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a full state was allocated")

        monkeypatch.setattr(core, "initial_grid", refuse)
        assert run_cli(*argv) == 2
        assert "physical memory" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["reduced", "full"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_phase_exits_2_naming_the_token(self, engine, token, capsys):
        assert run_cli("run", "--n", "10", "--k", "2", f"--phase={token}", "--steps", "3",
                       "--engine", engine) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: phase '{token}' is not finite\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, purpose",
        [
            (("run", "--n", "10", "--k", "2", "--steps", str(10**12)), "its step records"),
            (("run", "--n", "10", "--k", "2", "--steps", str(10**12), "--format", "json",
              "--engine", "full"), "its step records"),
            (("run", "--n", str(10**12), "--steps", "auto"), "its step records"),
            (("run", "--n-range", f"{10**12}:{2 * 10**12}:{10**12}", "--steps", "auto"),
             "its step records"),
            (("stats", "--k", "3", "--runs", "2", "--mode", "mc", "--n", "64",
              "--trials", str(10**15)), "the Monte Carlo draws"),
            (("stats", "--k", str(10**6), "--runs", "1", "--mode", "mc", "--n", str(10**7),
              "--trials", str(10**6)), "the Monte Carlo draws"),
            (("stats", "--k", "3", "--runs", "2", "--mode", "mc", "--engine", "full",
              "--n", "64", "--trials", str(10**15)),
             "the full-state grids and the Monte Carlo draws"),
            # a byte count past float64's range
            (("run", "--engine", "full", "--n", str(10**400), "--k", "3", "--steps", "3"),
             "the full-state grids"),
            (("run", "--engine", "oracle", "--n", str(10**400), "--k", "3", "--steps", "3"),
             "the full-state grids"),
            (("stats", "--k", "3", "--runs", "2", "--mode", "mc", "--engine", "full",
              "--n", str(10**400), "--trials", "5"),
             "the full-state grids and the Monte Carlo draws"),
        ],
    )
    def test_oversized_output_exits_2_before_allocating(
        self, argv, purpose, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the output was allocated")

        monkeypatch.setattr(reduced, "component_series", refuse)
        monkeypatch.setattr(reduced, "step_records", refuse)
        monkeypatch.setattr(reduced, "series_records", refuse)
        monkeypatch.setattr(core, "initial_grid", refuse)
        monkeypatch.setattr(stats, "coverage_distribution", refuse)
        monkeypatch.setattr(stats, "_search_state", refuse)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"for {purpose}, more than" in captured.err
        assert captured.out == ""

    def test_marked_set_beyond_physical_memory_exits_2(self, monkeypatch, capsys):
        # physical memory reported as 1 MiB, so the refusal is tested on a
        # marked set that would fit were the guard missing
        sysconf = os.sysconf
        monkeypatch.setattr(
            os, "sysconf", lambda name: 256 if name == "SC_PHYS_PAGES" else sysconf(name)
        )
        assert run_cli("run", "--n", "100000", "--k", "20000", "--steps", "0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: k=20000 needs") and "for the marked set" in err

    @pytest.mark.parametrize("fmt, row_bytes", [("csv", 579), ("json", 842)])
    def test_step_records_are_refused_beyond_exactly_their_counted_bytes(
        self, fmt, row_bytes, monkeypatch, tmp_path, capsys
    ):
        # physical memory reported as exactly 1000 step records' worth
        pages = {"SC_PHYS_PAGES": 1000 * row_bytes, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        argv = ("run", "--engine", "reduced", "--n", "10", "--k", "2", "--format", fmt,
                "--out", str(tmp_path / f"run.{fmt}"))
        assert run_cli(*argv, "--steps", "999") == 0
        assert run_cli(*argv, "--steps", "1000") == 2
        assert capsys.readouterr().err.startswith("error: steps=1000 needs")

    def test_full_engine_steps_through_apply_step_once_per_step(self, monkeypatch, capsys):
        calls = []
        step = core.apply_step

        def counted(state, config, **kwargs):
            calls.append(state.shape)
            return step(state, config, **kwargs)

        monkeypatch.setattr(core, "apply_step", counted)
        assert run_cli("run", "--n", "20", "--k", "2", "--steps", "7", "--engine", "full") == 0
        assert calls == [(20, 20)] * 7
        capsys.readouterr()

    @pytest.mark.parametrize(
        "engine, n, marked, phase, steps, checked",
        [
            ("full", 20, (0, 1), "pi/2", "auto", None),
            ("oracle", 20, (0, 1), "pi/2", "auto", None),
            ("full", 64, (3, 17, 31, 32, 60), "pi", "40", None),
            ("full", 300, (41, 187), "pi/2", "auto", (0, 1, 2, 83, 165, 166)),
            ("oracle", 300, (41, 187), "pi/2", "auto", (0, 1, 2, 83, 165, 166)),
        ],
    )
    def test_step_records_equal_the_public_functions(self, engine, n, marked, phase, steps,
                                                     checked, capsys):
        assert run_cli("run", "--engine", engine, "--n", str(n), "--phase", phase,
                       "--marked-list", ",".join(map(str, marked)), "--steps", steps) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line[0] != "#"]
        config = WalkConfig(n, frozenset(marked), parse_phase(phase))
        start = core.initial_grid(n)
        # the oracle's kickback is exactly i, where the walk step uses
        # e^{i pi/2} = 6.1e-17 + i: its records equal oracle-driven grids and
        # agree with core.evolve to rounding
        f, kicked = oracle.OracleFunction(n, config.marked_set), start
        for i, row in enumerate(rows):
            if checked is None or i in checked:
                walked = core.evolve(start, config, i)
                for grid in [walked] if engine == "full" else [walked, kicked]:
                    comps, residual = reduced.project(grid, config)
                    expected = [core.marked_probability(grid, config), *np.abs(comps) ** 2]
                    if grid is walked and engine == "oracle":
                        assert np.abs(np.subtract(row[1:6], expected)).max() < 1e-12
                    else:
                        assert row[1:6] == expected
                    assert abs(row[6] - residual) < 1e-12
                    assert abs(row[7] - abs(np.linalg.norm(grid) - 1.0)) < 1e-12
            if engine == "oracle":
                kicked = oracle.oracle_step(kicked, f, QueryLedger())

    def test_write_failure_exits_3(self, capsys):
        rc = run_cli("run", "--n", "20", "--k", "2", "--steps", "3",
                     "--out", "/no/such/dir/out.csv")
        assert rc == 3


def csv_text(value):
    """How the CSV prints a value that JSON prints as `value`."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


class TestWriterContract:
    @pytest.mark.parametrize("engine, n, bounds", [
        ("reduced", "100000", {"norm_error": 1e-14}),
        ("full", "300", {"residual": 1e-12, "norm_error": 1e-12}),
        ("oracle", "300", {"residual": 1e-12, "norm_error": 1e-12}),
    ])
    def test_json_step_records_keep_the_advertised_bounds(self, engine, n, bounds, tmp_path):
        # the bounds the CI workflow asserts on the installed `walk`, at n_opt steps
        out = tmp_path / "run.json"
        assert run_cli("run", "--engine", engine, "--n", n, "--k", "2", "--format", "json",
                       "--out", str(out)) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == reduced.optimal_steps(int(n), 2) + 1
        assert all(0 <= row["p_marked"] <= 1 for row in rows)
        for column, bound in bounds.items():
            assert max(row[column] for row in rows) <= bound

    def test_reduced_norm_error_is_the_printed_weights_summed_left_to_right(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli("run", "--engine", "reduced", "--n", "200", "--k", "3",
                       "--steps", "30", "--out", str(out)) == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 31
        for row in rows:
            w1, w2, w3, w4 = (float(v) for v in row[2:6])
            assert float(row[7]) == abs((w1 + w2 + w3 + w4) ** 0.5 - 1.0)
        # these rows' weights, summed left to right, are 1 - 2**-53 (found by
        # computing every row's sum): Python's ** 0.5 of it is 1.0, while a
        # correctly rounded sqrt would print 1.1102230246251565e-16
        assert [rows[i][7] for i in (7, 8, 10, 14, 16, 24)] == ["0"] * 6

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--engine", "full", "--n", "20", "--k", "3", "--steps", "12"),
            ("run", "--engine", "reduced", "--n", "1000", "--k", "3", "--steps", "30"),
            ("run", "--engine", "oracle", "--n", "20", "--k", "2"),
            ("run", "--engine", "full", "--n-range", "10:30:10", "--k", "2"),
            ("run", "--engine", "reduced", "--n-range", "20:400:20", "--k", "3"),
            ("run", "--engine", "oracle", "--n-range", "10:30:10", "--k", "2"),
            ("stats", "--k", "5", "--runs", "4"),
            ("stats", "--mode", "mc", "--n", "64", "--k", "3", "--runs", "2", "--trials", "300"),
            ("stats", "--mode", "mc", "--engine", "full", "--n", "20", "--k", "3",
             "--runs", "2", "--trials", "100"),
        ],
        ids=["run-full", "run-reduced", "run-oracle", "sweep-full", "sweep-reduced",
             "sweep-oracle", "stats-exact", "stats-mc-reduced", "stats-mc-full"],
    )
    def test_json_rows_and_summary_equal_the_csv(self, argv, tmp_path):
        csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
        assert run_cli(*argv, "--out", str(csv_out)) == 0
        assert run_cli(*argv, "--format", "json", "--out", str(json_out)) == 0
        header, rows, summary = read_csv(csv_out)
        payload = json.loads(json_out.read_text())
        assert [sorted(row) for row in payload["rows"]] == [sorted(header)] * len(rows)
        assert [[csv_text(row[c]) for c in header] for row in payload["rows"]] == rows
        assert {k: csv_text(v) for k, v in payload["summary"].items()} == summary


class TestVerifyCommand:
    def test_passes_on_correct_build(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out

    def test_strict_profile_also_passes(self, capsys):
        assert run_cli("verify", "--profile", "strict") == 0
        assert "[FAIL]" not in capsys.readouterr().out

    @pytest.mark.parametrize("profile, passed", [("default", True), ("strict", False)])
    def test_strict_profile_tightens_the_advertised_tolerance(self, profile, passed,
                                                               monkeypatch):
        # a 5e-14 offset sits between the fixed point's 1e-13 and its strict 1e-14, on
        # the plain steps it compares; step_records' in-place, read steps pass through
        step = core.apply_step
        monkeypatch.setattr(core, "apply_step", lambda state, config, **kw: step(
            state, config, **kw) if kw else step(state, config) + 5e-14)
        result = {r.name: r for r in verify.run_checks(profile)}["fixed-point"]
        assert result.passed is passed
        if not passed:
            assert result.detail.endswith("at N=3, K=0")

    def test_unknown_profile_is_refused_naming_the_choices(self, capsys):
        with pytest.raises(ValueError, match=r"'loose'; choose from \['default', 'strict'\]"):
            verify.run_checks("loose")
        assert run_cli("verify", "--profile", "loose") == 2
        assert "(choose from 'default', 'strict')" in capsys.readouterr().err

    def test_subspace_closure_reads_the_residuals_walk_run_prints(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli("run", "--engine", "full", "--n", "30", "--marked-list", "0,1,2",
                       "--steps", "200", "--out", str(out)) == 0
        header, rows, _ = read_csv(out)
        worst = max(float(row[header.index("residual")]) for row in rows[1:])
        assert max(case[0] for case in verify.check_subspace_closure(10, 20)) == worst
        result = {r.name: r for r in verify.run_checks()}["subspace-closure"]
        assert result.detail == f"max residual {worst:.3e} over 200 steps"

    def test_full_reduced_equivalence_compares_the_p_marked_both_engines_print(self, tmp_path):
        worst = 0.0
        for n, k in ((12, 2), (30, 3)):
            printed = []
            for engine, marked in (("full", ("--marked-list", ",".join(map(str, range(k))))),
                                   ("reduced", ("--k", str(k)))):
                out = tmp_path / f"{engine}-{n}.csv"
                assert run_cli("run", "--engine", engine, "--n", str(n), *marked,
                               "--steps", "150", "--out", str(out)) == 0
                header, rows, _ = read_csv(out)
                printed.append([float(row[header.index("p_marked")]) for row in rows[1:]])
            worst = max(worst, *(abs(p - q) for p, q in zip(*printed)))
        result = {r.name: r for r in verify.run_checks()}["full-reduced-equivalence"]
        assert result.detail == f"max deviation {worst:.3e}"

    def test_parser_lists_the_profiles_of_verify(self):
        # the parser names the profiles itself, so `run` and `stats` do not import verify
        assert cli._PROFILES == tuple(verify.PROFILES)

    def test_fault_injection_fails_unitarity(self, monkeypatch, capsys):
        # break r + t = 1; the dense operator is assembled from both
        # coefficients, so its unitarity check must catch this
        original = core.coefficients

        def broken(n_vertices):
            t, r = original(n_vertices)
            return ScatteringCoefficients(t=t, r=r + 0.05)

        monkeypatch.setattr(core, "coefficients", broken)
        assert run_cli("verify") == 1
        out = capsys.readouterr().out
        assert "[FAIL] unitarity" in out
        assert "N=" in out and "K=" in out

    @pytest.mark.parametrize(
        "suite, module, name, fault, where",
        [
            pytest.param(*case, id=case[0]) for case in [
                ("fixed-point", core, "apply_step",  # on plain steps, not step_records' ones
                 lambda step: lambda state, config, **kw: step(state, config, **kw) if kw
                 else step(state, config) + 1e-9, "at N=3, K=0"),
                ("projection-consistency", reduced, "reduced_operator",
                 lambda build: lambda n, k, phase: build(n, k, phase) + 1e-9,
                 "at N=4, K=2, phi=0"),
                ("subspace-closure", reduced, "step_records",
                 lambda records: lambda *args: (lambda comps, residual, p, norm: (
                     comps, residual + 1.0, p, norm))(*records(*args)),
                 "after 1 steps at N=30, K=3, phi=pi/2"),
                ("full-reduced-equivalence", reduced, "step_records",
                 lambda records: lambda *args: (lambda comps, residual, p, norm: (
                     comps, residual, p + 1e-6, norm))(*records(*args)),
                 "at N=12, K=2, step=1"),
                ("circuit-isomorphism", oracle, "oracle_step",  # skips its ledger charge
                 lambda step: lambda state, f, ledger, out=None: step(
                     state, f, QueryLedger(), out),
                 "ledger counted 0 calls for 30 steps at N=6"),
                ("reference-values", reduced, "optimal_steps",
                 lambda steps: lambda n, k: steps(n, k) + 1, "n_opt(N=50,K=2): got 28, want 27"),
            ]
        ] + [
            pytest.param("full-reduced-equivalence", reduced, "series_records",
                         lambda records: lambda *args: (lambda comps, residual, p, norm: (
                             comps, residual, p + 1e-6, norm))(*records(*args)),
                         "at N=12, K=2, step=1", id="full-reduced-equivalence-series_records"),
            pytest.param("full-reduced-equivalence", reduced, "reduced_operator",
                         lambda build: lambda n, k, phase: build(n, k, phase) * 1.01,
                         "operator is not unitary: eigenvalues leave the unit circle at N=12, K=2",
                         id="full-reduced-equivalence-not-unitary"),
        ],
    )
    def test_fault_injection_fails_each_suite(self, suite, module, name, fault, where,
                                              monkeypatch, capsys):
        # one fault per suite, wrapped around the public function the suite calls
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        result = {r.name: r for r in verify.run_checks()}[suite]
        assert not result.passed
        assert where in result.detail
        assert run_cli("verify") == 1
        assert f"[FAIL] {suite}: " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, fault, detail",
        [
            ("apply_oracle", lambda gate: lambda state, f: dataclasses.replace(
                gate(state, f), ancilla=np.roll(gate(state, f).ancilla, 1)),
             "ancilla failed to return to the ready state on edge (2, 0) at N=6"),
            ("conjugated_oracle", lambda gates: lambda edge, f: 1.0,
             "circuit phase off by 1.414e+00 on edge (0, 1) at N=6, K=2"),
        ],
    )
    def test_fault_in_the_gates_fails_circuit_isomorphism(self, name, fault, detail,
                                                          monkeypatch, capsys):
        # oracle_step takes its phase from one f() call, so only the gate
        # check sees a broken copy -> oracle -> uncopy circuit
        monkeypatch.setattr(oracle, name, fault(getattr(oracle, name)))
        result = {r.name: r for r in verify.run_checks()}["circuit-isomorphism"]
        assert (result.passed, result.detail) == (False, detail)
        assert run_cli("verify") == 1
        assert "[FAIL] circuit-isomorphism: " in capsys.readouterr().out

    def test_nan_deviation_fails_the_suite(self, monkeypatch, capsys):
        # NaN compares false with every tolerance, so a NaN from the
        # unmarked step must fail a suite rather than pass it silently;
        # step_records' in-place, read steps pass through
        step = core.apply_step
        monkeypatch.setattr(core, "apply_step", lambda state, config, **kw: step(
            state, config, **kw) if kw or config.k_marked else step(state, config) * np.nan)
        result = {r.name: r for r in verify.run_checks()}["fixed-point"]
        assert not result.passed
        assert result.detail == "deviation nan at N=3, K=0"
        assert run_cli("verify") == 1
        capsys.readouterr()


class TestStatsCommand:
    def test_exact_reference_rows(self, tmp_path):
        out = tmp_path / "stats.csv"
        assert run_cli("stats", "--k", "3", "--runs", "2", "--mode", "exact",
                       "--out", str(out)) == 0
        header, rows, summary = read_csv(out)
        assert header == ["j", "probability", "fraction"]
        by_j = {r[0]: r for r in rows}
        assert by_j["3"][1].startswith("0.66666666666666")
        assert by_j["3"][2] == "2/3"
        assert summary["expected_runs_fraction"] == "5/2"

    def test_exact_k4(self, tmp_path):
        out = tmp_path / "stats.csv"
        assert run_cli("stats", "--k", "4", "--runs", "3", "--out", str(out)) == 0
        _, rows, _ = read_csv(out)
        fractions = {r[0]: r[2] for r in rows}
        assert fractions["4"] == "19/36"
        assert fractions["3"] == "4/9"

    def test_mc_mode(self, tmp_path):
        out = tmp_path / "stats.csv"
        rc = run_cli("stats", "--k", "3", "--runs", "2", "--mode", "mc",
                     "--n", "500", "--trials", "20000", "--seed", "11",
                     "--out", str(out))
        assert rc == 0
        _, rows, summary = read_csv(out)
        probs = {r[0]: float(r[1]) for r in rows}
        assert abs(probs["3"] - 2 / 3) < 0.02
        assert summary["mode"] == "simulated"
        assert float(summary["success_rate"]) > 0.9
        from scatterwalk import optimal_steps
        assert int(summary["oracle_calls"]) == 20000 * 2 * 2 * optimal_steps(500, 3)

    def test_mc_json(self, tmp_path):
        out = tmp_path / "stats.json"
        rc = run_cli("stats", "--k", "3", "--runs", "2", "--mode", "mc",
                     "--n", "300", "--trials", "5000", "--format", "json",
                     "--out", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["trials"] == 5000
        assert "success_rate" in payload["summary"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "--k", "1", "--runs", "2"),
            ("stats", "--k", "3", "--runs", "0"),
            ("stats", "--k", "3", "--runs", "2", "--mode", "mc"),   # missing --n
            ("stats", "--k", "3", "--runs", "100000"),              # chain work bound
            ("stats", "--k", "100000", "--runs", "1"),              # expected-runs work bound
        ],
    )
    def test_invalid_specs_exit_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "k, runs",
        [
            ("3", "1000000000"),  # 3**runs alone took minutes
            ("2", "1000000000000"),  # 1**runs passed; the enumeration ran out of memory
        ],
    )
    def test_exact_mode_refuses_a_huge_runs_before_enumerating(self, k, runs, capsys):
        assert run_cli("stats", "--k", k, "--runs", runs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"error: runs={runs} at k={k} exceeds the exact chain's work bound")

    def test_exact_fractions_print_past_the_int_digit_limit(self, capsys):
        # P(2 seen after 10^4 runs at K=3) = 1/3^9999, a 4771-digit denominator
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run_cli("stats", "--k", "3", "--runs", "10000") == 0
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        header, row2, row3, *summary = capsys.readouterr().out.splitlines()
        assert header == "j,probability,fraction"
        j, p, fraction = row2.split(",")
        assert (j, p) == ("2", "0")
        numerator, denominator = fraction.split("/")
        assert numerator == "1" and len(denominator) == 4771
        assert denominator.endswith(str(pow(3, 9999, 10**9)))
        assert row3.startswith("3,1,")
        assert "# summary expected_runs_fraction=5/2" in summary

    @pytest.mark.parametrize("engine", ["reduced", "full"])
    def test_mc_k_above_n_exits_2_naming_k_and_n(self, engine, capsys):
        rc = run_cli("stats", "--mode", "mc", "--engine", engine, "--k", "70", "--n", "64",
                     "--runs", "2")
        assert rc == 2
        assert capsys.readouterr().err == "error: k=70 out of range for n=64\n"

    @pytest.mark.parametrize("engine", ["reduced", "full"])
    def test_mc_invalid_n_exits_2_naming_n_before_k(self, engine, capsys):
        # N is read by the input contract before K is compared with it
        rc = run_cli("stats", "--mode", "mc", "--engine", engine, "--n", "-5", "--k", "3",
                     "--runs", "2")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: n_vertices must be an integer >= 4, got -5\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("stats", "--mode", "mc", "--engine", engine, "--k", "3",
                          "--n", "64", "--runs", "2"), id=engine)
            for engine in ("reduced", "full")
        ] + [
            pytest.param(("stats", "--mode", "exact", "--k", "3", "--runs", "2"), id="exact"),
            pytest.param(("run", "--n", "10", "--k", "2"), id="run"),
        ],
    )
    def test_mc_negative_seed_exits_2_naming_the_seed(self, argv, capsys):
        rc = run_cli(*argv, "--seed", "-1")
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed=-1 must be >= 0\n"
        assert captured.out == ""

    def test_reduced_monte_carlo_memory_does_not_grow_with_the_pairs(self):
        # one draw at K = 3000 (4.5 million marked pairs) must peak within
        # 4 MiB of one at K = 3, in fresh interpreters.  Each is started by a
        # small launcher, because a child's ru_maxrss also counts the process
        # it was forked from, here pytest.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        launcher = ("import resource, subprocess, sys\n"
                    "subprocess.run([sys.executable, '-m', 'scatterwalk.cli', *sys.argv[1:]],"
                    " stdout=subprocess.DEVNULL, check=True)\n"
                    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")

        def peak_kib(k):
            argv = ["stats", "--mode", "mc", "--engine", "reduced", "--n", "3010",
                    "--k", str(k), "--runs", "1", "--trials", "1"]
            return int(subprocess.run([sys.executable, "-c", launcher, *argv], env=env,
                                      capture_output=True, text=True, check=True).stdout)

        assert peak_kib(3000) - peak_kib(3) < 4 * 1024


# a refusal of `walk` and the library call that refuses the same values
LIBRARY_REFUSALS = {
    "run --n 8 --k 7": lambda: reduced.optimal_steps(8, 7),
    "run --n 3 --k 2": lambda: reduced.optimal_steps(3, 2),
    "run --n 10 --marked-list 0": lambda: reduced.optimal_steps(10, 1),
    "run --n 10 --marked-list 0,99": lambda: core.check_marked(10, [0, 99]),
    "run --n 10 --marked-list=-1,3": lambda: core.check_marked(10, [-1, 3]),
    "run --n 10 --k 2 --steps=-3": lambda: core.evolve(
        core.initial_grid(10), WalkConfig(10, {0, 1}, math.pi / 2), -3),
    "stats --k 1 --runs 2": lambda: stats.expected_runs_to_cover(1),
    "stats --k 3 --runs 0": lambda: stats.coverage_distribution(3, 0),
    "stats --mode mc --engine reduced --n 64 --k 63 --runs 2": lambda: (
        stats.coverage_distribution(63, 2, "mc", n_vertices=64, engine="reduced")),
    "stats --mode mc --engine full --n 64 --k 63 --runs 2": lambda: (
        stats.coverage_distribution(63, 2, "mc", n_vertices=64, engine="full")),
}


@pytest.mark.parametrize("argv", LIBRARY_REFUSALS)
def test_each_condition_has_the_library_message(argv, capsys):
    with pytest.raises(ValueError) as refused:
        LIBRARY_REFUSALS[argv]()
    assert run_cli(*argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {refused.value}\n"
    assert captured.out == ""


def test_an_out_of_range_marked_vertex_is_named_alone(capsys):
    # 1001 marked vertices, only 2000 out of range: one short line names it
    # and N, not the whole set
    marked = ",".join(map(str, range(1000, 2001)))
    assert run_cli("run", "--n", "2000", "--marked-list", marked) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 120
    assert "2000" in captured.err
    assert captured.out == ""


class TestModuleEntryPoint:
    def test_runs_without_scipy_as_python_m(self):
        # a fresh interpreter: the package and the CLI must not pull in scipy,
        # and `python -m scatterwalk.cli` must dispatch to the CLI
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        probe = "import sys, scatterwalk, scatterwalk.cli; print('scipy' in sys.modules)"
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout == "False\n"
        verify_run = subprocess.run([sys.executable, "-m", "scatterwalk.cli", "verify"],
                                    env=env, capture_output=True, text=True)
        assert verify_run.returncode == 0, verify_run.stderr
        assert "7/7 suites passed" in verify_run.stdout


def _ints(low, high):
    return st.integers(low, high).map(str)


# Valid values are kept cheap: n <= 40, k <= 8, short step counts and
# sweeps, trials <= 50, runs <= 3.  A huge count is drawn only where a guard
# refuses it before any work (--n, --steps) or the reduced engine takes it
# at no extra cost (--n past int64 or float64); --trials, --runs and --k are
# never huge, because the Monte Carlo is bounded by time, not memory; exact
# mode's refusal of a huge --runs or --k is tested on its own above.
_MALFORMED = ("abc", "-1", "1e3", "nan", "inf", "1:2:3:4", "1,x")
_HUGE = {"--n": (str(10**12), str(10**21), str(10**400)), "--steps": (str(10**12),)}
_RUN_FLAGS = {
    "--n": _ints(2, 40),
    "--n-range": st.builds("{}:{}:{}".format, _ints(2, 40), _ints(2, 40), _ints(0, 20)),
    "--k": _ints(0, 8),
    "--marked-list": st.lists(_ints(-1, 40), min_size=1, max_size=8).map(",".join),
    "--phase": st.sampled_from(("pi/2", "pi", "pi/4", "0", "2pi", "1.25", "-0.5")),
    "--steps": st.one_of(st.just("auto"), _ints(0, 30)),
    "--engine": st.sampled_from(("reduced", "full", "oracle")),
    "--seed": _ints(0, 9),
    "--format": st.sampled_from(("csv", "json")),
}
_STATS_FLAGS = {
    "--k": _ints(1, 8),
    "--runs": _ints(1, 3),
    "--mode": st.sampled_from(("exact", "mc")),
    "--n": _ints(2, 40),
    "--trials": _ints(1, 50),
    "--seed": _ints(0, 9),
    "--engine": st.sampled_from(("reduced", "full")),
    "--format": st.sampled_from(("csv", "json")),
}


@st.composite
def _argvs(draw):
    """A run or stats argv: the flags it needs (for run, one of --n and
    --n-range), a random subset of the rest, and each value valid or, one
    time in eight, malformed or huge."""
    command = draw(st.sampled_from(("run", "stats")))
    if command == "run":
        flags, needed = _RUN_FLAGS, [draw(st.sampled_from(("--n", "--n-range")))]
        optional = set(flags) - {"--n", "--n-range"}
    else:
        flags, needed = _STATS_FLAGS, ["--k", "--runs"]
        optional = set(flags) - set(needed)
    rest = draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    argv = [command]
    for flag in needed + rest:
        if draw(st.integers(0, 7)) == 7:
            value = draw(st.sampled_from(_MALFORMED + _HUGE.get(flag, ())))
        else:
            value = draw(flags[flag])
        argv.append(f"{flag}={value}")  # '=' keeps a value like -1 from reading as a flag
    return argv


class TestFlagFuzz:
    @settings(max_examples=100, deadline=None)
    @given(_argvs())
    @example(["run", "--n=10", "--k=2", "--phase=nan", "--steps=3"])
    @example(["run", "--n=10", "--k=2", "--phase=inf", "--steps=3", "--engine=full"])
    # graph sizes past int64 (class-size products) and past float64
    @example(["run", "--engine=reduced", "--n=9000000000000000000", "--k=3", "--steps=3"])
    @example(["stats", "--mode=mc", f"--n={10**21}", "--k=3", "--runs=2", "--trials=5"])
    @example(["stats", "--mode=mc", f"--n={10**400}", "--k=3", "--runs=2", "--trials=5"])
    @example(["run", "--engine=full", f"--n={10**400}", "--k=3", "--steps=3"])
    @example(["stats", "--mode=mc", "--engine=full", f"--n={10**400}", "--k=3", "--runs=2",
              "--trials=5"])
    def test_random_flags_exit_0_or_2_with_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        if rc == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert rc == 2
            assert out.getvalue() == ""
            assert sum("error:" in line for line in err.getvalue().splitlines()) == 1


class TestArgparseSurface:
    def test_unknown_subcommand_exits_2(self):
        assert run_cli("frobnicate") == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0
