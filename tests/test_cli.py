"""Command-line harness: schemas, exit codes, determinism, fault injection."""

import json
import math

import numpy as np
import pytest

import scatterwalk.core as core
from scatterwalk.cli import main, parse_phase
from scatterwalk.core import ScatteringCoefficients


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
        with pytest.raises(ValueError, match="phase"):
            parse_phase("two-pi")


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

        monkeypatch.setattr(core, "initial_state", refuse)
        monkeypatch.setattr(core, "to_grid", refuse)
        assert run_cli(*argv) == 2
        assert "physical memory" in capsys.readouterr().err

    def test_full_engine_steps_through_apply_step_once_per_step(self, monkeypatch, capsys):
        calls = []
        step = core.apply_step

        def counted(state, config):
            calls.append(state.shape)
            return step(state, config)

        monkeypatch.setattr(core, "apply_step", counted)
        assert run_cli("run", "--n", "20", "--k", "2", "--steps", "7", "--engine", "full") == 0
        assert calls == [(20, 20)] * 7
        capsys.readouterr()

    def test_write_failure_exits_3(self, capsys):
        rc = run_cli("run", "--n", "20", "--k", "2", "--steps", "3",
                     "--out", "/no/such/dir/out.csv")
        assert rc == 3


class TestVerifyCommand:
    def test_passes_on_correct_build(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out

    def test_strict_profile_also_passes(self, capsys):
        assert run_cli("verify", "--profile", "strict") == 0
        assert "[FAIL]" not in capsys.readouterr().out

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
            ("stats", "--k", "5", "--runs", "9"),                   # enumeration bound
        ],
    )
    def test_invalid_specs_exit_2(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "error" in capsys.readouterr().err


class TestArgparseSurface:
    def test_unknown_subcommand_exits_2(self):
        assert run_cli("frobnicate") == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0
