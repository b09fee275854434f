"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import datetime as dt
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import euroforecast
from euroforecast import data_io, tournament
from euroforecast.cli import CONFIG_DIR_ENV, EXIT_CONFIG, EXIT_FIT, EXIT_IO, EXIT_OK, main
from euroforecast.data_io import AppConfig
from euroforecast.elo import DEFAULT_K_FACTORS

from conftest import build_team_model, rename_groups


def save_hand_models(path, teams_with_elo):
    models = {t: build_team_model(t, e) for t, e in teams_with_elo.items()}
    data_io.save_models(path, models)
    return path


@pytest.fixture(scope="module")
def euro2020_model_file(tmp_path_factory, euro2020):
    ratings, _, _ = euro2020
    path = tmp_path_factory.mktemp("models") / "euro2020.json"
    return save_hand_models(path, ratings)


@pytest.fixture(scope="module")
def euro2016_model_file(tmp_path_factory, data_dir):
    ratings = data_io.rating_table(data_io.load_ratings(data_dir / "euro2016_ratings.csv"))
    path = tmp_path_factory.mktemp("models") / "euro2016.json"
    return save_hand_models(path, ratings)


@pytest.fixture(scope="module")
def fitted_model_file(tmp_path_factory, demo_history):
    """A real fit over four teams, reused by forecast/gof tests."""
    matches_path, ratings_path = demo_history
    out = tmp_path_factory.mktemp("fit") / "model.json"
    code = main(
        [
            "fit",
            "--matches", str(matches_path),
            "--ratings", str(ratings_path),
            "--teams", "FRA,BEL,MKD,XXH",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


class TestParser:
    def test_cold_start_loads_neither_scipy_nor_the_process_pool(
        self, euro2020_model_file, demo_history, data_dir
    ):
        # scipy and the pool's modules would add about 0.35 s to every command;
        # only a fit loads scipy, and only a run on several workers that gives
        # each process MIN_RUNS_PER_PROCESS runs the pool
        src = str(Path(euroforecast.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        matches_path, ratings_path = demo_history
        code = f"""
import datetime, sys
import euroforecast.cli
from euroforecast import data_io, elo, tournament
from euroforecast.forecast import score_grid
from euroforecast.regression import FitConfig, fit_team_models
from euroforecast.tournament import monte_carlo
from euroforecast.weights import WeightConfig

def loaded():
    print([m for m in ("scipy", "concurrent.futures.process") if m in sys.modules])

models, _ = data_io.load_models({str(euro2020_model_file)!r})
data = {str(data_dir)!r}
ratings = data_io.rating_table(data_io.load_ratings(data + "/euro2020_ratings.csv"))
fixtures = data_io.load_fixtures(data + "/euro2020_fixtures.csv")
allocation = data_io.load_allocation(data + "/euro2020_allocation.csv")
score_grid(models["FRA"], models["GER"], ratings["FRA"], ratings["GER"])
monte_carlo(models, ratings, fixtures, allocation, n_runs=20)
loaded()
history = data_io.load_matches({str(matches_path)!r})
annotated, _ = elo.replay_history(data_io.load_ratings({str(ratings_path)!r}), history)
cfg = FitConfig(weights=WeightConfig(reference_date=datetime.date(2021, 6, 7)))
assert fit_team_models(annotated, ["FRA"], cfg).models
loaded()
monte_carlo(models, ratings, fixtures, allocation, n_runs=20, n_workers=2)
loaded()
monte_carlo(
    models, ratings, fixtures, allocation, n_runs=2 * tournament.MIN_RUNS_PER_PROCESS,
    n_workers=2,
)
loaded()
"""
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
            check=True,
        ).stdout
        assert out.splitlines() == [
            "[]", "['scipy']", "['scipy']", "['scipy', 'concurrent.futures.process']"
        ]

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "replay-elo" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "euroforecast" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gof", "--model", "x.json", "--out", "y.csv", "--frobnicate"])
        assert exc.value.code == 2


class TestReplayElo:
    def test_annotates_and_reports(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        out = tmp_path / "annotated.csv"
        code = main(
            [
                "replay-elo",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert "annotated" in capsys.readouterr().out
        annotated = data_io.load_matches(out)
        assert annotated
        assert all(m.elo_a_before is not None for m in annotated)

    def test_deterministic_output_bytes(self, tmp_path, demo_history):
        matches_path, ratings_path = demo_history
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                main(
                    [
                        "replay-elo",
                        "--matches", str(matches_path),
                        "--ratings", str(ratings_path),
                        "--out", str(out),
                    ]
                )
                == EXIT_OK
            )
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_is_io_error(self, tmp_path, demo_history, capsys):
        _, ratings_path = demo_history
        code = main(
            [
                "replay-elo",
                "--matches", str(tmp_path / "absent.csv"),
                "--ratings", str(ratings_path),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == EXIT_IO
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay-elo", "fit"])
    @pytest.mark.parametrize("flag", ["--start", "--end"])
    def test_malformed_window_date_is_config_error(
        self, tmp_path, demo_history, capsys, command, flag
    ):
        matches_path, ratings_path = demo_history
        args = [
            command,
            "--matches", str(matches_path),
            "--ratings", str(ratings_path),
            "--out", str(tmp_path / "out"),
            flag, "2016-13-01",
        ]
        assert main(args + (["--teams", "FRA"] if command == "fit" else [])) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not ISO dates" in err and "Traceback" not in err


    @pytest.mark.parametrize("command", ["replay-elo", "fit"])
    def test_absurd_goal_count_is_config_error(self, tmp_path, demo_history, capsys, command):
        """2,000,000 goals in one match used to overflow the replayed Elo."""
        matches_path, ratings_path = demo_history
        lines = matches_path.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("date,"))
        fields = lines[header + 1].split(",")
        fields[lines[header].split(",").index("goals_a")] = "2000000"
        lines[header + 1] = ",".join(fields)
        broken = tmp_path / "matches.csv"
        broken.write_text("\n".join(lines) + "\n")
        args = [
            command,
            "--matches", str(broken),
            "--ratings", str(ratings_path),
            "--out", str(tmp_path / "out"),
        ]
        assert main(args + (["--teams", "FRA"] if command == "fit" else [])) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"matches.csv:{header + 2}" in err and "at most 200" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k, code", [(1e6, EXIT_CONFIG), (-50, EXIT_CONFIG), (0, EXIT_CONFIG),
                                         (100, EXIT_OK)])
    def test_k_factor_outside_range_is_config_error(self, tmp_path, demo_history, capsys, k, code):
        """K = 1e6 once overflowed the replayed Elo; a negative K inverted every update."""
        matches_path, ratings_path = demo_history
        config = tmp_path / "config.json"
        k_factors = {**DEFAULT_K_FACTORS, "WC": k}
        config.write_text(json.dumps({"reference_date": "2021-06-07", "k_factors": k_factors}))
        out = tmp_path / "out.csv"
        args = ["--matches", str(matches_path), "--ratings", str(ratings_path), "--out", str(out)]
        assert main(["replay-elo", *args, "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == EXIT_CONFIG:
            assert f"K factor 'WC' must lie in (0, 100], got {k}" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["replay-elo", "fit"])
    def test_absurd_seed_rating_is_config_error(self, tmp_path, demo_history, capsys, command):
        """A seed rating of 1,000,000 once overflowed the replayed Elo."""
        matches_path, ratings_path = demo_history
        lines = ratings_path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("AUT,"))
        lines[row] = "AUT,1000000"
        broken = tmp_path / "ratings.csv"
        broken.write_text("\n".join(lines) + "\n")
        args = [
            command,
            "--matches", str(matches_path),
            "--ratings", str(broken),
            "--out", str(tmp_path / "out"),
        ]
        assert main(args + (["--teams", "AUT"] if command == "fit" else [])) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"ratings.csv:{row + 1}: elo must lie in [0, 4000], got 1e+06" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_rating_is_config_error(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        header, *rows = ratings_path.read_text().splitlines()
        rows = ["FRA,nan"] + [r for r in rows if not r.startswith("FRA,")]
        broken = tmp_path / "ratings.csv"
        broken.write_text("\n".join([header] + rows) + "\n")
        code = main(
            [
                "replay-elo",
                "--matches", str(matches_path),
                "--ratings", str(broken),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "ratings.csv:2" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestFit:
    def test_annotated_rating_outside_range_is_config_error(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        annotated = tmp_path / "annotated.csv"
        args = ["--matches", str(matches_path), "--ratings", str(ratings_path)]
        assert main(["replay-elo", *args, "--out", str(annotated)]) == EXIT_OK
        lines = annotated.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("date,"))
        fields = lines[header + 1].split(",")
        fields[lines[header].split(",").index("elo_b_before")] = "4000.5"
        lines[header + 1] = ",".join(fields)
        annotated.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.json"
        code = main(["fit", "--matches", str(annotated), "--teams", "FRA", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"annotated.csv:{header + 2}: elo_b_before must lie in [0, 4000]" in err
        assert not out.exists()

    def test_fit_writes_models(self, fitted_model_file, capsys):
        models, metadata = data_io.load_models(fitted_model_file)
        assert sorted(models) == ["BEL", "FRA", "MKD", "XXH"]
        assert metadata["command"] == "fit"
        for model in models.values():
            assert "attack" in model.diagnostics
            assert "defense" in model.diagnostics

    def test_refit_is_byte_identical(self, tmp_path, demo_history, fitted_model_file):
        matches_path, ratings_path = demo_history
        out = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--teams", "FRA,BEL,MKD,XXH",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.read_bytes() == fitted_model_file.read_bytes()

    def test_gof_export_flag(self, tmp_path, demo_history):
        matches_path, ratings_path = demo_history
        out = tmp_path / "model.json"
        gof = tmp_path / "gof.csv"
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--teams", "FRA,BEL",
                "--out", str(out),
                "--gof-out", str(gof),
            ]
        )
        assert code == EXIT_OK
        text = gof.read_text()
        assert "FRA,attack" in text
        assert "BEL,defense" in text

    def test_unknown_team_fails_with_fit_exit(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        out = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--teams", "FRA,ZZZ",
                "--out", str(out),
            ]
        )
        assert code == EXIT_FIT
        captured = capsys.readouterr()
        assert "ZZZ" in captured.err
        # the model file still carries the teams that did fit
        models, _ = data_io.load_models(out)
        assert "FRA" in models

    def test_zero_total_weight_fails_with_fit_exit(self, tmp_path, demo_history, capsys):
        # at a half period of 10 days, every weight 40 years on underflows to 0
        matches_path, ratings_path = demo_history
        config = tmp_path / "config.json"
        config.write_text('{"reference_date": "2060-01-01", "half_period_days": 10}')
        code = main(
            [
                "fit", "--matches", str(matches_path), "--ratings", str(ratings_path),
                "--teams", "FRA,GER", "--config", str(config), "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert "FRA: FAILED: the" in err and "have a total weight of 0" in err

    def test_overflowing_total_weight_fails_with_fit_exit(
        self, tmp_path, demo_history, capsys, recwarn
    ):
        # each weight is finite, but their sum passes the largest float
        matches_path, ratings_path = demo_history
        config = tmp_path / "config.json"
        table = {kind: 1e308 for kind in ("WC", "CONT", "QUAL", "FRIENDLY")}
        config.write_text(json.dumps({"reference_date": "2021-06-07", "importance_table": table}))
        code = main(
            [
                "fit", "--matches", str(matches_path), "--ratings", str(ratings_path),
                "--teams", "FRA,GER", "--config", str(config), "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == EXIT_FIT
        err = capsys.readouterr().err
        assert "FRA: FAILED: the" in err and "have a total weight of inf" in err
        assert "2 team(s) could not be fitted: FRA, GER" in err
        assert "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_negative_seed_is_config_error(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        out = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--teams", "FRA,BEL",
                "--seed", "-1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fit seed must be non-negative, got -1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_needs_team_source(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "--teams or --fixtures" in capsys.readouterr().err

    def test_teams_without_a_code_is_config_error(self, tmp_path, demo_history, capsys):
        matches_path, ratings_path = demo_history
        out = tmp_path / "model.json"
        code = main(
            [
                "fit", "--matches", str(matches_path), "--ratings", str(ratings_path),
                "--teams", " , ", "--out", str(out),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--teams ' , ' names no team" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestForecast:
    def test_grid_outputs(self, tmp_path, fitted_model_file, demo_history, capsys):
        _, ratings_path = demo_history
        out = tmp_path / "grid.csv"
        json_out = tmp_path / "grid.json"
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--ratings", str(ratings_path),
                "--venue", "FRA",
                "--out", str(out),
                "--json-out", str(json_out),
            ]
        )
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "P(win/draw/win)" in output
        assert "most likely score" in output
        doc = json.loads(json_out.read_text())
        assert doc["team_a"] == "FRA"
        total = sum(sum(row) for row in doc["grid"])
        assert total == pytest.approx(1.0, abs=1e-8)
        assert "# model_sha256: " in out.read_text()

    def test_elo_overrides(self, tmp_path, fitted_model_file):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "MKD",
                "--team-b", "XXH",
                "--elo-a", "1600",
                "--elo-b", "1600",
                "--cap", "8",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        header = [
            l for l in out.read_text().splitlines() if not l.startswith("#")
        ][0]
        assert header == "goals_a," + ",".join(f"b{j}" for j in range(9))

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_lone_override_replaces_its_own_team(
        self, tmp_path, fitted_model_file, demo_history, side
    ):
        _, ratings_path = demo_history
        table = data_io.rating_table(data_io.load_ratings(ratings_path))
        other = {"a": ("b", "BEL"), "b": ("a", "FRA")}[side]

        def grid(name, *flags):
            out = tmp_path / name
            args = ["forecast", "--model", str(fitted_model_file), "--team-a", "FRA",
                    "--team-b", "BEL", "--cap", "8", "--out", str(out), *flags]
            assert main(args) == EXIT_OK
            return [line for line in out.read_text().splitlines() if not line.startswith("#")]

        lone = grid("lone.csv", "--ratings", str(ratings_path), f"--elo-{side}", "1500")
        both = grid(
            "both.csv", f"--elo-{side}", "1500", f"--elo-{other[0]}", repr(table[other[1]])
        )
        rated = grid("rated.csv", "--ratings", str(ratings_path))
        assert lone == both
        assert lone != rated

    def test_manifest_records_the_overrides(self, tmp_path, fitted_model_file, demo_history):
        _, ratings_path = demo_history
        out, json_out = tmp_path / "grid.csv", tmp_path / "grid.json"
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--ratings", str(ratings_path),
                "--elo-b", "1750.5",
                "--out", str(out),
                "--json-out", str(json_out),
            ]
        )
        assert code == EXIT_OK
        header = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert "# elo_b: 1750.5" in header
        assert not any(line.startswith("# elo_a") for line in header)
        assert json.loads(json_out.read_text())["metadata"]["elo_b"] == 1750.5

    def test_team_missing_from_model(self, tmp_path, fitted_model_file, capsys):
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "GER",
                "--elo-a", "2000",
                "--elo-b", "1900",
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "GER" in capsys.readouterr().err

    def test_team_against_itself_is_config_error(
        self, tmp_path, fitted_model_file, demo_history, capsys
    ):
        _, ratings_path = demo_history
        out, json_out = tmp_path / "grid.csv", tmp_path / "grid.json"
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "FRA",
                "--ratings", str(ratings_path),
                "--out", str(out),
                "--json-out", str(json_out),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "a team cannot play itself: FRA" in err
        assert "Traceback" not in err
        assert not out.exists() and not json_out.exists()

    def test_wrong_alpha_count_is_config_error(self, tmp_path, fitted_model_file, capsys):
        doc = json.loads(fitted_model_file.read_text())
        doc["teams"]["BEL"]["nested"]["alpha"].pop()
        model = tmp_path / "short.json"
        model.write_text(json.dumps(doc))
        code = main(
            [
                "forecast",
                "--model", str(model),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--elo-a", "2000",
                "--elo-b", "1900",
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "BEL.nested: 3 alpha values, expected 4" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_absurd_elo_is_config_error(self, tmp_path, fitted_model_file, capsys):
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--elo-a", "1e6",
                "--elo-b", "1900",
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "--elo-a must lie in [0, 4000], got 1e+06" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--elo-a", "9000"), ("--elo-b", "-1"),
                                             ("--elo-b", "nan")])
    def test_elo_override_outside_range_is_config_error(
        self, tmp_path, fitted_model_file, capsys, flag, value
    ):
        """--elo-a 9000 once gave P(win/draw/win) 0.0000 / 0.9992 / 0.0008 with exit 0."""
        overrides = {"--elo-a": "2000", "--elo-b": "1900", flag: value}
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                *(item for pair in overrides.items() for item in pair),
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert f"{flag} must lie in [0, 4000], got {value}" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("cap", ["0", "-1", "201"])
    def test_cap_outside_range_is_config_error(self, tmp_path, fitted_model_file, capsys, cap):
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--elo-a", "2000",
                "--elo-b", "1900",
                "--cap", cap,
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "grid cap must be in 1..200" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_needs_some_elo_source(self, tmp_path, fitted_model_file, capsys):
        code = main(
            [
                "forecast",
                "--model", str(fitted_model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--out", str(tmp_path / "grid.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "--ratings" in capsys.readouterr().err


class TestSimulate:
    def test_smoke_run(self, tmp_path, euro2020_model_file, data_dir, capsys):
        out_dir = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "80",
                "--seed", "3",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "P(champion" in capsys.readouterr().out
        for name in (
            "group_probabilities.csv",
            "stage_probabilities.csv",
            "stage_standard_errors.csv",
        ):
            assert (out_dir / name).exists()
        stage_lines = [
            l
            for l in (out_dir / "stage_probabilities.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(stage_lines) == 1 + 24
        champion_total = sum(float(l.split(",")[1]) for l in stage_lines[1:])
        assert champion_total == pytest.approx(1.0, abs=24 * 5e-7)

    def test_deterministic_across_workers(
        self, tmp_path, euro2020_model_file, data_dir, monkeypatch
    ):
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        outputs = []
        for name, workers in (("one", "1"), ("three", "3")):
            out_dir = tmp_path / name
            code = main(
                [
                    "simulate",
                    "--model", str(euro2020_model_file),
                    "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                    "--allocation", str(data_dir / "euro2020_allocation.csv"),
                    "--ratings", str(data_dir / "euro2020_ratings.csv"),
                    "--n-runs", "60",
                    "--seed", "7",
                    "--workers", workers,
                    "--out-dir", str(out_dir),
                ]
            )
            assert code == EXIT_OK
            outputs.append((out_dir / "stage_probabilities.csv").read_text())
        # worker count appears in the manifest, so compare data rows only
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert strip(outputs[0]) == strip(outputs[1])

    def test_bad_fixture_file_is_config_error(self, tmp_path, euro2020_model_file, data_dir, capsys):
        lines = (data_dir / "euro2020_fixtures.csv").read_text().splitlines()
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines[:-1]) + "\n")
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(broken),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_winner_of_a_group_match_is_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys
    ):
        fixtures = tmp_path / "fixtures.csv"
        fixtures.write_text(
            (data_dir / "euro2020_fixtures.csv").read_text().replace("NED,2A,2B", "NED,W1,2B")
        )
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(fixtures),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "fixtures.csv: match 37: slot W1" in capsys.readouterr().err

    def test_groups_other_than_a_to_f_are_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys
    ):
        fixtures = tmp_path / "fixtures.csv"
        fixtures.write_text(
            rename_groups((data_dir / "euro2020_fixtures.csv").read_text(), "GHIJKL")
        )
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(fixtures),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "fixtures.csv: group stage must cover groups A-F" in capsys.readouterr().err

    def test_absurd_rating_is_config_error(self, tmp_path, euro2020_model_file, data_dir, capsys):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            (data_dir / "euro2020_ratings.csv").read_text().replace("BEL,2100,", "BEL,1000000,")
        )
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(ratings),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "ratings.csv:3: elo must lie in [0, 4000], got 1e+06" in capsys.readouterr().err

    @staticmethod
    def worker_args(command, workers, tmp_path, model_file, data_dir):
        args = [
            command,
            "--model", str(model_file),
            "--fixtures", str(data_dir / "euro2016_fixtures.csv"),
            "--allocation", str(data_dir / "euro2016_allocation.csv"),
            "--ratings", str(data_dir / "euro2016_ratings.csv"),
            "--n-runs", "10",
            "--workers", workers,
        ]
        if command == "simulate":
            return args + ["--out-dir", str(tmp_path / "sim")]
        return args + ["--results", str(data_dir / "euro2016_results.csv"),
                       "--out", str(tmp_path / "metrics.csv")]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_negative_seed_is_config_error(
        self, tmp_path, euro2016_model_file, data_dir, capsys, command, workers
    ):
        args = self.worker_args(command, workers, tmp_path, euro2016_model_file, data_dir)
        assert main([*args, "--seed", "-3"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "master seed must be non-negative, got -3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["attack", "nested"])
    def test_underflowing_mean_is_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys, kind
    ):
        doc = json.loads(euro2020_model_file.read_text())
        doc["teams"]["FRA"][kind]["alpha"][0] = -800.0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(
            [
                "simulate",
                "--model", str(model),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "underflows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("intercept, got", [(709.5, "inf"), (-744.5, "0.0")])
    def test_stage_mean_outside_the_floats_is_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys, intercept, got
    ):
        # each regression's mean is a float; at 709.5 the stronger side's blend
        # overflows, and at -744.5 the extra-time factor rounds it to 0
        doc = json.loads(euro2020_model_file.read_text())
        for team in doc["teams"].values():
            for kind in ("attack", "defense", "nested"):
                team[kind]["alpha"] = [intercept] + [0.0] * (len(team[kind]["alpha"]) - 1)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(
            [
                "simulate",
                "--model", str(model),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"mu must be positive and finite, got {got}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("intercept, got", [(709.5, "inf"), (-744.5, "0.0")])
    def test_stage_mean_outside_the_floats_in_the_callers_range_is_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys, monkeypatch, intercept, got
    ):
        # on 2 workers the calling process plays runs 0-4 while a started
        # process plays 5-9: the caller's error ends the command, and no child
        # outlives it
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        doc = json.loads(euro2020_model_file.read_text())
        for team in doc["teams"].values():
            for kind in ("attack", "defense", "nested"):
                team[kind]["alpha"] = [intercept] + [0.0] * (len(team[kind]["alpha"]) - 1)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(
            [
                "simulate",
                "--model", str(model),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--workers", "2",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"mu must be positive and finite, got {got}" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []

    def test_allocation_without_a_winner_column_is_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys
    ):
        allocation = tmp_path / "allocation.csv"
        allocation.write_text(
            (data_dir / "euro2020_allocation.csv")
            .read_text()
            .replace("combination,1B,1C,1E,1F", "combination,1B,1C,1E,1A")
        )
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(allocation),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "allocation table has no column 1F" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_worker_count_below_one_is_config_error(
        self, tmp_path, euro2016_model_file, data_dir, capsys, command
    ):
        args = self.worker_args(command, "0", tmp_path, euro2016_model_file, data_dir)
        assert main(args) == EXIT_CONFIG
        assert "n_workers" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["65", str(10**6)])
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_worker_count_above_bound_is_config_error(
        self, tmp_path, euro2016_model_file, data_dir, capsys, monkeypatch, command, workers
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        args = self.worker_args(command, workers, tmp_path, euro2016_model_file, data_dir)
        assert main(args) == EXIT_CONFIG
        assert "n_workers" in capsys.readouterr().err


class TestOutOfRangeCoefficients:
    """beta must be at most the fitter's bound BETA_MAX and omega = expit(gamma_log) below 1."""

    @pytest.mark.parametrize(
        "field, value", [("beta", 1000), ("gamma_log", 800), ("beta", 709), ("beta", 6)]
    )
    @pytest.mark.parametrize("command", ["simulate", "forecast"])
    def test_is_config_error(
        self, tmp_path, euro2020_model_file, data_dir, capsys, command, field, value
    ):
        doc = json.loads(euro2020_model_file.read_text())
        doc["teams"]["FRA"]["attack"][field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        if command == "simulate":
            args = [
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
            ]
        else:
            args = [
                "--team-a", "FRA", "--team-b", "GER", "--elo-a", "2000", "--elo-b", "1900",
                "--out", str(tmp_path / "grid.csv"),
            ]
        assert main([command, "--model", str(model), *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.json: malformed coefficients at FRA.attack" in err
        assert "Traceback" not in err


CONFIG_KEYS = [f.name for f in dataclasses.fields(AppConfig)]
JSON_SCALARS = (
    st.integers()
    | st.floats()
    | st.booleans()
    | st.text(max_size=10)
    | st.dates().map(dt.date.isoformat)
)
CONFIG_VALUES = JSON_SCALARS | st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=4)


class TestConfigValues:
    """Whatever a config file holds, a command exits 0, 2 or 4, never with a traceback."""

    @staticmethod
    def forecast(tmp_path, model_file, config) -> int:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        return main(
            [
                "forecast",
                "--model", str(model_file),
                "--team-a", "FRA",
                "--team-b", "BEL",
                "--elo-a", "2000",
                "--elo-b", "1900",
                "--out", str(tmp_path / "grid.csv"),
                "--config", str(path),
            ]
        )

    @pytest.mark.parametrize("value", [-3, 0, 201, True])
    def test_grid_cap_outside_range_is_config_error(
        self, tmp_path, fitted_model_file, capsys, value
    ):
        config = {"reference_date": "2021-06-07", "grid_cap": value}
        assert self.forecast(tmp_path, fitted_model_file, config) == EXIT_CONFIG
        assert "grid" in capsys.readouterr().err

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(config=st.fixed_dictionaries({}, optional=dict.fromkeys(CONFIG_KEYS, CONFIG_VALUES)))
    @example(config={"reference_date": "2021-06-07", "grid_cap": -3})
    @example(config={"reference_date": "2021-06-07", "grid_cap": 10**40})
    def test_any_config_exits_cleanly(self, tmp_path, fitted_model_file, capsys, config):
        code = self.forecast(tmp_path, fitted_model_file, config)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO)
        assert "Traceback" not in capsys.readouterr().err


class TestValidate:
    def test_euro2016_backtest(self, tmp_path, euro2016_model_file, data_dir, capsys):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "validate",
                "--model", str(euro2016_model_file),
                "--fixtures", str(data_dir / "euro2016_fixtures.csv"),
                "--allocation", str(data_dir / "euro2016_allocation.csv"),
                "--ratings", str(data_dir / "euro2016_ratings.csv"),
                "--results", str(data_dir / "euro2016_results.csv"),
                "--n-runs", "60",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "MLD" in output and "Brier" in output and "RPS" in output
        text = out.read_text()
        assert "# total_mld: " in text
        assert "# total_brier: " in text
        assert "# total_rps: " in text


    def test_team_mismatch_fails_before_simulating(
        self, tmp_path, euro2020_model_file, data_dir, capsys, monkeypatch
    ):
        """EURO 2016 results against EURO 2020 fixtures once simulated every run first."""

        def no_simulation(*args, **kwargs):
            raise AssertionError("monte_carlo was called")

        monkeypatch.setattr(tournament, "monte_carlo", no_simulation)
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "validate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--results", str(data_dir / "euro2016_results.csv"),
                "--n-runs", "20000",
                "--out", str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "team sets differ" in capsys.readouterr().err
        assert not out.exists()


class TestGof:
    def test_report(self, tmp_path, fitted_model_file, capsys):
        out = tmp_path / "gof.csv"
        code = main(["gof", "--model", str(fitted_model_file), "--out", str(out)])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "regression" in output
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 3 * 4

    def test_missing_model_is_io_error(self, tmp_path, capsys):
        code = main(
            ["gof", "--model", str(tmp_path / "absent.json"), "--out", str(tmp_path / "g.csv")]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(format_version=True), "unsupported model format version"),
            (
                lambda doc: doc["teams"]["FRA"]["attack"].update(alpha="123"),
                "malformed coefficients at FRA.attack: alpha must be a list",
            ),
        ],
        ids=["format_version_true", "alpha_string"],
    )
    def test_model_values_of_the_wrong_json_type_are_config_errors(
        self, tmp_path, fitted_model_file, capsys, edit, message
    ):
        doc = json.loads(fitted_model_file.read_text())
        edit(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(["gof", "--model", str(model), "--out", str(tmp_path / "g.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"model.json: {message}" in err
        assert "Traceback" not in err


class TestConfigResolution:
    def test_bad_config_flag(self, tmp_path, euro2020_model_file, data_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reference_date": "2021-06-07", "bogus": 1}')
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
                "--config", str(cfg),
            ]
        )
        assert code == EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_flag_is_io_error(self, tmp_path, euro2020_model_file, data_dir):
        code = main(
            [
                "simulate",
                "--model", str(euro2020_model_file),
                "--fixtures", str(data_dir / "euro2020_fixtures.csv"),
                "--allocation", str(data_dir / "euro2020_allocation.csv"),
                "--ratings", str(data_dir / "euro2020_ratings.csv"),
                "--n-runs", "10",
                "--out-dir", str(tmp_path / "sim"),
                "--config", str(tmp_path / "absent.json"),
            ]
        )
        assert code == EXIT_IO

    def test_env_dir_config_used_for_fit(self, tmp_path, demo_history, monkeypatch):
        matches_path, ratings_path = demo_history
        env_dir = tmp_path / "confdir"
        env_dir.mkdir()
        (env_dir / "config.json").write_text('{"reference_date": "2019-01-01"}')
        monkeypatch.setenv(CONFIG_DIR_ENV, str(env_dir))
        out = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--teams", "FRA,BEL",
                "--out", str(out),
                "--end", "2018-12-31",
            ]
        )
        assert code == EXIT_OK
        _, metadata = data_io.load_models(out)
        assert metadata["reference_date"] == "2019-01-01"

    def test_config_flag_beats_env(self, tmp_path, demo_history, monkeypatch):
        matches_path, ratings_path = demo_history
        env_dir = tmp_path / "confdir"
        env_dir.mkdir()
        (env_dir / "config.json").write_text('{"reference_date": "2019-01-01"}')
        monkeypatch.setenv(CONFIG_DIR_ENV, str(env_dir))
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text('{"reference_date": "2020-02-02"}')
        out = tmp_path / "model.json"
        code = main(
            [
                "fit",
                "--matches", str(matches_path),
                "--ratings", str(ratings_path),
                "--teams", "FRA,BEL",
                "--out", str(out),
                "--end", "2019-12-31",
                "--config", str(flag_cfg),
            ]
        )
        assert code == EXIT_OK
        _, metadata = data_io.load_models(out)
        assert metadata["reference_date"] == "2020-02-02"


HISTORY_2016 = """\
date,team_a,team_b,goals_a,goals_b,match_type,venue_country
2015-09-04,FRA,POR,1,0,FRIENDLY,POR
2015-10-08,GER,IRL,0,1,QUAL,IRL
2016-03-26,ENG,GER,2,3,FRIENDLY,GER
2016-06-01,ITA,SWE,1,1,FRIENDLY,NEUTRAL
"""

# the input files each command reads, by flag
COMMAND_FILES = {
    "replay-elo": ("matches", "ratings", "config"),
    "fit": ("matches", "ratings", "fixtures", "config"),
    "forecast": ("model", "ratings", "config"),
    "simulate": ("model", "fixtures", "allocation", "ratings", "config"),
    "validate": ("model", "fixtures", "allocation", "ratings", "results", "config"),
    "gof": ("model",),
}


@pytest.fixture(scope="module")
def good_files(euro2016_model_file, data_dir):
    """The bytes of a valid EURO 2016 input file, by flag."""
    return {
        "matches": HISTORY_2016.encode(),
        "ratings": (data_dir / "euro2016_ratings.csv").read_bytes(),
        "fixtures": (data_dir / "euro2016_fixtures.csv").read_bytes(),
        "allocation": (data_dir / "euro2016_allocation.csv").read_bytes(),
        "results": (data_dir / "euro2016_results.csv").read_bytes(),
        "config": (data_dir / "default_config.json").read_bytes(),
        "model": euro2016_model_file.read_bytes(),
    }


def run_on_files(root, command, files):
    """``main`` for ``command`` on input files of the given bytes; (exit code, stderr)."""
    args = [command]
    for flag in COMMAND_FILES[command]:
        path = root / flag
        path.write_bytes(files[flag])
        args += [f"--{flag}", str(path)]
    args += {
        "replay-elo": ["--out", str(root / "annotated.csv")],
        "fit": ["--out", str(root / "fitted.json")],
        "forecast": ["--team-a", "FRA", "--team-b", "GER", "--out", str(root / "grid.csv")],
        "simulate": ["--n-runs", "2", "--out-dir", str(root / "sim")],
        "validate": ["--n-runs", "2", "--out", str(root / "metrics.csv")],
        "gof": ["--out", str(root / "gof.csv")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


class TestHostileFiles:
    """A file that is not what its flag expects exits 2 and names the file."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("replay-elo", "matches"),
            ("fit", "fixtures"),
            ("forecast", "config"),
            ("simulate", "ratings"),
            ("simulate", "allocation"),
            ("validate", "results"),
            ("gof", "model"),
        ],
    )
    def test_not_utf8_is_config_error(self, tmp_path, good_files, command, flag):
        files = {**good_files, flag: b"\xff\xfe" + good_files[flag]}
        code, err = run_on_files(tmp_path, command, files)
        assert code == EXIT_CONFIG
        assert f"{tmp_path / flag}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            "[1]",
            '"x"',
            '{"format_version": 1, "teams": []}',
            '{"format_version": 1, "teams": {"FRA": []}}',
        ],
    )
    @pytest.mark.parametrize("command", ["gof", "simulate"])
    def test_model_of_the_wrong_shape_is_config_error(self, tmp_path, good_files, command, doc):
        code, err = run_on_files(tmp_path, command, {**good_files, "model": doc.encode()})
        assert code == EXIT_CONFIG
        assert f"{tmp_path / 'model'}: " in err

    @pytest.mark.parametrize(
        "field, value",
        [("p_value", "nan"), ("df", 3.7), ("statistic", True), ("nested_fallback", "false")],
    )
    def test_malformed_diagnostics_are_config_error(self, tmp_path, good_files, field, value):
        # gof once exited 0 on these, writing nan and df 3
        doc = json.loads(good_files["model"])
        model = doc["teams"]["FRA"]
        model["diagnostics"] = {"attack": {"statistic": 2.5, "df": 3, "p_value": 0.48, "n_obs": 5}}
        (model if field == "nested_fallback" else model["diagnostics"]["attack"])[field] = value
        code, err = run_on_files(tmp_path, "gof", {**good_files, "model": json.dumps(doc).encode()})
        assert code == EXIT_CONFIG
        assert f"{tmp_path / 'model'}: malformed model for team FRA: {field}" in err
        assert not (tmp_path / "gof.csv").exists()

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data(), command=st.sampled_from(sorted(COMMAND_FILES)))
    def test_any_bytes_exit_cleanly(self, tmp_path, good_files, data, command):
        flag = data.draw(st.sampled_from(COMMAND_FILES[command]), label="flag")
        good = good_files[flag]
        start = data.draw(st.integers(0, len(good)), label="start")
        end = data.draw(st.integers(start, min(len(good), start + 64)), label="end")
        noise = data.draw(st.binary(max_size=64), label="noise")
        lines = good.split(b"\n")
        line = data.draw(st.integers(0, len(lines) - 1), label="line")
        cells = lines[line].split(b",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="cell")] = noise
        lines[line] = b",".join(cells)
        hostile = data.draw(
            st.sampled_from([noise, good[:start] + noise + good[end:], b"\n".join(lines)])
        )
        code, err = run_on_files(tmp_path, command, {**good_files, flag: hostile})
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FIT, EXIT_IO)
        assert "Traceback" not in err
