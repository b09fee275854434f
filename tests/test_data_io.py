"""Readers, writers and their failure modes."""

from __future__ import annotations

import datetime as dt
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euroforecast import data_io
from euroforecast.data_io import (
    AppConfig,
    MatchRecord,
    export_gof_report,
    export_group_table,
    export_metrics_report,
    export_score_grid,
    export_score_grid_json,
    export_stage_standard_errors,
    export_stage_table,
    file_sha256,
    load_allocation,
    load_config,
    load_fixtures,
    load_matches,
    load_models,
    load_ratings,
    load_realized_results,
    save_matches,
    save_models,
)
from euroforecast.errors import ConfigError, DataError, FileAccessError, ParameterError
from euroforecast.forecast import score_grid
from euroforecast.metrics import distributions_from_aggregate, score_report
from euroforecast.regression import (
    BETA_MAX,
    FitDiagnostics,
    RegressionCoefficients,
    TeamModel,
)
from euroforecast.tournament import group_teams, monte_carlo

from conftest import build_team_model, rename_groups

GOOD_MATCHES = """\
# source: unit test
date,team_a,team_b,goals_a,goals_b,match_type,venue_country
2021-03-25,FRA,UKR,1,1,QUAL,FRA
2021-03-28,GER,ROU,1,0,QUAL,ROU
2020-11-11,FRA,FIN,0,2,FRIENDLY,FRA
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadMatches:
    def test_sorted_by_date(self, tmp_path):
        path = write(tmp_path, "m.csv", GOOD_MATCHES)
        matches = load_matches(path)
        assert [m.date.isoformat() for m in matches] == [
            "2020-11-11",
            "2021-03-25",
            "2021-03-28",
        ]
        assert matches[1].team_a == "FRA"
        assert matches[1].venue_country == "FRA"
        assert matches[0].elo_a_before is None

    def test_window_filter(self, tmp_path):
        path = write(tmp_path, "m.csv", GOOD_MATCHES)
        matches = load_matches(path, window=(dt.date(2021, 1, 1), dt.date(2021, 3, 26)))
        assert len(matches) == 1
        assert matches[0].team_b == "UKR"

    def test_empty_window_warns(self, tmp_path):
        path = write(tmp_path, "m.csv", GOOD_MATCHES)
        with pytest.warns(UserWarning, match="window"):
            matches = load_matches(path, window=(dt.date(1990, 1, 1), dt.date(1990, 2, 1)))
        assert matches == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileAccessError, match="not found"):
            load_matches(tmp_path / "absent.csv")

    def test_malformed_date_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country\n"
            "2021-03-25,FRA,UKR,1,1,QUAL,FRA\n"
            "25/03/2021,GER,ROU,1,0,QUAL,ROU\n",
        )
        with pytest.raises(DataError, match=r"m\.csv:3.*malformed date"):
            load_matches(path)

    def test_malformed_goals_named(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country\n"
            "2021-03-25,FRA,UKR,one,1,QUAL,FRA\n",
        )
        with pytest.raises(DataError, match="goals_a"):
            load_matches(path)

    def test_negative_goals_rejected_with_line(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country\n"
            "2021-03-25,FRA,UKR,-1,1,QUAL,FRA\n",
        )
        with pytest.raises(DataError, match=r"m\.csv:2.*non-negative"):
            load_matches(path)

    def test_self_match_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country\n"
            "2021-03-25,FRA,FRA,1,1,QUAL,FRA\n",
        )
        with pytest.raises(DataError, match="itself"):
            load_matches(path)

    def test_duplicate_lists_both_lines(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country\n"
            "2021-03-25,FRA,UKR,1,1,QUAL,FRA\n"
            "2021-03-25,FRA,UKR,2,0,QUAL,FRA\n",
        )
        with pytest.raises(DataError, match=r"m\.csv:3.*line 2"):
            load_matches(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country,extra\n",
        )
        with pytest.raises(DataError, match="unknown columns: extra"):
            load_matches(path)

    def test_missing_column_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "date,team_a,team_b\n")
        with pytest.raises(DataError, match="missing required columns"):
            load_matches(path)

    def test_field_count_mismatch(self, tmp_path):
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country\n"
            "2021-03-25,FRA,UKR,1,1,QUAL\n",
        )
        with pytest.raises(DataError, match="expected 7 fields, got 6"):
            load_matches(path)

    @pytest.mark.parametrize("column", ["elo_a_before", "elo_b_before"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_elo_rejected_with_line(self, tmp_path, column, value):
        elo = {"elo_a_before": "2087.0", "elo_b_before": "1850.5", column: value}
        path = write(
            tmp_path,
            "m.csv",
            "date,team_a,team_b,goals_a,goals_b,match_type,venue_country,"
            "elo_a_before,elo_b_before\n"
            "2021-03-25,FRA,UKR,1,1,QUAL,FRA,2087.0,1850.5\n"
            f"2021-03-28,GER,ROU,1,0,QUAL,ROU,{elo['elo_a_before']},{elo['elo_b_before']}\n",
        )
        with pytest.raises(DataError, match=rf"m\.csv:3.*non-finite.*{column}"):
            load_matches(path)

    def test_round_trip_preserves_annotations(self, tmp_path):
        matches = [
            MatchRecord(
                date=dt.date(2021, 3, 25),
                team_a="FRA",
                team_b="UKR",
                goals_a=1,
                goals_b=1,
                match_type="QUAL",
                venue_country="FRA",
                elo_a_before=2087.0,
                elo_b_before=1850.5,
            )
        ]
        path = tmp_path / "out.csv"
        save_matches(path, matches, metadata={"tool": "test"})
        assert load_matches(path) == matches
        assert path.read_text().startswith("# tool: test\n")


class TestLoadRatings:
    def test_packaged_file(self, data_dir):
        ratings = load_ratings(data_dir / "euro2020_ratings.csv")
        table = data_io.rating_table(ratings)
        assert len(table) == 24
        assert table["BEL"] == 2100.0

    def test_duplicate_team(self, tmp_path):
        path = write(tmp_path, "r.csv", "team,elo\nFRA,2000\nFRA,2001\n")
        with pytest.raises(DataError, match="duplicate rating"):
            load_ratings(path)

    def test_empty(self, tmp_path):
        path = write(tmp_path, "r.csv", "team,elo\n")
        with pytest.raises(DataError, match="no rows"):
            load_ratings(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_elo_rejected_with_line(self, tmp_path, value):
        path = write(tmp_path, "r.csv", f"team,elo\nGER,2000\nFRA,{value}\n")
        with pytest.raises(DataError, match=r"r\.csv:3.*non-finite.*elo"):
            load_ratings(path)


class TestLoadFixtures:
    def test_packaged_files_validate(self, data_dir):
        for name in ("euro2020_fixtures.csv", "euro2016_fixtures.csv"):
            fixtures = load_fixtures(data_dir / name)
            assert len(fixtures) == 51

    def test_validation_failure_carries_path(self, tmp_path, data_dir):
        lines = (data_dir / "euro2020_fixtures.csv").read_text().splitlines()
        path = write(tmp_path, "f.csv", "\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataError, match=r"f\.csv"):
            load_fixtures(path)

    def test_groups_must_be_a_to_f(self, tmp_path, data_dir):
        # the allocation table and its format know groups A-F only
        text = rename_groups((data_dir / "euro2020_fixtures.csv").read_text(), "GHIJKL")
        path = write(tmp_path, "f.csv", text)
        with pytest.raises(DataError, match=r"f\.csv: group stage must cover groups A-F"):
            load_fixtures(path)

    def test_winner_slot_must_name_a_knockout_match(self, tmp_path, data_dir):
        # match 1 is a group match, so W1 names no knockout winner
        text = (data_dir / "euro2020_fixtures.csv").read_text()
        path = write(tmp_path, "f.csv", text.replace("NED,2A,2B", "NED,W1,2B"))
        with pytest.raises(DataError, match=r"f\.csv: match 37: slot W1 must reference"):
            load_fixtures(path)


class TestLoadAllocation:
    def test_packaged_tables(self, data_dir):
        for name in ("euro2020_allocation.csv", "euro2016_allocation.csv"):
            table = load_allocation(data_dir / name)
            assert len(table) == 15

    def test_real_assignments(self, data_dir):
        table = load_allocation(data_dir / "euro2020_allocation.csv")
        assert table["ACDF"] == {"1B": "F", "1C": "D", "1E": "C", "1F": "A"}
        table16 = load_allocation(data_dir / "euro2016_allocation.csv")
        assert table16["BCEF"] == {"1A": "E", "1B": "C", "1C": "B", "1D": "F"}

    def test_combination_key_is_sorted(self, tmp_path, data_dir):
        text = (data_dir / "euro2020_allocation.csv").read_text()
        scrambled = text.replace("ACDF,", "FDCA,")
        path = write(tmp_path, "a.csv", scrambled)
        table = load_allocation(path)
        assert "ACDF" in table

    def test_header_must_start_with_combination(self, tmp_path):
        path = write(tmp_path, "a.csv", "combo,1B\nAB,A\n")
        with pytest.raises(DataError, match="combination"):
            load_allocation(path)

    def test_duplicate_combination(self, tmp_path, data_dir):
        text = (data_dir / "euro2020_allocation.csv").read_text()
        lines = text.splitlines()
        path = write(tmp_path, "a.csv", "\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(DataError, match="duplicate combination"):
            load_allocation(path)


class TestLoadRealizedResults:
    def test_packaged_euro2016(self, data_dir):
        ranks = load_realized_results(data_dir / "euro2016_results.csv")
        assert len(ranks) == 24
        assert ranks["POR"] == 1
        assert ranks["FRA"] == 2
        assert ranks["WAL"] == 3

    def test_rank_out_of_range(self, tmp_path):
        path = write(tmp_path, "res.csv", "team,rank\nFRA,7\n")
        with pytest.raises(DataError, match="1..6"):
            load_realized_results(path)

    def test_24_team_count_check(self, tmp_path, data_dir):
        text = (data_dir / "euro2016_results.csv").read_text()
        path = write(tmp_path, "res.csv", text.replace("WAL,3", "WAL,2"))
        with pytest.raises(DataError, match="counts"):
            load_realized_results(path)

    def test_partial_sets_allowed(self, tmp_path):
        path = write(tmp_path, "res.csv", "team,rank\nFRA,1\nGER,2\n")
        assert load_realized_results(path) == {"FRA": 1, "GER": 2}


class TestLoadConfig:
    def test_packaged_default(self, data_dir):
        cfg = load_config(data_dir / "default_config.json")
        assert cfg.reference_date == dt.date(2021, 6, 7)
        assert cfg.half_period_days == 1095
        assert cfg.importance_table["WC"] == 4.0
        assert cfg.k_factors["FRIENDLY"] == 20.0
        assert cfg.grid_cap == 15

    def test_packaged_default_is_the_code_default(self, data_dir):
        cfg = load_config(data_dir / "default_config.json")
        assert cfg == AppConfig(reference_date=dt.date(2021, 6, 7))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid_cap", True),
            ("half_period_days", False),
            ("min_nested_obs", True),
            ("k_factors", {"CONT": True}),
            ("importance_table", {"WC": False}),
            ("k_factors", {"CONT": math.nan}),
            ("importance_table", {"WC": math.inf}),
        ],
    )
    def test_booleans_and_non_finite_numbers_rejected(self, tmp_path, key, value):
        path = write(tmp_path, "c.json", json.dumps({"reference_date": "2016-06-10", key: value}))
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_minimal(self, tmp_path):
        path = write(tmp_path, "c.json", '{"reference_date": "2016-06-10"}')
        cfg = load_config(path)
        assert cfg.reference_date == dt.date(2016, 6, 10)
        assert cfg.half_period_days == 1095

    def test_unknown_key(self, tmp_path):
        path = write(tmp_path, "c.json", '{"reference_date": "2016-06-10", "decay": 1}')
        with pytest.raises(ConfigError, match="decay"):
            load_config(path)

    def test_missing_reference_date(self, tmp_path):
        path = write(tmp_path, "c.json", '{"half_period_days": 30}')
        with pytest.raises(ConfigError, match="reference_date"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "c.json", "{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = write(tmp_path, "c.json", "[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)

    def test_bad_table_type(self, tmp_path):
        path = write(
            tmp_path, "c.json",
            '{"reference_date": "2016-06-10", "k_factors": {"WC": "high"}}',
        )
        with pytest.raises(ConfigError, match="k_factors"):
            load_config(path)

    def test_bad_int_type(self, tmp_path):
        path = write(
            tmp_path, "c.json",
            '{"reference_date": "2016-06-10", "grid_cap": 15.5}',
        )
        with pytest.raises(ConfigError, match="grid_cap"):
            load_config(path)

    def test_weight_config_view(self, tmp_path):
        path = write(tmp_path, "c.json", '{"reference_date": "2016-06-10"}')
        wcfg = load_config(path).weight_config()
        assert wcfg.reference_date == dt.date(2016, 6, 10)


def two_models():
    a = build_team_model("FRA", 2087.0)
    a = TeamModel(
        team=a.team,
        attack=a.attack,
        defense=a.defense,
        nested=a.nested,
        diagnostics={
            "attack": FitDiagnostics(statistic=12.5, df=11, p_value=0.32, n_obs=14)
        },
        nested_fallback=False,
    )
    b = build_team_model("GER", 1936.0)
    b = TeamModel(
        team=b.team,
        attack=b.attack,
        defense=b.defense,
        nested=RegressionCoefficients(
            alpha=b.attack.alpha + (0.0,), beta=b.attack.beta, gamma_log=b.attack.gamma_log
        ),
        diagnostics={},
        nested_fallback=True,
    )
    return {"FRA": a, "GER": b}


# the accepted range of a model file's coefficients (docs/FORMATS.md):
# beta up to BETA_MAX, and omega = expit(gamma_log) below 1, which holds
# up to gamma_log 36.7368
GAMMA_LOG_MAX = 36.73
OUT_OF_RANGE = {
    "alpha": st.sampled_from([math.nan, math.inf, -math.inf]),
    "beta": st.floats(min_value=BETA_MAX, exclude_min=True) | st.just(math.nan),
    "gamma_log": st.floats(min_value=36.74) | st.just(math.nan),
}


class TestModelFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        models = two_models()
        path = tmp_path / "models.json"
        save_models(path, models, metadata={"seed": 1})
        loaded, metadata = load_models(path)
        assert metadata == {"seed": 1}
        assert loaded == models

    def test_version_check(self, tmp_path):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="format version"):
            load_models(path)

    def test_malformed_coefficients(self, tmp_path):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        del doc["teams"]["FRA"]["attack"]["beta"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="FRA"):
            load_models(path)

    @pytest.mark.parametrize(
        "kind, count", [("attack", 2), ("defense", 4), ("nested", 3), ("nested", 5)]
    )
    def test_wrong_alpha_count(self, tmp_path, kind, count):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["GER"][kind]["alpha"] = [0.1] * count
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"GER\.{kind}: {count} alpha values, expected"):
            load_models(path)

    @pytest.mark.parametrize(
        "field, value", [("beta", 1000.0), ("gamma_log", 800.0), ("beta", math.nan)]
    )
    def test_out_of_range_coefficients_rejected(self, tmp_path, field, value):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["FRA"]["attack"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"models\.json: malformed coefficients at FRA\.attack"):
            load_models(path)

    def test_gamma_log_below_the_exp_range_loads_as_omega_zero(self, tmp_path):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["FRA"]["attack"]["gamma_log"] = -800
        path.write_text(json.dumps(doc))
        loaded, _ = load_models(path)
        assert loaded["FRA"].attack.omega == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", "123"), ("alpha", [0.1, "2", 0.0]), ("alpha", [True, 0.0, 0.0]),
         ("beta", "-2"), ("gamma_log", False)],
    )
    def test_coefficients_that_are_not_json_numbers_rejected(self, tmp_path, field, value):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["FRA"]["attack"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"models\.json: malformed coefficients at FRA\.attack: {field}"):
            load_models(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("p_value", "nan", "p_value must be a number"),
            ("p_value", math.nan, "p_value must be finite"),
            ("statistic", True, "statistic must be a number"),
            ("statistic", -math.inf, "statistic must be finite"),
            ("df", 3.7, "df must be an integer"),
            ("n_obs", 14.0, "n_obs must be an integer"),
        ],
    )
    def test_diagnostics_checked_like_the_coefficients(self, tmp_path, field, value, message):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["FRA"]["diagnostics"]["attack"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=rf"models\.json: malformed model for team FRA: {message}"):
            load_models(path)

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_nested_fallback_must_be_a_json_boolean(self, tmp_path, value):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["GER"]["nested_fallback"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="team GER: nested_fallback must be true or false"):
            load_models(path)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_format_version_must_be_the_integer_1(self, tmp_path, version):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"models\.json: unsupported model format version"):
            load_models(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileAccessError):
            load_models(tmp_path / "absent.json")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_coefficients_outside_the_accepted_range_rejected(self, data):
        field = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        coeffs = {"alpha": (0.1, 0.0, 0.0), "beta": -2.0, "gamma_log": -3.0}
        value = data.draw(OUT_OF_RANGE[field])
        coeffs[field] = (0.1, value, 0.0) if field == "alpha" else value
        with pytest.raises(ParameterError):
            RegressionCoefficients(**coeffs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_finite_models_round_trip_bit_exact(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        count = st.integers(min_value=0, max_value=2**53)

        def coeffs(p):
            return RegressionCoefficients(
                alpha=tuple(data.draw(st.lists(finite, min_size=p, max_size=p))),
                beta=data.draw(st.floats(max_value=BETA_MAX, allow_infinity=False)),
                gamma_log=data.draw(st.floats(max_value=GAMMA_LOG_MAX, allow_infinity=False)),
            )

        teams = data.draw(st.sets(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=3, max_size=3),
                                  max_size=4))
        models = {}
        for team in sorted(teams):
            kinds = data.draw(st.sets(st.sampled_from(["attack", "defense", "nested"])))
            models[team] = TeamModel(
                team=team,
                attack=coeffs(3),
                defense=coeffs(3),
                nested=coeffs(4),
                diagnostics={
                    kind: FitDiagnostics(data.draw(finite), data.draw(count),
                                         data.draw(finite), data.draw(count))
                    for kind in sorted(kinds)
                },
                nested_fallback=data.draw(st.booleans()),
            )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            save_models(first, models, metadata={"command": "fit"})
            loaded, metadata = load_models(first)
            assert loaded == models
            # repr also tells -0.0 from 0.0
            assert {t: repr(m) for t, m in loaded.items()} == {
                t: repr(m) for t, m in models.items()
            }
            save_models(second, loaded, metadata)
            assert second.read_bytes() == first.read_bytes()


@pytest.fixture(scope="module")
def small_aggregate(euro2020, euro_models):
    ratings, fixtures, allocation = euro2020
    return monte_carlo(
        euro_models, ratings, fixtures, allocation, n_runs=20, master_seed=5
    )


def data_lines(path):
    return [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


LOADERS = [
    (load_matches, DataError),
    (load_ratings, DataError),
    (load_fixtures, DataError),
    (load_allocation, DataError),
    (load_realized_results, DataError),
    (load_config, ConfigError),
    (load_models, DataError),
]


class TestUnreadableContent:
    @pytest.mark.parametrize("loader, error", LOADERS)
    def test_not_utf8(self, tmp_path, loader, error):
        path = tmp_path / "input"
        path.write_bytes(b"team,elo\nFRA,\xff\n")
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            loader(path)

    @pytest.mark.parametrize("loader, error", LOADERS[:5])
    def test_field_beyond_the_csv_limit(self, tmp_path, loader, error):
        path = tmp_path / "input"
        path.write_text("9" * 200_000 + "\n")
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            loader(path)

    @pytest.mark.parametrize("loader, error", LOADERS[5:])
    def test_nesting_beyond_the_json_limit(self, tmp_path, loader, error):
        path = tmp_path / "input"
        path.write_text("[" * 100_000)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            loader(path)

    @pytest.mark.parametrize(
        "doc",
        [
            "[1]",
            '"x"',
            '{"format_version": 1, "teams": []}',
            '{"format_version": 1, "teams": {"FRA": []}}',
        ],
    )
    def test_model_file_of_the_wrong_shape(self, tmp_path, doc):
        path = write(tmp_path, "models.json", doc)
        with pytest.raises(DataError, match=r"models\.json: "):
            load_models(path)

    def test_diagnostics_of_the_wrong_shape(self, tmp_path):
        path = tmp_path / "models.json"
        save_models(path, two_models())
        doc = json.loads(path.read_text())
        doc["teams"]["FRA"]["diagnostics"] = []
        infinite_df = {"statistic": 1, "df": math.inf, "p_value": 1, "n_obs": 1}
        doc["teams"]["GER"]["diagnostics"] = {"attack": infinite_df}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed model for team FRA"):
            load_models(path)
        del doc["teams"]["FRA"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed model for team GER"):
            load_models(path)


class TestExports:
    def test_group_table_shape(self, tmp_path, small_aggregate, euro2020):
        _, fixtures, _ = euro2020
        path = tmp_path / "groups.csv"
        export_group_table(path, small_aggregate, group_teams(fixtures), {"seed": 5})
        lines = data_lines(path)
        header = lines[0].split(",")
        assert header == [
            "group", "team", "group_first", "group_second", "third_qualified", "eliminated",
        ]
        assert len(lines) == 1 + 24
        first = lines[1].split(",")
        assert first[0] == "A"
        for cell in first[2:]:
            assert len(cell.split(".")[1]) == 6

    def test_group_rows_sum_to_one(self, tmp_path, small_aggregate, euro2020):
        _, fixtures, _ = euro2020
        path = tmp_path / "groups.csv"
        export_group_table(path, small_aggregate, group_teams(fixtures))
        for line in data_lines(path)[1:]:
            cells = line.split(",")
            assert sum(float(c) for c in cells[2:]) == pytest.approx(1.0, abs=5e-6)

    def test_stage_table_sorted_by_champion(self, tmp_path, small_aggregate):
        path = tmp_path / "stages.csv"
        export_stage_table(path, small_aggregate, {"seed": 5})
        lines = data_lines(path)
        assert lines[0].split(",") == [
            "team", "champion", "final", "semifinal", "quarterfinal", "last16",
        ]
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert probs == sorted(probs, reverse=True)
        assert path.read_text().startswith("# seed: 5\n")

    def test_standard_errors_match_shape(self, tmp_path, small_aggregate):
        table = tmp_path / "stages.csv"
        errors = tmp_path / "se.csv"
        export_stage_table(table, small_aggregate)
        export_stage_standard_errors(errors, small_aggregate)
        t_lines, e_lines = data_lines(table), data_lines(errors)
        assert len(t_lines) == len(e_lines)
        assert [l.split(",")[0] for l in t_lines] == [l.split(",")[0] for l in e_lines]
        # p in {0, 1} has zero binomial error
        for line in e_lines[1:]:
            for cell in line.split(",")[1:]:
                assert 0.0 <= float(cell) <= 0.5

    def test_score_grid_csv(self, tmp_path):
        models = two_models()
        f = score_grid(models["FRA"], models["GER"], 2087.0, 1936.0, "GER")
        path = tmp_path / "grid.csv"
        export_score_grid(path, f)
        lines = data_lines(path)
        assert lines[0] == "goals_a," + ",".join(f"b{j}" for j in range(16))
        assert len(lines) == 17
        total = sum(
            float(c) for line in lines[1:] for c in line.split(",")[1:]
        )
        assert total == pytest.approx(1.0, abs=2e-4)
        text = path.read_text()
        assert "# team_a: FRA" in text
        assert "# stronger: FRA" in text

    def test_score_grid_json_round_trip(self, tmp_path):
        models = two_models()
        f = score_grid(models["FRA"], models["GER"], 2087.0, 1936.0)
        path = tmp_path / "grid.json"
        export_score_grid_json(path, f, {"note": "x"})
        doc = json.loads(path.read_text())
        assert doc["team_a"] == "FRA"
        assert doc["cap"] == 15
        grid = np.array(doc["grid"])
        assert grid.shape == (16, 16)
        assert grid.sum() == pytest.approx(1.0, abs=1e-8)

    def test_gof_report_marks_fallback(self, tmp_path):
        path = tmp_path / "gof.csv"
        export_gof_report(path, two_models())
        lines = data_lines(path)
        assert lines[0].split(",")[:2] == ["team", "regression"]
        assert len(lines) == 1 + 6
        by_key = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        assert by_key[("FRA", "attack")][2] == "12.500000"
        assert by_key[("GER", "nested")][6] == "fallback"

    def test_metrics_report_totals_in_metadata(self, tmp_path, small_aggregate):
        dists = distributions_from_aggregate(small_aggregate)
        realized = {t: 6 for t in small_aggregate.teams}
        realized["BEL"], realized["FRA"], realized["ESP"] = 1, 2, 3
        realized["ITA"] = 3
        realized["POR"] = realized["ENG"] = realized["NED"] = realized["DEN"] = 4
        for t in ("GER", "SUI", "CRO", "SWE", "UKR", "WAL", "POL", "TUR"):
            realized[t] = 5
        report = score_report(dists, realized)
        path = tmp_path / "metrics.csv"
        export_metrics_report(path, report)
        text = path.read_text()
        assert f"# total_mld: {report.total_mld:.6f}" in text
        assert f"# total_brier: {report.total_brier:.6f}" in text
        assert f"# total_rps: {report.total_rps:.6f}" in text
        assert len(data_lines(path)) == 1 + 24


class TestHashing:
    def test_sha256_stable(self, tmp_path):
        path = write(tmp_path, "x.txt", "abc")
        assert file_sha256(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileAccessError):
            file_sha256(tmp_path / "absent")
