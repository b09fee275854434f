"""Elo engine: expectancy identities, multipliers, updates, history replay."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euroforecast.data_io import MatchRecord
from euroforecast.elo import (
    DEFAULT_K_FACTORS,
    ELO_RANGE,
    EloRating,
    expected_score,
    expected_scores,
    goal_multiplier,
    replay_history,
    update_pair,
    update_pairs,
)
from euroforecast.errors import DataError, ParameterError


class TestExpectedScore:
    def test_equal_ratings(self):
        assert expected_score(1800.0, 1800.0) == 0.5

    def test_400_point_gap(self):
        # 10/11 by the closed form
        assert expected_score(1900.0, 1500.0) == pytest.approx(10.0 / 11.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(d=st.floats(-1000, 1000))
    def test_symmetry(self, d):
        assert expected_score(1800.0 + d, 1800.0) + expected_score(
            1800.0, 1800.0 + d
        ) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_difference(self):
        values = [expected_score(1800.0 + d, 1800.0) for d in (-200, -50, 0, 50, 200)]
        assert values == sorted(values)


class TestGoalMultiplier:
    @pytest.mark.parametrize(
        "diff,expected", [(0, 1.0), (1, 1.0), (2, 1.5), (3, 1.75), (4, 1.875), (7, 2.25)]
    )
    def test_table(self, diff, expected):
        assert goal_multiplier(diff) == expected

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            goal_multiplier(-1)


class TestUpdate:
    def test_draw_between_equals_is_identity(self):
        new_a, new_b = update_pair(1800.0, 1800.0, 1, 1, 50.0)
        assert new_a == 1800.0
        assert new_b == 1800.0

    def test_win_moves_points_from_loser_to_winner(self):
        new_a, new_b = update_pair(1800.0, 1800.0, 2, 0, 50.0)
        assert new_a == pytest.approx(1800.0 + 50.0 * 1.5 * 0.5)
        assert new_b == pytest.approx(1800.0 - 50.0 * 1.5 * 0.5)

    def test_zero_sum(self):
        new_a, new_b = update_pair(1930.0, 1785.0, 3, 1, 60.0)
        assert new_a + new_b == pytest.approx(1930.0 + 1785.0, abs=1e-9)

    def test_upset_gains_more_than_expected_win(self):
        underdog_gain = update_pair(1600.0, 2000.0, 1, 0, 50.0)[0] - 1600.0
        favourite_gain = update_pair(2000.0, 1600.0, 1, 0, 50.0)[0] - 2000.0
        assert underdog_gain > favourite_gain > 0

    @settings(max_examples=100, deadline=None)
    @given(
        elo_a=st.floats(1200, 2200),
        elo_b=st.floats(1200, 2200),
        goals_a=st.integers(0, 8),
        goals_b=st.integers(0, 8),
        k=st.sampled_from([20.0, 40.0, 50.0, 60.0]),
    )
    def test_pair_is_always_zero_sum(self, elo_a, elo_b, goals_a, goals_b, k):
        new_a, new_b = update_pair(elo_a, elo_b, goals_a, goals_b, k)
        assert new_a + new_b == pytest.approx(elo_a + elo_b, abs=1e-8)


class TestArrayForm:
    def test_update_pairs_equal_scalar_updates_bit_for_bit(self):
        rng = np.random.default_rng(8)
        n = 2000
        elo_a = rng.uniform(1500.0, 2200.0, n)
        elo_b = rng.uniform(1500.0, 2200.0, n)
        elo_b[::9] = elo_a[::9]
        goals_a = rng.integers(0, 8, n)
        goals_b = rng.integers(0, 8, n)
        for k in DEFAULT_K_FACTORS.values():
            new_a, new_b = update_pairs(elo_a, elo_b, goals_a, goals_b, k)
            expect = [
                update_pair(float(a), float(b), int(x), int(y), k)
                for a, b, x, y in zip(elo_a, elo_b, goals_a, goals_b)
            ]
            assert new_a.tolist() == [e[0] for e in expect]
            assert new_b.tolist() == [e[1] for e in expect]

    def test_expected_scores_equal_scalar(self):
        rng = np.random.default_rng(9)
        elo_a = rng.uniform(1200.0, 2200.0, 500)
        elo_b = rng.uniform(1200.0, 2200.0, 500)
        assert expected_scores(elo_a, elo_b).tolist() == [
            expected_score(float(a), float(b)) for a, b in zip(elo_a, elo_b)
        ]

    # Bit for bit only while np.float_power calls libm's pow per element,
    # as Python's float ** does; a SIMD loop for it would fail this test.
    # An empty array is the shootout call of a round without shootouts.
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(*ELO_RANGE), st.floats(*ELO_RANGE)), max_size=64))
    @example(pairs=[])
    @example(pairs=[(ELO_RANGE[0], ELO_RANGE[1])])
    @example(pairs=[(ELO_RANGE[1], ELO_RANGE[0]), (1800.0, 1800.0), (0.0, 0.0), (4000.0, 4000.0)])
    def test_expected_scores_equal_scalar_on_elo_range(self, pairs):
        elo_a = np.array([a for a, _ in pairs], dtype=float)
        elo_b = np.array([b for _, b in pairs], dtype=float)
        assert expected_scores(elo_a, elo_b).tolist() == [expected_score(a, b) for a, b in pairs]


def _match(date, a, b, ga, gb, kind="FRIENDLY"):
    return MatchRecord(
        date=date, team_a=a, team_b=b, goals_a=ga, goals_b=gb,
        match_type=kind, venue_country="NEUTRAL",
    )


class TestReplay:
    def setup_method(self):
        self.seeds = [
            EloRating("AAA", 1900.0, dt.date(2020, 1, 1)),
            EloRating("BBB", 1800.0, dt.date(2020, 1, 1)),
            EloRating("CCC", 1700.0, dt.date(2020, 1, 1)),
        ]

    def test_annotates_pre_match_ratings(self):
        matches = [
            _match(dt.date(2020, 2, 1), "AAA", "BBB", 2, 0),
            _match(dt.date(2020, 3, 1), "AAA", "CCC", 1, 1),
        ]
        annotated, final = replay_history(self.seeds, matches)
        assert annotated[0].elo_a_before == 1900.0
        assert annotated[0].elo_b_before == 1800.0
        # second match sees AAA's rating moved by the first result
        assert annotated[1].elo_a_before > 1900.0
        assert final["BBB"] < 1800.0

    def test_total_points_conserved(self):
        rng = np.random.default_rng(4)
        teams = ["AAA", "BBB", "CCC"]
        matches = []
        day = dt.date(2020, 1, 2)
        for i in range(60):
            a, b = rng.choice(teams, size=2, replace=False)
            matches.append(_match(day, str(a), str(b), int(rng.poisson(1.3)), int(rng.poisson(1.1))))
            day += dt.timedelta(days=3)
        _, final = replay_history(self.seeds, matches)
        assert sum(final.values()) == pytest.approx(1900 + 1800 + 1700, abs=1e-6)

    def test_k_factor_scales_update(self):
        big = replay_history(self.seeds, [_match(dt.date(2020, 2, 1), "AAA", "BBB", 1, 0, "WC")])[1]
        small = replay_history(self.seeds, [_match(dt.date(2020, 2, 1), "AAA", "BBB", 1, 0, "FRIENDLY")])[1]
        gain_big = big["AAA"] - 1900.0
        gain_small = small["AAA"] - 1900.0
        assert gain_big == pytest.approx(gain_small * 3.0)  # K 60 vs 20

    def test_unsorted_dates_rejected(self):
        matches = [
            _match(dt.date(2020, 3, 1), "AAA", "BBB", 1, 0),
            _match(dt.date(2020, 2, 1), "AAA", "CCC", 1, 0),
        ]
        with pytest.raises(DataError):
            replay_history(self.seeds, matches)

    def test_unknown_team_rejected(self):
        with pytest.raises(DataError):
            replay_history(self.seeds, [_match(dt.date(2020, 2, 1), "AAA", "ZZZ", 1, 0)])

    def test_unknown_match_type_rejected(self):
        with pytest.raises(DataError):
            replay_history(
                self.seeds, [_match(dt.date(2020, 2, 1), "AAA", "BBB", 1, 0, "GALA")]
            )

    def test_default_k_factors_complete(self):
        assert DEFAULT_K_FACTORS == {
            "WC": 60.0,
            "CONT": 50.0,
            "QUAL": 40.0,
            "FRIENDLY": 20.0,
        }
