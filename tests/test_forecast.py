"""Two-stage exact-score forecasts."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from euroforecast.errors import ParameterError
from euroforecast.forecast import (
    MatchForecast,
    ModelArrays,
    _predict_mu,
    _stronger_stage,
    location_indicator,
    order_by_strength,
    sample_match_block,
    score_grid,
)
from euroforecast.regression import BETA_MAX
from euroforecast.zigp import HARD_CAP, pmf

from conftest import (
    build_team_model,
    invert_closed_form,
    pair_draws,
    stronger_stage,
    weaker_stage,
)


@pytest.fixture
def strong():
    return build_team_model("FRA", 2087.0)


@pytest.fixture
def weak():
    return build_team_model("GER", 1936.0)


class TestLocation:
    def test_host(self):
        assert location_indicator("FRA", "GER", "FRA") == 1.0

    def test_visitor(self):
        assert location_indicator("FRA", "GER", "GER") == -1.0

    def test_neutral(self):
        assert location_indicator("FRA", "GER", "HUN") == 0.0
        assert location_indicator("FRA", "GER", "NEUTRAL") == 0.0


class TestOrdering:
    def test_higher_elo_is_stronger(self):
        assert order_by_strength("AAA", 1900, "BBB", 2000) == ("BBB", "AAA", True)
        assert order_by_strength("BBB", 2000, "AAA", 1900) == ("BBB", "AAA", False)

    def test_tie_goes_to_smaller_code(self):
        assert order_by_strength("BBB", 1900, "AAA", 1900) == ("AAA", "BBB", True)
        assert order_by_strength("AAA", 1900, "BBB", 1900) == ("AAA", "BBB", False)

    def test_orientation_independent_of_argument_order(self):
        s1, w1, _ = order_by_strength("FRA", 2087, "GER", 1936)
        s2, w2, _ = order_by_strength("GER", 1936, "FRA", 2087)
        assert (s1, w1) == (s2, w2)


class TestCombinedParams:
    """The stronger side's stage, ``_stronger_stage``, at location ``loc``."""

    def test_arithmetic_means(self, strong, weak):
        mu, phi, omega = _stronger_stage(strong, weak, 2087.0, 1936.0, -1.0)
        mu_att = strong.attack.predict_mu((1.0, 1936.0, -1.0))
        mu_def = weak.defense.predict_mu((1.0, 2087.0, 1.0))
        assert mu == pytest.approx(0.5 * (mu_att + mu_def), rel=1e-12)
        assert phi == pytest.approx(0.5 * (strong.attack.phi + weak.defense.phi))
        assert omega == pytest.approx(0.5 * (strong.attack.omega + weak.defense.omega))

    def test_venue_changes_mean(self, strong, weak):
        home = _stronger_stage(strong, weak, 2087.0, 1936.0, 1.0)
        away = _stronger_stage(strong, weak, 2087.0, 1936.0, -1.0)
        assert home[0] > away[0]


class TestLinearPredictor:
    @pytest.mark.parametrize("n_covariates", [2, 4])
    def test_covariate_count_must_match(self, weak, n_covariates):
        covariates = (1.0, 2087.0, 1.0, 2.0, 0.5)[:n_covariates]
        with pytest.raises(ValueError, match="zip"):
            weak.attack.predict_mu(covariates)
        alpha = np.array([weak.attack.alpha] * 2)
        with pytest.raises(ValueError, match="zip"):
            _predict_mu(alpha, *(np.full(2, x) for x in covariates[1:]))

    @pytest.mark.parametrize("intercept, word", [(-800.0, "underflows"), (800.0, "overflows")])
    def test_mean_outside_the_floats_rejected(self, weak, intercept, word):
        # the samplers take their means from here unchecked
        alpha = np.array([weak.attack.alpha, (intercept, 0.0, 0.0)])
        with pytest.raises(ParameterError, match=rf"mu = exp\({intercept:g}\) {word}"):
            _predict_mu(alpha, np.full(2, 1900.0), np.zeros(2))

    def test_no_rows(self, weak):
        assert _predict_mu(np.empty((0, 3)), np.empty(0), np.empty(0)).shape == (0,)


class TestConditionalParams:
    """The weaker side's stage: ``_predict_mu`` on the nested coefficients."""

    def test_nested_covariates(self, weak):
        table = ModelArrays.from_models([weak])
        mu = _predict_mu(table.nested_alpha, *np.array([[2087.0], [1.0], [2.0]]))
        assert mu[0] == pytest.approx(weak.nested.predict_mu((1.0, 2087.0, 1.0, 2.0)), rel=1e-12)
        assert (table.nested_phi[0], table.nested_omega[0]) == (weak.nested.phi, weak.nested.omega)

    def test_more_opponent_goals_lowers_mean(self, weak):
        alpha = np.array([weak.nested.alpha] * 2)
        mu0, mu3 = _predict_mu(alpha, np.full(2, 2087.0), np.zeros(2), np.array([0.0, 3.0]))
        assert mu3 < mu0


class TestScoreGrid:
    def test_normalized(self, strong, weak):
        f = score_grid(strong, weak, 2087.0, 1936.0)
        assert f.grid.shape == (16, 16)
        assert f.grid.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.grid >= 0)

    def test_orientation_transpose(self, strong, weak):
        ab = score_grid(strong, weak, 2087.0, 1936.0, "GER")
        ba = score_grid(weak, strong, 1936.0, 2087.0, "GER")
        assert ab.stronger == ba.stronger == "FRA"
        assert np.array_equal(ab.grid, ba.grid.T)

    def test_rows_follow_two_stage_construction(self, strong, weak):
        cap = 10
        f = score_grid(strong, weak, 2087.0, 1936.0, "NEUTRAL", cap=cap)
        ks = np.arange(cap + 1)
        p_strong = pmf(stronger_stage(strong, weak, 2087.0, 1936.0, "NEUTRAL"), ks)
        raw = np.array(
            [
                p_strong[i] * pmf(weaker_stage(weak, strong, 2087.0, "NEUTRAL", i), ks)
                for i in range(cap + 1)
            ]
        )
        assert_allclose(f.grid, raw / raw.sum(), rtol=1e-12)

    def test_custom_cap(self, strong, weak):
        f = score_grid(strong, weak, 2087.0, 1936.0, cap=6)
        assert f.grid.shape == (7, 7)
        assert f.grid.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stronger_side_favoured(self, strong, weak):
        f = score_grid(strong, weak, 2087.0, 1936.0)
        win_a, _, win_b = f.outcome_probabilities()
        assert win_a > win_b

    @pytest.mark.parametrize("cap", [0, -1, HARD_CAP + 1])
    def test_cap_outside_range_rejected(self, strong, weak, cap):
        with pytest.raises(ParameterError, match=f"grid cap must be in 1..{HARD_CAP}"):
            score_grid(strong, weak, 2087.0, 1936.0, cap=cap)

    def test_finite_at_the_largest_beta_and_cap(self, strong, weak):
        # the most overdispersed model a file may hold, on the widest grid
        def widest(model):
            return dataclasses.replace(
                model,
                **{
                    kind: dataclasses.replace(getattr(model, kind), beta=BETA_MAX)
                    for kind in ("attack", "defense", "nested")
                },
            )

        f = score_grid(widest(strong), widest(weak), 2087.0, 1936.0, cap=HARD_CAP)
        assert np.all(np.isfinite(f.grid))
        assert f.grid.sum() == pytest.approx(1.0, abs=1e-12)


class TestMatchForecast:
    def _toy(self, grid):
        g = np.asarray(grid, dtype=float)
        return MatchForecast(
            team_a="AAA", team_b="BBB", grid=g, cap=g.shape[0] - 1, stronger="AAA"
        )

    def test_outcome_probabilities_partition(self):
        f = self._toy([[0.1, 0.2], [0.3, 0.4]])
        win_a, draw, win_b = f.outcome_probabilities()
        assert win_a == pytest.approx(0.3)
        assert draw == pytest.approx(0.5)
        assert win_b == pytest.approx(0.2)
        assert win_a + draw + win_b == pytest.approx(1.0)

    def test_most_likely_score(self):
        f = self._toy([[0.1, 0.2], [0.6, 0.1]])
        assert f.most_likely_score() == (1, 0)

    def test_most_likely_tie_row_major(self):
        f = self._toy([[0.25, 0.25], [0.25, 0.25]])
        assert f.most_likely_score() == (0, 0)


class TestSampling:
    def test_deterministic(self, strong, weak):
        a = [
            pair_draws(strong, weak, 2087.0, 1936.0, np.random.default_rng(5).random((50, 2)))
            for _ in range(3)
        ]
        assert np.array_equal(a[0], a[1]) and np.array_equal(a[0], a[2])

    def test_matches_grid_distribution(self, strong, weak):
        n = 40_000
        u = np.random.default_rng(17).random((n, 2))
        ga, gb = pair_draws(strong, weak, 2087.0, 1936.0, u)
        inside = (ga <= 15) & (gb <= 15)
        counts = np.zeros((16, 16))
        np.add.at(counts, (ga[inside], gb[inside]), 1)
        f = score_grid(strong, weak, 2087.0, 1936.0)
        # compare the heaviest cells at 5 sigma
        for i, j in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (0, 1)]:
            p = f.grid[i, j]
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[i, j] / n - p) < 5 * se + 1e-4

    def test_orientation_preserved(self, strong, weak):
        u = np.random.default_rng(3).random((200, 2))
        ga, gb = pair_draws(strong, weak, 2087.0, 1936.0, u, "GER")
        gb_swapped, ga_swapped = pair_draws(weak, strong, 1936.0, 2087.0, u, "GER")
        assert np.array_equal(ga, ga_swapped) and np.array_equal(gb, gb_swapped)

    def test_extra_time_factor_reduces_goals(self, strong, weak):
        rng = np.random.default_rng(11)
        full = sum(pair_draws(strong, weak, 2087.0, 1936.0, rng.random((4000, 2))))
        short = sum(
            pair_draws(strong, weak, 2087.0, 1936.0, rng.random((4000, 2)), mu_factor=1 / 3)
        )
        assert np.mean(short) < 0.55 * np.mean(full)

    @pytest.mark.parametrize(
        "a, b, elo_a, elo_b, venue, mu_factor",
        [
            ("FRA", "GER", 2087.0, 1936.0, "GER", 1.0),
            ("GER", "FRA", 1936.0, 2087.0, "GER", 1.0),
            ("MKD", "BEL", 1600.0, 2100.0, "MKD", 1.0 / 3.0),
            ("GER", "BEL", 2000.0, 2000.0, "GER", 1.0),  # tie: BEL is the stronger side
            ("BEL", "GER", 2000.0, 2000.0, "NEUTRAL", 1.0 / 3.0),
        ],
    )
    def test_one_match_is_row_zero_of_a_block(self, a, b, elo_a, elo_b, venue, mu_factor):
        """Row 0 of a four-row block equals a block of that row alone, on a
        four-team table in team-code order: a row's draw does not depend
        on the other rows."""
        codes = ["BEL", "FRA", "GER", "MKD"]
        models = [build_team_model(t, 1900.0 + 50 * i) for i, t in enumerate(codes)]
        table = ModelArrays.from_models(models)

        def block(u):
            n = len(u)
            return sample_match_block(
                table, np.full(n, codes.index(a)), np.full(n, codes.index(b)),
                np.full(n, elo_a), np.full(n, elo_b),
                np.full(n, location_indicator(a, b, venue)), u, mu_factor,
            )

        for seed in range(40):
            u = np.random.default_rng(seed).random((4, 2))
            (ga, gb), (one_a, one_b) = block(u), block(u[:1])
            assert (one_a.tolist(), one_b.tolist()) == ([ga[0]], [gb[0]])


class TestBlockSampling:
    @pytest.mark.parametrize("mu_factor", [1.0, 1.0 / 3.0])
    def test_rows_invert_the_closed_form(self, mu_factor):
        """Each row against a reference that shares no code with the block:
        the conftest stage oracles give the two stages, each inverted on
        the closed-form cumulative mass."""
        teams = {"BEL": 2100.0, "FRA": 2087.0, "GER": 1936.0, "MKD": 1600.0}
        codes = sorted(teams)
        models = [build_team_model(t, teams[t]) for t in codes]
        rng = np.random.default_rng(12)
        n = 600
        a = rng.integers(0, 4, n)
        b = (a + rng.integers(1, 4, n)) % 4
        elo_a = rng.uniform(1600.0, 2150.0, n)
        elo_b = rng.uniform(1600.0, 2150.0, n)
        elo_b[::7] = elo_a[::7]  # ties go to the smaller code
        venue = rng.integers(-1, 4, n)
        loc_a = (a == venue) * 1.0 - (b == venue) * 1.0
        u = rng.random((n, 2))
        got_a, got_b = sample_match_block(
            ModelArrays.from_models(models), a, b, elo_a, elo_b, loc_a, u,
            mu_factor=mu_factor,
        )
        for i in range(n):
            place = codes[venue[i]] if venue[i] >= 0 else "NEUTRAL"
            sides = [(models[a[i]], float(elo_a[i])), (models[b[i]], float(elo_b[i]))]
            _, _, swapped = order_by_strength(codes[a[i]], sides[0][1], codes[b[i]], sides[1][1])
            (strong, elo_strong), (weak, elo_weak) = sides[::-1] if swapped else sides
            stage = stronger_stage(strong, weak, elo_strong, elo_weak, place, mu_factor)
            goals_strong = invert_closed_form(stage, u[i, 0])
            stage = weaker_stage(weak, strong, elo_strong, place, goals_strong, mu_factor)
            goals_weak = invert_closed_form(stage, u[i, 1])
            expect = (goals_weak, goals_strong) if swapped else (goals_strong, goals_weak)
            assert (got_a[i], got_b[i]) == expect

    def test_block_draws_match_grid(self):
        """200k block draws against ``score_grid`` by criterion 7's 4-sigma rule."""
        models = [build_team_model("FRA", 2087.0), build_team_model("GER", 1936.0)]
        n = 200_000
        u = np.random.default_rng(7100).random((n, 2))
        ga, gb = pair_draws(*models, 2087.0, 1936.0, u, "GER")
        forecast = score_grid(*models, 2087.0, 1936.0, "GER")
        cap = forecast.cap
        inside = (ga <= cap) & (gb <= cap)
        assert (~inside).sum() <= 10
        counts = np.zeros((cap + 1, cap + 1))
        np.add.at(counts, (ga[inside], gb[inside]), 1)
        check = forecast.grid >= 1e-4
        expect = n * forecast.grid[check]
        sigma = np.sqrt(n * forecast.grid[check] * (1.0 - forecast.grid[check]))
        assert np.all(np.abs(counts[check] - expect) <= 4.0 * sigma)
