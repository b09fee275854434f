"""Release gate: one test per acceptance criterion, at fixed tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.
"""

from __future__ import annotations

import datetime as dt
import math
import time

import numpy as np
import pytest
from scipy import stats

from euroforecast.elo import (
    DEFAULT_K_FACTORS,
    expected_score,
    goal_multiplier,
    update_pair,
)
from euroforecast.forecast import _predict_mu, _stronger_stage, score_grid
from euroforecast.metrics import brier, mld, rps, OutcomeDistribution
from euroforecast.regression import RegressionCoefficients, TeamModel
from euroforecast.tournament import group_teams, monte_carlo
from euroforecast.weights import WeightConfig, date_weight, importance_weight
from euroforecast.zigp import log_pmf_table, sample_block

from conftest import (
    Zigp,
    build_team_model,
    fit_alone,
    loglik_and_grad,
    pair_draws,
    sampler_law,
    stage_mu,
)


# -- criterion 1: published France-Germany example ---------------------------

FRA_ATTACK = RegressionCoefficients(
    alpha=(1.895766, -0.0007002232, 0.2361780),
    beta=math.log(0.3),
    gamma_log=-3.057658,
)
GER_DEFENSE = RegressionCoefficients(
    alpha=(-3.886702, 0.002203437, -0.02433679),
    beta=math.log(0.3),
    gamma_log=-5.519051,
)
GER_NESTED = RegressionCoefficients(
    alpha=(3.340300, -0.0014539752, 0.21633103, -0.089635003),
    beta=math.log(0.3),
    gamma_log=-5.519051,
)


def test_criterion_1_worked_example_reproduced():
    fra = TeamModel(team="FRA", attack=FRA_ATTACK, defense=FRA_ATTACK, nested=FRA_ATTACK)
    ger = TeamModel(team="GER", attack=GER_DEFENSE, defense=GER_DEFENSE, nested=GER_NESTED)
    elo_fra, elo_ger = 2087.0, 1936.0  # in Germany: location +1 for GER, -1 for FRA

    mu_france = stage_mu(FRA_ATTACK, (1.0, elo_ger, -1.0))
    assert mu_france == pytest.approx(1.35521, abs=1e-4)
    assert FRA_ATTACK.omega == pytest.approx(0.044888, abs=1e-5)

    nu_germany = stage_mu(GER_DEFENSE, (1.0, elo_fra, 1.0))
    assert nu_germany == pytest.approx(1.988806, abs=1e-4)
    assert GER_DEFENSE.omega == pytest.approx(0.003993638, abs=1e-6)

    # Germany's goals given France's one
    (cond_mu,) = _predict_mu(np.array([GER_NESTED.alpha]), *np.array([[elo_fra], [1.0], [1.0]]))
    assert cond_mu == pytest.approx(1.54118, abs=1e-4)

    mu, _, omega = _stronger_stage(fra, ger, elo_fra, elo_ger, -1.0)
    assert (1.0 - omega) * mu == pytest.approx(1.627268, rel=5e-3)


# -- criterion 2: scoring distribution correctness ---------------------------


def test_criterion_2_zigp_distribution():
    start = time.monotonic()
    # Poisson reduction of the package's pmf table on a mean grid
    for mu in (0.1, 0.5, 1.0, 1.35521, 2.0, 5.0, 8.0):
        for k in range(41):
            assert abs(np.exp(log_pmf_table(mu, 1.0, 0.0, k)) - stats.poisson.pmf(k, mu)) < 1e-12

    # truncated grids renormalize to one
    for mu, phi, omega in ((0.5, 1.0, 0.0), (2.0, 1.5, 0.1), (4.0, 2.5, 0.3)):
        p = Zigp(mu=mu, phi=phi, omega=omega)
        for cap in (5, 15, 25):
            total = float(np.sum(sampler_law(p, cap)))
            assert abs(total - 1.0) < 1e-6

    # closed-form moments vs Monte Carlo, 3 standard errors
    p = Zigp(mu=2.2, phi=1.4, omega=0.12)
    n = 1_000_000
    u = np.random.default_rng(2024).random(n)
    draws = sample_block(np.full(n, p.mu), np.full(n, p.phi), np.full(n, p.omega), u).astype(float)
    se_mean = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - p.mean()) < 3 * se_mean
    centered = (draws - draws.mean()) ** 2
    se_var = centered.std(ddof=1) / math.sqrt(n)
    assert abs(draws.var(ddof=1) - p.variance()) < 3 * se_var
    assert time.monotonic() - start < 60.0


# -- criterion 3: fitter recovery --------------------------------------------


def _recovery_data(seed, n=2000):
    alpha_true = np.array([0.9, -0.25, 0.2])
    rng = np.random.default_rng(100 + seed)
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.choice([-1.0, 0.0, 1.0], n)
    X = np.column_stack([np.ones(n), x1, x2])
    mu = np.exp(X @ alpha_true)
    y = sample_block(mu, np.full(n, 1.5), np.full(n, 0.15), rng.random(n))
    w = rng.uniform(0.5, 4.0, n)
    return X, y, w


def test_criterion_3_fitter_recovers_synthetic_truth():
    start = time.monotonic()
    for seed in range(5):
        c = fit_alone(*_recovery_data(seed))
        for got, want in zip(c.alpha, (0.9, -0.25, 0.2)):
            assert abs(got - want) <= 0.1
        assert abs(c.phi / 1.5 - 1.0) <= 0.15
        assert abs(c.omega / 0.15 - 1.0) <= 0.15

    X, y, w = _recovery_data(0, n=400)
    rng = np.random.default_rng(9)
    for _ in range(10):
        theta = np.concatenate(
            [rng.normal([0.9, -0.25, 0.2], 0.3), [rng.normal(-0.7, 0.4), rng.normal(-1.7, 0.5)]]
        )
        _, grad = loglik_and_grad(theta, X, y, w)
        for j in range(len(theta)):
            h = 1e-6 * (1.0 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            num = (loglik_and_grad(tp, X, y, w)[0] - loglik_and_grad(tm, X, y, w)[0]) / (2 * h)
            assert grad[j] == pytest.approx(num, rel=1e-4, abs=1e-6)
    assert time.monotonic() - start < 120.0


# -- criterion 4: rating update identities ------------------------------------


def test_criterion_4_elo_identities():
    assert expected_score(1800.0, 1800.0) == 0.5
    for d in (25.0, 100.0, 333.0, 400.0, 1000.0):
        we = expected_score(1800.0 + d, 1800.0)
        wo = expected_score(1800.0, 1800.0 + d)
        assert abs(we + wo - 1.0) <= 1e-15
    # a draw between equals changes nothing
    for k in DEFAULT_K_FACTORS.values():
        assert update_pair(1900.0, 1900.0, 1, 1, k) == (1900.0, 1900.0)
    assert goal_multiplier(0) == 1.0
    assert goal_multiplier(1) == 1.0
    assert goal_multiplier(2) == 1.5
    assert goal_multiplier(3) == 1.75


# -- criterion 5: match weighting ----------------------------------------------


def test_criterion_5_match_weights():
    ref = dt.date(2021, 6, 7)
    cfg = WeightConfig(reference_date=ref)
    half_period_ago = ref - dt.timedelta(days=cfg.half_period_days)
    assert date_weight(half_period_ago, cfg) == 0.5
    assert importance_weight("WC", cfg) == 4.0
    assert importance_weight("CONT", cfg) == 3.0
    assert importance_weight("QUAL", cfg) == 2.5
    assert importance_weight("FRIENDLY", cfg) == 1.0


# -- criterion 6: tournament partition invariants ------------------------------


@pytest.fixture(scope="module")
def gate_aggregate(euro2020, euro_models):
    ratings, fixtures, allocation = euro2020
    return monte_carlo(
        euro_models, ratings, fixtures, allocation, n_runs=2000, master_seed=42
    )


def test_criterion_6_simulation_invariants(euro2020, euro_models, gate_aggregate):
    start = time.monotonic()
    ratings, fixtures, allocation = euro2020
    agg = gate_aggregate
    n = agg.n_runs
    assert n == 2000

    for team in agg.teams:
        group_total = (
            agg.counts["group_first"][team]
            + agg.counts["group_second"][team]
            + agg.counts["third_qualified"][team]
            + agg.counts["eliminated_group"][team]
        )
        assert group_total == n
        c = agg.counts
        assert c["r16"][team] >= c["qf"][team] >= c["sf"][team] >= c["final"][team] >= c["champion"][team]

    for stat, per_run in (("champion", 1), ("final", 2), ("sf", 4), ("qf", 8), ("r16", 16)):
        assert sum(agg.counts[stat].values()) == per_run * n

    parallel = monte_carlo(
        euro_models, ratings, fixtures, allocation,
        n_runs=2000, master_seed=42, n_workers=3,
    )
    assert parallel.counts == agg.counts
    assert parallel.n_runs == agg.n_runs
    assert time.monotonic() - start < 120.0


# -- criterion 7: sampler agrees with the analytic grid ------------------------

MATCHUPS = (
    ("FRA", 2087.0, "GER", 1936.0, "GER"),
    ("BEL", 2100.0, "MKD", 1600.0, "NEUTRAL"),
    ("ITA", 2013.0, "ENG", 1969.0, "ENG"),
)


def test_criterion_7_sampler_matches_grid():
    start = time.monotonic()
    n = 1_000_000
    for idx, (team_a, elo_a, team_b, elo_b, venue) in enumerate(MATCHUPS):
        model_a = build_team_model(team_a, elo_a)
        model_b = build_team_model(team_b, elo_b)
        forecast = score_grid(model_a, model_b, elo_a, elo_b, venue)
        cap = forecast.cap
        u = np.random.default_rng(7000 + idx).random((n, 2))
        ga, gb = pair_draws(model_a, model_b, elo_a, elo_b, u, venue)
        inside = (ga <= cap) & (gb <= cap)
        counts = np.zeros((cap + 1, cap + 1))
        np.add.at(counts, (ga[inside], gb[inside]), 1)
        # the uncapped sampler may land beyond the grid; the stray mass
        # must stay far below the smallest cell probability under test
        assert (~inside).sum() <= 50
        check = forecast.grid >= 1e-4
        expect = n * forecast.grid[check]
        sigma = np.sqrt(n * forecast.grid[check] * (1.0 - forecast.grid[check]))
        assert np.all(np.abs(counts[check] - expect) <= 4.0 * sigma)
    assert time.monotonic() - start < 120.0


# -- criterion 8: metric hand values -------------------------------------------


def test_criterion_8_metric_hand_oracles():
    uniform = {"AAA": OutcomeDistribution(team="AAA", p=(1 / 6,) * 6)}
    assert brier(uniform, {"AAA": 4}) == pytest.approx(25 / 30)

    toy = {"AAA": OutcomeDistribution(team="AAA", p=(0.8, 0.2, 0.0, 0.0, 0.0, 0.0))}
    assert rps(toy, {"AAA": 2}) == pytest.approx(0.128)

    perfect = {
        "AAA": OutcomeDistribution(team="AAA", p=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        "BBB": OutcomeDistribution(team="BBB", p=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)),
    }
    realized = {"AAA": 1, "BBB": 6}
    assert mld(perfect, realized) == 0.0
    assert brier(perfect, realized) == 0.0
    assert rps(perfect, realized) == 0.0


# -- criterion 9: qualitative ordering on a rating-equivalent setup ------------


def test_criterion_9_qualitative_favourites(euro2020, gate_aggregate):
    """Non-binding check on plausible inputs, not a reproduction of any table.

    With rating-driven stand-in models over the real seeding, the
    simulation should make Belgium, France and Spain the three most
    likely champions and Hungary the most likely group-stage exit
    within its group of former world champions.
    """
    _, fixtures, _ = euro2020
    agg = gate_aggregate
    by_champion = sorted(agg.teams, key=lambda t: -agg.counts["champion"][t])
    assert by_champion[:3] == ["BEL", "FRA", "ESP"]

    group_f = group_teams(fixtures)["F"]
    assert set(group_f) == {"HUN", "POR", "FRA", "GER"}
    exits = {t: agg.counts["eliminated_group"][t] for t in group_f}
    assert max(exits, key=exits.get) == "HUN"
