"""Weighted ZIGP regression: builders, likelihood, fitter, goodness of fit."""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import chdtrc, expit

from euroforecast.data_io import MatchRecord, load_config, load_matches, load_ratings
from euroforecast.elo import replay_history
from euroforecast.errors import DataError, FitError, InsufficientDataError, ParameterError
from euroforecast import regression
from euroforecast.regression import (
    DesignMatrixWarning,
    FitConfig,
    RegressionCoefficients,
    chi_square_gof,
    chi_square_sf,
    fit_team_models,
    observations_by_team,
)
from euroforecast.forecast import location_indicator
from euroforecast.tournament import group_teams
from euroforecast.weights import WeightConfig, match_weight
from euroforecast.zigp import HARD_CAP, sample_block

from conftest import Zigp, closed_form_pmf, fit_alone, loglik_and_grad

REF = dt.date(2021, 6, 7)


def annotated(date, a, b, ga, gb, elo_a, elo_b, venue="NEUTRAL", kind="FRIENDLY"):
    return MatchRecord(
        date=date, team_a=a, team_b=b, goals_a=ga, goals_b=gb,
        match_type=kind, venue_country=venue,
        elo_a_before=elo_a, elo_b_before=elo_b,
    )


@pytest.fixture
def wcfg():
    return WeightConfig(reference_date=REF)


def team_rows(team, matches, cfg):
    """``team``'s entry of :func:`observations_by_team`: its rows or its error."""
    return observations_by_team([team], matches, cfg)[team]


def assert_same_rows(got, expected):
    """Two teams' (X, y, w) triples hold the same arrays, bit for bit."""
    for rows, expected_rows in zip(got, expected, strict=True):
        for a, b in zip(rows, expected_rows, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestBuilders:
    def setup_method(self):
        d = dt.date(2021, 1, 1)
        self.matches = [
            # AAA home win
            annotated(d, "AAA", "BBB", 3, 1, 1900.0, 1800.0, venue="AAA"),
            # AAA away, listed second, underdog (1905 < 1950)
            annotated(dt.date(2021, 2, 1), "CCC", "AAA", 2, 2, 1950.0, 1905.0, venue="CCC"),
            # neutral, equal ratings: excluded from nested for both sides
            annotated(dt.date(2021, 3, 1), "AAA", "CCC", 0, 1, 1910.0, 1910.0),
        ]

    def test_attack_rows(self, wcfg):
        (X, y, w), _, _ = team_rows("AAA", self.matches, wcfg)
        assert y.dtype == np.int64
        assert y.tolist() == [3, 2, 0]
        assert X.tolist() == [
            [1.0, 1800.0, 1.0],   # home
            [1.0, 1950.0, -1.0],  # away
            [1.0, 1910.0, 0.0],   # neutral
        ]
        assert np.all(w > 0)

    def test_defense_swaps_response(self, wcfg):
        (X, _, w), (X_def, y, w_def), _ = team_rows("AAA", self.matches, wcfg)
        assert y.tolist() == [1, 2, 1]
        assert X_def is X and w_def is w

    def test_nested_keeps_strict_underdogs_only(self, wcfg):
        _, _, (X, y, w) = team_rows("AAA", self.matches, wcfg)
        # only the CCC away match: AAA rated below; the tie is excluded
        assert y.tolist() == [2]
        assert X.tolist() == [[1.0, 1950.0, -1.0, 2.0]]
        assert len(w) == 1

    def test_nested_opponent_side(self, wcfg):
        _, _, (X, y, _) = team_rows("BBB", self.matches, wcfg)
        assert X.tolist() == [[1.0, 1900.0, -1.0, 3.0]]
        assert y.tolist() == [1]

    def test_weights_follow_match_weight(self, wcfg):
        (_, _, w), _, _ = team_rows("AAA", self.matches, wcfg)
        assert w[0] == pytest.approx(0.5 ** (157 / 1095))

    def test_missing_annotation_rejected(self, wcfg):
        plain = MatchRecord(
            date=dt.date(2021, 1, 1), team_a="AAA", team_b="BBB",
            goals_a=1, goals_b=0, match_type="FRIENDLY", venue_country="NEUTRAL",
        )
        error = team_rows("AAA", [plain], wcfg)
        assert isinstance(error, DataError)
        assert "Elo" in str(error)

    def test_no_matches_is_insufficient(self, wcfg):
        assert isinstance(team_rows("ZZZ", self.matches, wcfg), InsufficientDataError)

    def test_failures_stay_with_their_team(self, wcfg):
        plain = MatchRecord(
            date=dt.date(2021, 4, 1), team_a="CCC", team_b="DDD",
            goals_a=1, goals_b=0, match_type="FRIENDLY", venue_country="NEUTRAL",
        )
        by_team = observations_by_team(["AAA", "CCC", "DDD", "ZZZ"], self.matches + [plain], wcfg)
        assert_same_rows(by_team["AAA"], team_rows("AAA", self.matches, wcfg))
        for team in ("CCC", "DDD"):
            assert isinstance(by_team[team], DataError)
            assert str(by_team[team]) == (
                "match 2021-04-01 CCC-DDD lacks Elo annotations; replay history first"
            )
        assert isinstance(by_team["ZZZ"], InsufficientDataError)
        assert str(by_team["ZZZ"]) == "team 'ZZZ' has no matches in the data window"


def stack_rows(rows, p):
    """The (X, y, w) arrays of (goals, covariates, weight) rows with ``p`` covariates."""
    X = np.array([x for _, x, _ in rows], dtype=float).reshape(len(rows), p)
    y = np.array([k for k, _, _ in rows], dtype=np.int64)
    w = np.array([weight for _, _, weight in rows], dtype=float)
    return X, y, w


def scan_observations(team, matches, cfg):
    """One team's rows by a scan of the whole history, stacked row by row: the
    reference for the one-pass ``observations_by_team``; raises as it would report."""
    attack, defense, nested = [], [], []
    for m in matches:
        if team not in (m.team_a, m.team_b):
            continue
        if m.elo_a_before is None or m.elo_b_before is None:
            raise DataError(
                f"match {m.date} {m.team_a}-{m.team_b} lacks Elo annotations; "
                "replay history first"
            )
        if m.team_a == team:
            opponent, own_elo, opp_elo = m.team_b, m.elo_a_before, m.elo_b_before
            goals, conceded = m.goals_a, m.goals_b
        else:
            opponent, own_elo, opp_elo = m.team_a, m.elo_b_before, m.elo_a_before
            goals, conceded = m.goals_b, m.goals_a
        loc = location_indicator(team, opponent, m.venue_country)
        weight = match_weight(m, cfg)
        attack.append((goals, (1.0, opp_elo, loc), weight))
        defense.append((conceded, (1.0, opp_elo, loc), weight))
        if own_elo < opp_elo:
            nested.append((goals, (1.0, opp_elo, loc, float(conceded)), weight))
    if not attack:
        raise InsufficientDataError(f"team {team!r} has no matches in the data window")
    return stack_rows(attack, 3), stack_rows(defense, 3), stack_rows(nested, 4)


def synth_observations(seed, n=600, alpha=(0.9, -0.25, 0.2), phi=1.5, omega=0.15,
                       weighted=True):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.choice([-1.0, 0.0, 1.0], n)
    X = np.column_stack([np.ones(n), x1, x2])
    mu = np.exp(X @ np.asarray(alpha))
    y = sample_block(mu, np.full(n, phi), np.full(n, omega), rng.random(n))
    w = rng.uniform(0.5, 4.0, n) if weighted else np.ones(n)
    return X, y, w


def table_rows(table):
    """The (X, y, w) arrays of (goals, opponent Elo, location, weight) rows."""
    k, elo, loc, w = (np.array(column) for column in zip(*table))
    return np.column_stack([np.ones(len(k)), elo, loc]), k, w


# Goals conceded by AUT in the demo history of scripts/gen_demo_history.py
# for EURO 2016 (seed 28, ending 2016-06-10), as fitted by `fit` on the
# EURO 2016 teams: (goals conceded, opponent Elo, location, weight).
AUT_DEFENSE_2016 = [
    (2, 1720.0, -1.0, 0.5739857231276825),
    (3, 1556.9583525405105, -1.0, 0.5790950805153332),
    (1, 2030.2490341966575, 0.0, 0.584249919056718),
    (1, 1831.968223349987, 0.0, 0.5894506436041868),
    (1, 1816.219462848662, 1.0, 1.4867441565347481),
    (1, 1667.0825657613707, 1.0, 1.4999784704447607),
    (1, 1708.220581854307, 1.0, 0.605332236056505),
    (0, 1653.0354795793762, 1.0, 0.6107206257109118),
    (1, 1913.375986053785, 1.0, 0.6161569803361864),
    (0, 1626.4564716155537, -1.0, 0.6216417268944783),
    (1, 1980.4851898249497, -1.0, 2.508701184594233),
    (3, 1621.0672538534707, -1.0, 2.5310324907825987),
    (1, 1760.9984508532027, 0.0, 2.5535625800062416),
    (2, 1894.202763665062, -1.0, 2.5762932217404804),
    (0, 1527.5478406280579, 1.0, 2.59922620121169),
    (1, 1662.9967534834007, -1.0, 0.6555908298843772),
    (2, 1681.776654582443, 0.0, 0.6614265984670754),
    (0, 1864.620835877293, 0.0, 1.6682857859561675),
    (1, 1781.2482834092193, 1.0, 1.6831361001046463),
    (2, 1770.4168482733214, -1.0, 1.6981186049318238),
    (2, 2028.0698123868576, 1.0, 1.7132344771384318),
    (0, 1538.37387701362, 0.0, 1.7284849038996524),
    (5, 1761.2501452783015, -1.0, 1.7438710829583568),
    (1, 1713.8594555214397, 0.0, 0.7037576890876689),
    (1, 1814.5389941487535, -1.0, 0.7100222169373559),
    (0, 1708.833307387216, 1.0, 0.7163425087378856),
    (2, 1618.7034314766324, 0.0, 0.722719060874347),
    (1, 1801.0946444125887, 1.0, 0.7291523741504211),
    (0, 1701.4852724493883, 0.0, 0.7356429538277135),
    (2, 1981.3932960073648, -1.0, 0.7421913096654364),
    (2, 1731.2479067875001, 0.0, 1.8719948899011123),
    (1, 1640.1534589802072, 0.0, 1.8886585289690705),
    (1, 1895.8882281557949, 1.0, 0.7621882000406616),
    (3, 1824.9752007186394, 0.0, 0.7689728494731208),
    (1, 1673.168428562148, -1.0, 0.7758178927399624),
    (4, 1617.7801420177839, 0.0, 0.7827238674393727),
    (2, 1878.9058849662447, 1.0, 0.7896913159549908),
    (1, 1705.4384529191616, 1.0, 0.7967207854985053),
    (1, 1690.0939558779073, -1.0, 0.8038128281526328),
    (3, 1744.1279366916792, -1.0, 0.8109680009144759),
    (0, 1833.061685818249, 0.0, 0.8181868657392705),
    (0, 1813.0289896352667, 1.0, 0.8254699895845196),
    (0, 1905.2847444982567, 1.0, 0.8328179444545214),
    (0, 1963.1545218500642, 1.0, 2.1005782686132357),
    (1, 1671.2934375419934, 0.0, 2.1192766519747503),
    (1, 1745.158133762504, -1.0, 2.1381414797604306),
    (2, 1796.6523176367186, 1.0, 2.157174233582125),
    (4, 1931.925577707542, 1.0, 2.1763764082403103),
    (1, 1796.2339745954066, 0.0, 2.195749511841491),
    (3, 2043.1487562489033, -1.0, 0.8861180263666576),
    (1, 1960.092398888577, -1.0, 0.894005842216286),
    (1, 1636.5033132346737, 0.0, 0.9019638717812732),
    (0, 1756.8334515977988, 1.0, 0.909992740071878),
    (0, 1592.9464449160641, 1.0, 0.9180930776619133),
    (0, 1934.379873714044, -1.0, 0.9262655207382708),
    (0, 1644.2150433338604, 1.0, 0.9345107111508857),
    (2, 1732.520614506487, 1.0, 2.357073241157867),
    (0, 1689.3326297265737, 1.0, 2.378054825006887),
    (1, 1677.230910518812, -1.0, 0.9596892709130335),
    (3, 1721.080862004919, -1.0, 0.9682319842046982),
    (3, 1838.4727019379666, 0.0, 0.9768507408080842),
    (1, 1728.8241343737898, 0.0, 0.9855462176258405),
    (0, 1714.828657259189, 1.0, 2.9829572927582784),
]


# Goals conceded by CZE in the same kind of history (seed 1).  Near
# beta = -30 the likelihood is flat in
# beta only because phi - 1 = e^beta vanishes; a fit parked there has a
# negative log-likelihood (normalised weights) of 90.9182, while the
# interior maximum has phi > 1.
CZE_DEFENSE_2016 = [
    (2, 1733.0, -1.0, 0.5739857231276825),
    (0, 1645.4829595540366, 1.0, 0.5790950805153332),
    (0, 1712.0045829409999, 1.0, 0.584249919056718),
    (2, 1782.2860895227677, -1.0, 0.5894506436041868),
    (0, 1820.1898677059964, 0.0, 1.4867441565347481),
    (2, 1589.8147206393821, -1.0, 1.4999784704447607),
    (2, 1781.3669208877463, 0.0, 0.605332236056505),
    (2, 1638.8103186400226, 0.0, 0.6107206257109118),
    (2, 1925.0637248690416, -1.0, 0.6161569803361864),
    (1, 1784.4642740677987, -1.0, 0.6216417268944783),
    (1, 1688.45807002733, -1.0, 2.508701184594233),
    (2, 1914.9824502096942, 1.0, 2.5310324907825987),
    (2, 1851.7657085788312, -1.0, 2.5535625800062416),
    (0, 1569.8845401757771, -1.0, 2.5762932217404804),
    (1, 1858.334986813612, 0.0, 2.59922620121169),
    (0, 1645.4416838766497, 1.0, 0.6555908298843772),
    (2, 1858.9267864930318, -1.0, 0.6614265984670754),
    (1, 1933.2113767959322, 1.0, 1.6682857859561675),
    (2, 1875.2350926332062, 0.0, 1.6831361001046463),
    (0, 1671.2534696370055, 1.0, 1.6981186049318238),
    (1, 1803.963215068651, 0.0, 1.7132344771384318),
    (2, 2073.7516528810156, 0.0, 1.7284849038996524),
    (1, 1671.9871163655225, 0.0, 1.7438710829583568),
    (3, 1827.1985194206286, -1.0, 0.7037576890876689),
    (2, 1849.9331690185415, 0.0, 0.7100222169373559),
    (3, 1855.2236883811206, -1.0, 0.7163425087378856),
    (1, 1773.5068603286811, 0.0, 0.722719060874347),
    (0, 1638.3721522945584, 1.0, 0.7291523741504211),
    (0, 1705.5179032258936, 0.0, 0.7356429538277135),
    (1, 1919.4527167479523, -1.0, 0.7421913096654364),
    (2, 1790.7057086916357, 1.0, 1.8719948899011123),
    (1, 1849.7869086671249, -1.0, 1.8886585289690705),
    (4, 1862.1927350532037, -1.0, 0.7621882000406616),
    (0, 1684.9548700637008, 1.0, 0.7689728494731208),
    (0, 1797.9003919571358, -1.0, 0.7758178927399624),
    (1, 1740.920143934971, 1.0, 0.7827238674393727),
    (0, 1704.2355810989488, 1.0, 0.7896913159549908),
    (3, 1892.6292234752855, 1.0, 0.7967207854985053),
    (5, 1894.7208077735208, -1.0, 0.8038128281526328),
    (0, 1826.3224326176007, 1.0, 0.8109680009144759),
    (1, 1631.6782811863854, 0.0, 0.8181868657392705),
    (2, 1832.4573141566013, 0.0, 0.8254699895845196),
    (0, 1839.7267301945951, -1.0, 0.8328179444545214),
    (0, 1578.61832014659, -1.0, 2.1005782686132357),
    (2, 1782.8510450012986, 0.0, 2.1192766519747503),
    (3, 1866.088273422042, 0.0, 2.1381414797604306),
    (1, 1698.051652580716, 1.0, 2.157174233582125),
    (4, 1778.0230516714191, -1.0, 2.1763764082403103),
    (0, 1793.673652163346, 1.0, 2.195749511841491),
    (1, 1688.8425668371717, -1.0, 0.8861180263666576),
    (0, 1835.1316051967124, 0.0, 0.894005842216286),
    (2, 1911.452705752576, -1.0, 0.9019638717812732),
    (0, 1746.1224978085133, -1.0, 0.909992740071878),
    (1, 1961.1233740643504, 0.0, 0.9180930776619133),
    (1, 1738.4632739629217, -1.0, 0.9262655207382708),
    (1, 1784.127918821034, 0.0, 0.9345107111508857),
    (7, 1910.6485243917784, -1.0, 2.357073241157867),
    (1, 1874.6349627152583, 0.0, 2.378054825006887),
    (0, 1792.7280981313622, 0.0, 0.9596892709130335),
    (4, 1838.626861012523, 1.0, 0.9682319842046982),
    (1, 1628.8823882434963, 0.0, 0.9768507408080842),
    (1, 1837.827693008905, 1.0, 0.9855462176258405),
    (0, 1782.2823314434688, -1.0, 2.9829572927582784),
]

class TestLikelihood:
    def test_gradient_matches_finite_differences(self):
        X, y, w = synth_observations(0, n=300)
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

    @pytest.mark.parametrize("omega_tail", [False, True])
    def test_hessian_matches_finite_differences(self, omega_tail):
        # many zeros, a count covariate like the nested model's, and
        # (omega_tail) omega near 0, where the curvature is tiny
        rng = np.random.default_rng(17)
        n = 200
        X = np.column_stack(
            [np.ones(n), rng.normal(size=n), rng.choice([-1.0, 0.0, 1.0], n), rng.poisson(1.0, n)]
        )
        y = np.where(rng.random(n) < 0.5, 0, rng.poisson(1.5, n))
        w = rng.uniform(0.5, 3.0, n)
        sample = regression._sample(X, y, w)
        for _ in range(8):
            theta = np.concatenate(
                [rng.normal(0.0, 0.4, 4), [rng.normal(-1.0, 2.0), rng.normal(-1.0, 2.0)]]
            )
            if omega_tail:
                theta[5] = rng.uniform(-25.0, -15.0)
            hess = regression._loglik_derivatives(theta[None], sample, np.triu_indices(4))[2][0]
            numeric = np.empty_like(hess)
            for j in range(len(theta)):
                h = 1e-5 * (1.0 + abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                numeric[:, j] = (
                    loglik_and_grad(tp, X, y, w)[1] - loglik_and_grad(tm, X, y, w)[1]
                ) / (2 * h)
            assert_allclose(hess, hess.T, rtol=1e-12)
            assert_allclose(hess, numeric, rtol=1e-5, atol=1e-8 * np.abs(numeric).max())

    def test_loglik_is_weighted_sum_of_log_pmf(self):
        X, y, w = synth_observations(1, n=50)
        theta = np.array([0.8, -0.2, 0.1, math.log(0.5), math.log(0.15 / 0.85)])
        value, _ = loglik_and_grad(theta, X, y, w)
        params_at = lambda i: Zigp(
            float(np.exp(X[i] @ theta[:3])), 1.5, 0.15
        )
        manual = sum(
            w[i] * math.log(closed_form_pmf(params_at(i), [y[i]])[0]) for i in range(50)
        )
        assert value == pytest.approx(manual, rel=1e-12)


class TestFitter:
    def test_recovers_synthetic_parameters(self):
        c = fit_alone(*synth_observations(42, n=2000))
        assert_allclose(c.alpha, (0.9, -0.25, 0.2), atol=0.1)
        assert c.phi == pytest.approx(1.5, rel=0.15)
        assert c.omega == pytest.approx(0.15, rel=0.3)

    def test_stationary_point_in_raw_coordinates(self):
        X, y, w = synth_observations(3, n=800)
        c = fit_alone(X, y, w)
        theta = np.concatenate([c.alpha, [c.beta, c.gamma_log]])
        _, grad = loglik_and_grad(theta, X, y, w / np.mean(w))
        assert np.max(np.abs(grad)) < 1e-5

    def test_same_rows_same_coefficients(self):
        rows = synth_observations(4, n=400)
        a = fit_alone(*rows)
        b = fit_alone(*rows)
        assert a == b

    def test_weight_scale_invariance(self):
        X, y, w = synth_observations(5, n=400)
        a = fit_alone(X, y, w)
        b = fit_alone(X, y, w * 37.5)
        assert_allclose(a.alpha, b.alpha, atol=1e-6)
        assert a.phi == pytest.approx(b.phi, abs=1e-6)
        assert a.omega == pytest.approx(b.omega, abs=1e-6)

    def test_stalled_best_start_is_polished_further(self):
        # a sample on which an earlier multi-start fitter stalled on every
        # start (projected gradient 2.2e-2); the fit must be stationary on
        # the raw covariate scale
        X, y, w = table_rows(AUT_DEFENSE_2016)
        c = fit_alone(X, y, w)
        theta = np.concatenate([c.alpha, [c.beta, c.gamma_log]])
        _, grad = loglik_and_grad(theta, X, y, w / np.mean(w))
        assert np.max(np.abs(grad)) < 1e-5

    def test_interior_optimum_beats_flat_beta_boundary(self):
        X, y, w = table_rows(CZE_DEFENSE_2016)
        c = fit_alone(X, y, w)
        theta = np.concatenate([c.alpha, [c.beta, c.gamma_log]])
        value, _ = loglik_and_grad(theta, X, y, w / np.mean(w))
        assert -value < 90.9182 - 1e-3
        assert c.phi > 1.005

    def test_failed_fit_carries_its_point(self, monkeypatch):
        # one Newton step leaves the fit short of stationarity
        monkeypatch.setattr(regression, "_NEWTON_MAX_ITER", 1)
        runs = []
        newton_batch = regression._newton_batch

        def recording(*args):
            result = newton_batch(*args)
            runs.extend(zip(*result))  # one (theta, f, g) per regression
            return result

        monkeypatch.setattr(regression, "_newton_batch", recording)
        X, y, w = synth_observations(3, n=400)
        with pytest.raises(FitError) as info:
            fit_alone(X, y, w)
        (run,) = runs  # one run, from the least-squares start
        assert info.value.diagnostics["neg_loglik"] == run[1]
        coeffs = info.value.best
        assert isinstance(coeffs, RegressionCoefficients)
        assert (coeffs.beta, coeffs.gamma_log) == (run[0][-2], run[0][-1])
        theta = np.concatenate([coeffs.alpha, [coeffs.beta, coeffs.gamma_log]])
        value, _ = loglik_and_grad(theta, X, y, w / np.mean(w))
        assert -value == pytest.approx(run[1], rel=1e-9)

    def test_pure_poisson_data_pushes_to_boundary(self):
        rng = np.random.default_rng(8)
        n = 1500
        x1 = rng.normal(0.0, 1.0, n)
        X = np.column_stack([np.ones(n), x1])
        mu = np.exp(0.6 + 0.3 * x1)
        y = rng.poisson(mu)
        c = fit_alone(X, y, np.ones(n))
        assert c.phi < 1.1
        assert c.omega < 0.05
        assert_allclose(c.alpha, (0.6, 0.3), atol=0.1)

    def test_all_zero_responses_terminate(self):
        X = np.column_stack([np.ones(40), np.linspace(-1, 1, 40)])
        c = fit_alone(X, np.zeros(40, dtype=np.int64), np.ones(40))
        mean = (1 - c.omega) * math.exp(c.alpha[0])
        assert mean < 0.05

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            fit_alone(*synth_observations(9, n=9))

    def test_zero_total_weight(self):
        # every recency weight underflowed to 0 once made the weights NaN
        X, y, w = synth_observations(9, n=40)
        with pytest.raises(InsufficientDataError, match="40 observations have a total weight of 0"):
            fit_alone(X, y, np.zeros_like(w))

    def test_overflowing_total_weight(self):
        # weights of 1e308 sum past the largest float; the check itself must not warn
        X, y, w = synth_observations(9, n=40)
        with warnings.catch_warnings(), pytest.raises(
            InsufficientDataError, match="40 observations have a total weight of inf"
        ):
            warnings.simplefilter("error")
            fit_alone(X, y, np.full_like(w, 1e308))

    @pytest.mark.parametrize("bad", [-1, HARD_CAP + 1])
    def test_count_outside_the_table_rejected(self, bad):
        # log k! is tabulated for 0..HARD_CAP; -1 would read the table's last entry
        X, y, w = synth_observations(9, n=40)
        y[17] = bad
        with pytest.raises(ParameterError, match=rf"0\.\.{HARD_CAP}, got {bad}$"):
            regression._prepare(X, y, w)

    def test_constant_column_warns(self):
        s = np.random.default_rng(3).choice([-1, 0, 1], 60)
        X = np.column_stack([np.ones(60), np.full(60, 5.0), s.astype(float)])
        with pytest.warns(DesignMatrixWarning):
            fit_alone(X, np.random.default_rng(2).poisson(1.5, 60), np.ones(60))


class TestOmega:
    """omega = 1 / (1 + e^-gamma_log) in plain floats is scipy's expit bit for bit."""

    @staticmethod
    def omega(gamma_log):
        return RegressionCoefficients(alpha=(0.0,), beta=0.0, gamma_log=gamma_log).omega

    @pytest.mark.parametrize("gamma_log", [-800.0, -745.0, -709.8, -30.0, 0.0, 30.0, 36.73])
    def test_equals_expit(self, gamma_log):
        assert self.omega(gamma_log).hex() == float(expit(gamma_log)).hex()

    def test_random_sweep_equals_expit(self):
        rng = np.random.default_rng(14)
        gamma_log = np.concatenate(
            [rng.uniform(-800.0, 36.73, 20_000), np.clip(rng.normal(0.0, 5.0, 20_000), -40, 36)]
        )
        omegas = np.array([self.omega(float(g)) for g in gamma_log])
        assert np.array_equal(omegas, expit(gamma_log))


class TestArrayExpit:
    """The fitter's 1 / (1 + e^-x) on arrays against scipy's expit (the same
    formula on libm's exp): equal where numpy's exp is libm's, and within
    3 eps relative where numpy's AVX512 exp differs from libm's in the last
    bit (at most 2.3 eps on these points)."""

    def test_close_to_scipy(self):
        rng = np.random.default_rng(26)
        x = np.concatenate([np.linspace(-800.0, 800.0, 400_001), rng.uniform(-40.0, 40.0, 400_000)])
        ref = expit(x)
        assert_allclose(
            regression._expit(x), ref, rtol=3 * np.finfo(float).eps,
            atol=np.finfo(float).smallest_subnormal,
        )

    def test_exact_tails_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = regression._expit(np.array([-800.0, -745.2, -709.8, 37.0, 300.0, 800.0]))
        assert got.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


class TestChiSquareSf:
    """The closed-form survival function (A&S 26.4.4-5) for integer df, on
    x from 0 to 10*df: within 1e-12 relative of the oracle wherever that is
    above 1e-300, and below 1e-299 elsewhere."""

    @staticmethod
    def check(df, x, ref):
        got = chi_square_sf(df, x)
        if ref > 1e-300:
            assert abs(got - ref) <= 1e-12 * ref, (df, x, got)
        else:
            assert got <= 1e-299, (df, x, got)

    @pytest.mark.parametrize("df", [*range(1, 13), 29, 30, 97, 98, 150, 151, 299, 300, 399, 400])
    def test_against_mpmath(self, df):
        for x in np.linspace(0.0, 10.0 * df, 61).tolist():
            with mpmath.workdps(50):
                ref = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, regularized=True)
            self.check(df, x, ref)

    def test_against_scipy(self):
        for df in range(1, 401):
            xs = np.linspace(0.0, 10.0 * df, 21)
            for x, ref in zip(xs.tolist(), chdtrc(df, xs).tolist()):
                self.check(df, x, ref)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 51, 400])
    def test_edges(self, df):
        assert chi_square_sf(df, 0.0) == 1.0
        assert chi_square_sf(df, math.inf) == 0.0
        assert chi_square_sf(df, 1e6) == 0.0


class TestGof:
    def test_single_observation_df_clamp(self):
        # mean (1-omega)*mu ~= 1, observation 2 -> statistic 1, df clamped to 1
        c = RegressionCoefficients(alpha=(0.0,), beta=-30.0, gamma_log=-30.0)
        d = chi_square_gof(c, np.ones((1, 1)), np.array([2]))
        assert d.statistic == pytest.approx(1.0, abs=1e-9)
        assert d.df == 1
        assert d.n_obs == 1

    def test_perfect_fit_scores_zero(self):
        c = RegressionCoefficients(alpha=(0.0, 1.0), beta=-30.0, gamma_log=-30.0)
        y = np.array([1, 2, 3, 7])
        X = np.array([[1.0, math.log(k)] for k in y])
        d = chi_square_gof(c, X, y)
        assert d.statistic == pytest.approx(0.0, abs=1e-12)
        assert d.p_value == pytest.approx(1.0)
        assert d.df == 2

    def test_mean_uses_zero_inflation(self):
        # omega = 0.5 halves the fitted mean
        c = RegressionCoefficients(alpha=(math.log(2.0),), beta=-30.0, gamma_log=0.0)
        d = chi_square_gof(c, np.ones((1, 1)), np.array([1]))
        assert d.statistic == pytest.approx(0.0, abs=1e-9)

    def test_tiny_means_floored_with_warning(self):
        c = RegressionCoefficients(alpha=(-40.0,), beta=-30.0, gamma_log=-30.0)
        with pytest.warns(RuntimeWarning, match="floored"):
            d = chi_square_gof(c, np.ones((1, 1)), np.array([1]))
        assert np.isfinite(d.statistic)

    def test_p_values_roughly_uniform_under_true_model(self):
        # fit and test Poisson-generated data; median p-value near 0.5
        rng = np.random.default_rng(12)
        p_values = []
        for _ in range(150):
            n = 120
            x1 = rng.normal(0.0, 1.0, n)
            X = np.column_stack([np.ones(n), x1])
            y = rng.poisson(np.exp(0.5 + 0.3 * x1))
            c = fit_alone(X, y, np.ones(n))
            p_values.append(chi_square_gof(c, X, y).p_value)
        median = float(np.median(p_values))
        assert 0.3 < median < 0.7


class TestTeamOrchestration:
    def _history(self, rng, teams, n_rounds=120):
        elos = {t: 1800.0 + 80.0 * i for i, t in enumerate(teams)}
        matches = []
        day = dt.date(2015, 1, 1)
        for _ in range(n_rounds):
            order = rng.permutation(teams)
            for i in range(0, len(order) - 1, 2):
                a, b = str(order[i]), str(order[i + 1])
                diff = (elos[a] - elos[b]) / 400.0
                ga = int(rng.poisson(math.exp(0.2 + 0.3 * diff)))
                gb = int(rng.poisson(math.exp(0.2 - 0.3 * diff)))
                matches.append(
                    annotated(day, a, b, ga, gb, elos[a], elos[b], venue=a)
                )
            day += dt.timedelta(days=14)
        return matches

    def test_fits_all_teams(self, wcfg):
        rng = np.random.default_rng(21)
        teams = ["AAA", "BBB", "CCC", "DDD"]
        matches = self._history(rng, teams)
        summary = fit_team_models(matches, teams, FitConfig(weights=wcfg))
        assert sorted(summary.models) == teams
        assert summary.failures == {}
        m = summary.models["AAA"]
        assert len(m.attack.alpha) == 3
        assert len(m.defense.alpha) == 3
        assert len(m.nested.alpha) == 4
        assert set(m.diagnostics) >= {"attack", "defense"}

    def test_nested_fallback_for_top_team(self, wcfg):
        rng = np.random.default_rng(22)
        teams = ["AAA", "BBB", "CCC", "DDD"]
        matches = self._history(rng, teams)
        # DDD holds the highest rating and is never the underdog
        summary = fit_team_models(matches, teams, FitConfig(weights=wcfg))
        top = summary.models["DDD"]
        assert top.nested_fallback
        assert top.nested.alpha[:3] == top.attack.alpha
        assert top.nested.alpha[3] == 0.0
        assert "nested" not in top.diagnostics

    def test_failures_are_collected_not_raised(self, wcfg):
        rng = np.random.default_rng(23)
        teams = ["AAA", "BBB", "CCC", "DDD"]
        matches = self._history(rng, teams)
        summary = fit_team_models(matches, teams + ["ZZZ"], FitConfig(weights=wcfg))
        assert "ZZZ" in summary.failures
        assert sorted(summary.models) == teams


def fit_one_by_one(matches, teams, cfg):
    """``fit_team_models`` as one batch of one per regression.

    Returns {team: (attack, defense, nested or None)} and the failures.
    """
    models, failures = {}, {}
    for team in sorted(teams):
        attack_rows, defense_rows, nested_rows = team_rows(team, matches, cfg.weights)
        try:
            attack = fit_alone(*attack_rows)
            defense = fit_alone(*defense_rows)
            nested = None
            if len(nested_rows[1]) >= cfg.min_nested_obs:
                try:
                    nested = fit_alone(*nested_rows)
                except InsufficientDataError:
                    pass
        except FitError as exc:
            failures[team] = str(exc)
            continue
        models[team] = (attack, defense, nested)
    return models, failures


class TestBatchedFits:
    @pytest.fixture(scope="class")
    def demo(self, demo_history, data_dir, euro2020):
        """Replayed demo history, the EURO 2020 teams and the CLI's fit settings."""
        matches_path, ratings_path = demo_history
        cfg = load_config(data_dir / "default_config.json")
        annotated, _ = replay_history(
            load_ratings(ratings_path), load_matches(matches_path), cfg.k_factors
        )
        teams = sorted(t for ts in group_teams(euro2020[1]).values() for t in ts)
        fit_cfg = FitConfig(weights=cfg.weight_config(), min_nested_obs=cfg.min_nested_obs)
        return annotated, teams, fit_cfg

    def test_one_pass_equals_a_scan_per_team(self, demo):
        matches, teams, cfg = demo
        # FRA loses the annotation of its tenth match, after which its
        # later matches are not read; XXX has no matches
        tenth = [i for i, m in enumerate(matches) if "FRA" in (m.team_a, m.team_b)][9]
        matches = list(matches)
        matches[tenth] = dataclasses.replace(matches[tenth], elo_b_before=None)
        by_team = observations_by_team(teams + ["XXX"], matches, cfg.weights)
        assert list(by_team) == teams + ["XXX"]
        failed = 0
        for team, observations in by_team.items():
            try:
                expected = scan_observations(team, matches, cfg.weights)
            except (DataError, InsufficientDataError) as exc:
                failed += 1
                assert type(observations) is type(exc)
                assert str(observations) == str(exc), team
                continue
            assert_same_rows(observations, expected)
        assert failed == 3  # FRA, its tenth opponent and XXX

    @pytest.mark.parametrize("max_iter", [regression._NEWTON_MAX_ITER, 20])
    def test_batch_equals_fits_alone(self, demo, monkeypatch, max_iter):
        # at 20 steps some fits stop short of a stationary point and fail
        monkeypatch.setattr(regression, "_NEWTON_MAX_ITER", max_iter)
        matches, teams, cfg = demo
        # every underdog match of the team with the most of them moved to a
        # neutral venue: its nested location column is constant, so it fits
        # 3 columns and shares its batch with the full-rank attack and
        # defense regressions
        by_team = observations_by_team(teams, matches, cfg.weights)
        underdog = max(teams, key=lambda t: len(by_team[t][2][1]))
        neutral = [
            dataclasses.replace(m, venue_country="NEUTRAL")
            if underdog in (m.team_a, m.team_b)
            and (m.elo_a_before < m.elo_b_before) == (m.team_a == underdog)
            else m
            for m in matches
        ]
        with pytest.warns(DesignMatrixWarning, match="column 2 is constant"):
            summary = fit_team_models(neutral, teams, cfg)
        assert bool(summary.failures) == (max_iter == 20)
        pinned = summary.models[underdog]
        assert not pinned.nested_fallback
        assert pinned.nested.alpha[2] == 0.0

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DesignMatrixWarning)
            models, failures = fit_one_by_one(neutral, teams, cfg)
        assert summary.failures == failures
        assert sorted(summary.models) == sorted(models)
        for team, (attack, defense, nested) in models.items():
            model = summary.models[team]
            assert repr(model.attack) == repr(attack), team
            assert repr(model.defense) == repr(defense), team
            assert model.nested_fallback == (nested is None)
            if nested is not None:
                assert repr(model.nested) == repr(nested), team

    def test_failures_are_the_attack_fit_errors(self, demo, monkeypatch):
        # one Newton step leaves every fit short: each team fails on its attack fit
        monkeypatch.setattr(regression, "_NEWTON_MAX_ITER", 1)
        matches, teams, cfg = demo
        summary = fit_team_models(matches, teams, cfg)
        assert summary.models == {}
        expected = {}
        by_team = observations_by_team(teams, matches, cfg.weights)
        for team in teams:
            with pytest.raises(FitError) as info:
                fit_alone(*by_team[team][0])
            expected[team] = str(info.value)
        assert summary.failures == expected
        assert list(summary.failures) == teams

    def test_fit_draws_no_random_numbers(self, demo, monkeypatch):
        # the weighted likelihood has nothing random in it, and neither has its fit
        def no_randomness(*args, **kwargs):
            raise AssertionError("the fit asked for random numbers")

        monkeypatch.setattr(np.random, "SeedSequence", no_randomness)
        monkeypatch.setattr(np.random, "default_rng", no_randomness)
        matches, teams, cfg = demo
        summary = fit_team_models(matches, teams, cfg)
        assert summary.failures == {}
        assert sorted(summary.models) == teams
