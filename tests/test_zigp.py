"""ZIGP distribution: validation, oracle values, truncation, sampling."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from euroforecast import zigp
from euroforecast.errors import ParameterError
from euroforecast.zigp import (
    HARD_CAP,
    TAIL_EPS,
    ZigpParams,
    log_pmf,
    pmf,
    sample_block,
)

from conftest import SLACK, closed_form_cum, sampler_law

# values computed independently at 50-digit precision from the closed form
ORACLE_PMF = [
    # (mu, phi, omega, k, value)
    (1.0, 1.0, 0.0, 0, 0.3678794411714423),
    (1.35521, 1.0, 0.044888, 0, 0.29120482433369585),
    (2.0, 1.5, 0.1, 3, 0.10559169834124107),
    (0.5, 1.2, 0.3, 2, 0.051665091706048484),
    (3.0, 2.0, 0.2, 50, 6.704253479117521e-07),
]


class TestParams:
    def test_valid(self):
        p = ZigpParams(1.5, 1.2, 0.05)
        assert p.mu == 1.5

    @pytest.mark.parametrize(
        "mu,phi,omega",
        [
            (0.0, 1.0, 0.0),
            (-1.0, 1.0, 0.0),
            (float("nan"), 1.0, 0.0),
            (1.0, 0.99, 0.0),
            (1.0, float("inf"), 0.0),
            (1.0, 1.0, -0.01),
            (1.0, 1.0, 1.0),
        ],
    )
    def test_invalid(self, mu, phi, omega):
        with pytest.raises(ParameterError):
            ZigpParams(mu, phi, omega)

    def test_moments_closed_form(self):
        p = ZigpParams(2.0, 2.0, 0.5)
        assert p.mean() == pytest.approx(1.0)
        assert p.variance() == pytest.approx(5.0)

    def test_poisson_moments(self):
        p = ZigpParams(3.0, 1.0, 0.0)
        assert p.mean() == 3.0
        assert p.variance() == 3.0


class TestPmf:
    @pytest.mark.parametrize("mu,phi,omega,k,expected", ORACLE_PMF)
    def test_oracle_values(self, mu, phi, omega, k, expected):
        assert pmf(ZigpParams(mu, phi, omega), k) == pytest.approx(expected, rel=1e-12)

    def test_poisson_reduction(self):
        ks = np.arange(0, 30)
        for mu in (0.1, 0.5, 1.0, 1.35521, 2.0, 3.7, 5.0, 10.0):
            ours = pmf(ZigpParams(mu, 1.0, 0.0), ks)
            ref = stats.poisson.pmf(ks, mu)
            assert np.max(np.abs(ours - ref)) < 1e-12

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            pmf(ZigpParams(1.0, 1.0, 0.0), -1)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ParameterError):
            log_pmf(ZigpParams(1.0, 1.0, 0.0), np.array([0.5]))

    def test_large_k_underflows_to_zero(self):
        p = ZigpParams(1.0, 1.0, 0.0)
        assert pmf(p, 180) == 0.0
        assert np.isfinite(log_pmf(p, 150)) or log_pmf(p, 150) == -np.inf

    def test_log_pmf_scalar_matches_vector(self):
        p = ZigpParams(2.3, 1.4, 0.07)
        vec = log_pmf(p, np.arange(6))
        for k in range(6):
            assert log_pmf(p, k) == vec[k]

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.floats(0.05, 8.0),
        phi=st.floats(1.0, 3.0),
        omega=st.floats(0.0, 0.6),
    )
    def test_pmf_sums_to_one(self, mu, phi, omega):
        total = float(np.sum(pmf(ZigpParams(mu, phi, omega), np.arange(HARD_CAP + 1))))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_zero_inflation_raises_zero_mass(self):
        base = pmf(ZigpParams(2.0, 1.5, 0.0), 0)
        inflated = pmf(ZigpParams(2.0, 1.5, 0.3), 0)
        assert inflated == pytest.approx(0.3 + 0.7 * base)


class TestLogFactorial:
    def test_table_is_math_lgamma(self):
        expected = [math.lgamma(k + 1.0) for k in range(HARD_CAP + 1)]
        assert zigp._LOG_FACTORIAL[: HARD_CAP + 1].tolist() == expected

    @pytest.mark.parametrize("k", [250, 1000])
    def test_counts_above_the_cap_match_mpmath(self, k):
        mu, phi, omega = 2.0, 1.4, 0.1
        with mpmath.workdps(50):
            m = mpmath.mpf(mu) + (mpmath.mpf(phi) - 1) * k
            expected = float(
                mpmath.log(1 - mpmath.mpf(omega)) + mpmath.log(mu) + (k - 1) * mpmath.log(m)
                - mpmath.loggamma(k + 1) - k * mpmath.log(phi) - m / phi
            )
        p = ZigpParams(mu, phi, omega)
        assert log_pmf(p, k) == pytest.approx(expected, rel=1e-13)
        assert log_pmf(p, np.array([0, k]))[1] == log_pmf(p, k)
        assert zigp._LOG_FACTORIAL[k] == math.lgamma(k + 1.0)

    @pytest.mark.parametrize("k", [np.inf, 1e19, zigp.MAX_COUNT + 1, 2**63 - 1])
    def test_count_that_is_infinite_or_above_max_count_rejected(self, k):
        with pytest.raises(ParameterError):
            log_pmf(ZigpParams(1.0, 1.0, 0.0), np.array([k]))

    @pytest.mark.parametrize(
        "bad, got", [(0.5, "0.5"), (-3, "-3"), (zigp.MAX_COUNT + 7, str(zigp.MAX_COUNT + 7))]
    )
    def test_error_names_the_offending_count_only(self, bad, got):
        # 300 valid counts once put all 301 values, 2,473 characters, into the message
        ks = np.append(np.arange(300), bad)
        with pytest.raises(ParameterError) as raised:
            log_pmf(ZigpParams(1.0, 1.0, 0.0), ks)
        message = str(raised.value)
        assert message.endswith(f"got {got}") and len(message) < 60


def draw_from(p: ZigpParams, u) -> np.ndarray:
    """:func:`sample_block` on the uniforms ``u``, every row drawn from ``p``."""
    return sample_block(*(np.full(len(u), v) for v in (p.mu, p.phi, p.omega)), np.asarray(u))


# the stop point takes the remaining mass, so the largest uniform draws it
LAST_U = [np.nextafter(1.0, 0.0)]


class TestTruncation:
    def test_truncated_sums_to_one(self):
        for mu, phi, omega in [(2.0, 1.5, 0.1), (0.2, 1.0, 0.0), (8.0, 2.5, 0.4)]:
            p = ZigpParams(mu, phi, omega)
            probs = sampler_law(p)
            assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)
            assert draw_from(p, LAST_U)[0] == len(probs) - 1

    def test_truncation_stops_early_for_small_mu(self):
        p = ZigpParams(0.5, 1.0, 0.0)
        probs = sampler_law(p)
        assert len(probs) < 30
        assert draw_from(p, LAST_U)[0] == len(probs) - 1

    def test_heavy_tail_hits_hard_cap(self):
        # mass beyond 200 at these parameters is 2.27e-8 > TAIL_EPS, so
        # the law runs to the cap and the cap takes the tail
        p = ZigpParams(10.0, 3.0, 0.0)
        probs = sampler_law(p)
        assert len(probs) == HARD_CAP + 1
        assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert draw_from(p, LAST_U)[0] == HARD_CAP


class TestSampling:
    def test_deterministic_given_seed(self):
        p = ZigpParams(1.7, 1.3, 0.08)
        a = draw_from(p, np.random.default_rng(5).random(1000))
        b = draw_from(p, np.random.default_rng(5).random(1000))
        assert np.array_equal(a, b)

    def test_empirical_frequencies_match_pmf(self):
        p = ZigpParams(1.04, 1.3, 0.08)
        rng = np.random.default_rng(1)
        n = 200_000
        theo = pmf(p, np.arange(10))
        emp = np.bincount(draw_from(p, rng.random(n)), minlength=10)[:10] / n
        se = np.sqrt(theo * (1 - theo) / n)
        assert np.all(np.abs(emp - theo) < 4 * se + 1e-9)

    def test_moments_match_closed_form(self):
        p = ZigpParams(2.0, 1.5, 0.1)
        rng = np.random.default_rng(2)
        n = 400_000
        got = draw_from(p, rng.random(n))
        se_mean = np.sqrt(p.variance() / n)
        assert abs(np.mean(got) - p.mean()) < 4 * se_mean
        assert np.var(got) == pytest.approx(p.variance(), rel=0.02)

    def test_pure_zero_inflation_frequency(self):
        p = ZigpParams(4.0, 1.0, 0.5)
        rng = np.random.default_rng(3)
        frac_zero = np.mean(draw_from(p, rng.random(100_000)) == 0)
        assert frac_zero == pytest.approx(pmf(p, 0), abs=0.01)


def scalar_draws(mu, phi, omega, u):
    """:func:`sample_block` once per row, on one-row arrays."""
    rows = zip(mu, phi, omega, u)
    return np.array([sample_block(*(np.array([v]) for v in row))[0] for row in rows])


def column_loop(mu, phi, omega, u):
    """The block sampler as a loop of whole :func:`zigp.log_pmf_table`
    columns: the draws, and each row's cumulative mass at its draw."""
    draws = np.zeros(len(u), dtype=np.int64)
    cum = np.exp(zigp.log_pmf_table(mu, phi, omega, 0))
    mass = cum.copy()
    rows = np.flatnonzero((cum <= u) & (cum < 1.0 - TAIL_EPS))
    cum = cum[rows]
    for k in range(1, HARD_CAP + 1):
        if not rows.size:
            break
        cum += np.exp(zigp.log_pmf_table(mu[rows], phi[rows], omega[rows], k))
        draws[rows] = k
        mass[rows] = cum
        going = (cum <= u[rows]) & (cum < 1.0 - TAIL_EPS)
        rows, cum = rows[going], cum[going]
    return draws, mass


class TestBlockSampling:
    def test_draws_equal_the_column_loop(self):
        # The sampler's per-row terms must be summed in log_pmf_table's
        # order: a cumulative mass one ulp off moves the draw of a row
        # whose uniform is that mass or the float just below it.
        rng = np.random.default_rng(21)
        n = 200_000
        mu = np.exp(rng.uniform(np.log(1e-3), np.log(190.0), n))
        phi = rng.uniform(1.0, 3.0, n)
        phi[::5] = 1.0
        omega = rng.uniform(0.0, 0.4, n)
        omega[::4] = 0.0
        u = rng.random(n)
        u[::50] = 1.0 - rng.uniform(0.0, 1e-10, len(u[::50]))
        draws, mass = column_loop(mu, phi, omega, u)
        assert sample_block(mu, phi, omega, u).tolist() == draws.tolist()
        assert np.any(draws == HARD_CAP)
        assert np.any((u > 1.0 - TAIL_EPS) & (draws < HARD_CAP))  # stopped at 1 - TAIL_EPS
        on_mass = np.flatnonzero(mass < 1.0)
        u[on_mass[::2]] = mass[on_mass[::2]]
        u[on_mass[1::2]] = np.nextafter(mass[on_mass[1::2]], 0.0)
        assert sample_block(mu, phi, omega, u).tolist() == column_loop(mu, phi, omega, u)[0].tolist()

    def test_heavy_tail_rows_take_the_full_table(self):
        mu = np.array([8.0, 8.0, 0.5, 8.0])
        phi = np.array([3.0, 3.0, 1.0, 3.0])
        omega = np.array([0.0, 0.2, 0.0, 0.1])
        u = np.array([0.5, 0.999, 0.3, np.nextafter(1.0, 0.0)])
        draws = sample_block(mu, phi, omega, u)
        assert draws[1] >= 32  # beyond the first 32 counts

    @pytest.mark.parametrize("draw", [sample_block, scalar_draws])
    def test_draws_invert_the_closed_form(self, draw):
        rng = np.random.default_rng(8)
        n = 2000
        mu = rng.uniform(0.02, 5.0, n)
        phi = rng.uniform(1.0, 2.0, n)
        omega = rng.uniform(0.0, 0.4, n)
        omega[::4] = 0.0
        u = rng.random(n)
        u[::17] = np.nextafter(1.0, 0.0)
        # heavy tails beyond 32 counts, and the clamp at the cap
        mu[:4], phi[:4], omega[:4] = [8.0, 8.0, 10.0, 10.0], [3.0, 3.0, 3.0, 3.0], 0.0
        u[:4] = [0.999, np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0), 0.5]
        draws = draw(mu, phi, omega, u)
        assert draws[0] >= 32 and draws[1] >= 32
        assert draws[2] == HARD_CAP
        checked = 0
        for k, m, p, o, x in zip(draws.tolist(), mu, phi, omega, u):
            cum = closed_form_cum(m, p, o)
            if any(abs(x - c) < SLACK for c in cum):
                continue  # rounding could move a boundary past u
            below = cum[k - 1] if k else 0.0
            assert below <= x and below < 1.0 - TAIL_EPS + SLACK
            assert x < cum[k] or cum[k] >= 1.0 - TAIL_EPS - SLACK or k == HARD_CAP
            checked += 1
        assert checked == n
