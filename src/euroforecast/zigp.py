"""Zero-inflated generalized Poisson (ZIGP) distribution.

A count X follows ZIGP(mu, phi, omega) when

    P[X=0] = omega + (1-omega) * exp(-mu/phi)
    P[X=k] = (1-omega) * mu * (mu + (phi-1)k)^(k-1) / k!
             * phi^(-k) * exp(-(mu + (phi-1)k)/phi)      for k >= 1

with intensity mu > 0, dispersion phi >= 1 and zero-inflation mass
omega in [0, 1).  phi = 1, omega = 0 recovers the classical Poisson
distribution.  Closed-form moments:

    E[X]   = (1-omega) * mu
    Var[X] = (1-omega) * mu * (phi^2 + omega*mu)

All likelihood-facing evaluation happens in log space, with log k!
read from one table of ``math.lgamma(k + 1)``; the plain pmf is exp()
of that, so large k underflows gracefully to 0 instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Truncation of the sampler: a draw stops at the first k whose cumulative
# mass reaches 1 - TAIL_EPS (k then takes the rest), never beyond HARD_CAP.
# At football-scale parameters (mu <= 10, phi <= 3) the mass beyond 200
# is below 1e-7, so the induced bias is negligible.
HARD_CAP = 200
TAIL_EPS = 1e-9

# log k! for k = 0..HARD_CAP, the only source of the factorial term; the
# sampler's draws stop at HARD_CAP.  ``log_pmf`` extends it for larger
# counts, up to MAX_COUNT (an 8 MB table).
MAX_COUNT = 10**6
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(HARD_CAP + 1)])


@dataclass(frozen=True)
class ZigpParams:
    """Parameter triple of one goal-count distribution."""

    mu: float
    phi: float
    omega: float

    def __post_init__(self):
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ParameterError(f"mu must be positive and finite, got {self.mu}")
        if not (self.phi >= 1 and math.isfinite(self.phi)):
            raise ParameterError(f"phi must be >= 1 and finite, got {self.phi}")
        if not (0 <= self.omega < 1):
            raise ParameterError(f"omega must lie in [0, 1), got {self.omega}")

    def mean(self) -> float:
        return (1.0 - self.omega) * self.mu

    def variance(self) -> float:
        return (1.0 - self.omega) * self.mu * (self.phi**2 + self.omega * self.mu)


def _counts(k) -> np.ndarray:
    """``k`` as a 1-d int64 array, with log k! in the table for each count."""
    global _LOG_FACTORIAL
    arr = np.asarray(k)
    if not np.issubdtype(arr.dtype, np.integer):
        bad = arr[~(np.isfinite(arr) & (arr == np.floor(arr)))]
        if bad.size:
            raise ParameterError(f"k must be integer, got {bad.flat[0]}")
    if np.any(arr < 0):
        raise ParameterError(f"k must be non-negative, got {arr.min()}")
    if np.any(arr > MAX_COUNT):
        raise ParameterError(f"k must be at most {MAX_COUNT}, got {arr.max()}")
    ks = np.atleast_1d(arr.astype(np.int64))
    size = len(_LOG_FACTORIAL)
    if ks.size and ks.max() >= size:
        more = [math.lgamma(j + 1.0) for j in range(size, int(ks.max()) + 1)]
        _LOG_FACTORIAL = np.concatenate([_LOG_FACTORIAL, more])
    return ks


def _log_pmf_zero(log1m_omega, mu, phi, omega):
    """log P[X=0], given log(1-omega)."""
    # log(0) = -inf for omega = 0, and logaddexp(-inf, x) is x exactly
    with np.errstate(divide="ignore"):
        return np.logaddexp(np.log(omega), log1m_omega - mu / phi)


def _log_pmf_positive(head, mu, phi, log_phi, k):
    """log P[X=k] for counts k >= 1, given head = log(1-omega) + log(mu) and log(phi)."""
    m = mu + (phi - 1.0) * k
    return head + (k - 1.0) * np.log(m) - _LOG_FACTORIAL[k] - k * log_phi - m / phi


def log_pmf_table(mu, phi, omega, k):
    """log P[X=k] for integer counts ``k``; broadcasts the parameters against ``k``.

    The pmf and the score grid evaluate their terms here, from the same
    two term helpers as the block sampler.  The k >= 1 term is picked
    where k > 0, the zero-inflated k = 0 term where k == 0.  Counts must
    be at most HARD_CAP, or covered by an earlier :func:`log_pmf` call.
    """
    log1m_omega = np.log1p(-omega)
    positive = _log_pmf_positive(log1m_omega + np.log(mu), mu, phi, np.log(phi), k)
    return np.where(k == 0, _log_pmf_zero(log1m_omega, mu, phi, omega), positive)


def log_pmf(params: ZigpParams, k):
    """log P[X=k] for one count, or for each count of an integer array.

    Returns a float for a count and an array for an array; -inf where the
    pmf underflows.
    """
    values = log_pmf_table(params.mu, params.phi, params.omega, _counts(k))
    return values if np.ndim(k) else float(values[0])


def pmf(params: ZigpParams, k):
    """P[X=k]; exp of :func:`log_pmf`, a float for a count and an array for an array."""
    values = np.exp(log_pmf(params, k))
    return values if np.ndim(k) else float(values)


def sample_block(
    mu: np.ndarray, phi: np.ndarray, omega: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Inverse-CDF draws for parameter arrays, one uniform ``u`` per row.

    Sequential search (Devroye 1986, ch. III): the cumulative mass grows
    by one column of k >= 1 terms per step, over the rows still active;
    each row's constant terms are computed once and compacted with it.
    A row stops at the first k whose cumulative mass exceeds ``u`` or
    reaches 1 - TAIL_EPS, and at HARD_CAP at the latest; the stop point
    takes the remaining mass, so nothing is renormalized.  The terms and
    their order are :func:`log_pmf_table`'s, so the draws follow it bit
    for bit.  Every ZIGP draw in the package goes through here, from
    ``forecast.sample_match_block``.  The parameters are not checked
    here: that caller checks its means, and its phi and omega are valid
    by construction.
    """
    draws = np.zeros(len(u), dtype=np.int64)
    log1m_omega = np.log1p(-omega)
    cum = np.exp(_log_pmf_zero(log1m_omega, mu, phi, omega))
    rows = np.flatnonzero((cum <= u) & (cum < 1.0 - TAIL_EPS))
    cum, u, mu, phi = cum[rows], u[rows], mu[rows], phi[rows]
    head, log_phi = log1m_omega[rows] + np.log(mu), np.log(phi)
    for k in range(1, HARD_CAP + 1):
        if not rows.size:
            break
        cum += np.exp(_log_pmf_positive(head, mu, phi, log_phi, k))
        draws[rows] = k
        going = np.flatnonzero((cum <= u) & (cum < 1.0 - TAIL_EPS))
        rows, cum, u, mu, phi, head, log_phi = (
            a[going] for a in (rows, cum, u, mu, phi, head, log_phi)
        )
    return draws
