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

All likelihood-facing evaluation happens in log space (log-gamma for
the factorial); the plain pmf is exp() of that, so large k underflows
gracefully to 0 instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import ParameterError

# Truncation used for normalizing/sampling: stop at the first k whose
# cumulative mass reaches 1 - TAIL_EPS, never beyond HARD_CAP.  At
# football-scale parameters (mu <= 10, phi <= 3) the mass beyond 200 is
# below 1e-7, so the induced bias is negligible.
HARD_CAP = 200
TAIL_EPS = 1e-9


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


def _check_k(k) -> None:
    arr = np.asarray(k)
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ParameterError(f"k must be integer, got {k}")
    if np.any(arr < 0):
        raise ParameterError(f"k must be non-negative, got {k}")


def log_pmf_table(mu, phi, omega, k):
    """log P[X=k] for float counts ``k``; broadcasts the parameters against ``k``.

    The pmf, the block sampler's table and the score grid all evaluate
    their terms here.  Both branches are computed elementwise and the
    zero-inflated k = 0 term is picked where k == 0.
    """
    log1m_omega = np.log1p(-omega)
    m = mu + (phi - 1.0) * k
    positive = (
        log1m_omega
        + np.log(mu)
        + (k - 1.0) * np.log(m)
        - gammaln(k + 1.0)
        - k * np.log(phi)
        - m / phi
    )
    # log(0) = -inf for omega = 0, and logaddexp(-inf, x) is x exactly
    with np.errstate(divide="ignore"):
        zero = np.logaddexp(np.log(omega), log1m_omega - mu / phi)
    return np.where(k == 0, zero, positive)


def log_pmf_values(params: ZigpParams, ks: np.ndarray) -> np.ndarray:
    """Vectorized log-pmf over an integer array ``ks``.

    Parameters
    ----------
    params : ZigpParams
        Distribution parameters.
    ks : array of int
        Count values, all >= 0.

    Returns
    -------
    np.ndarray
        log P[X=k] for each k; -inf where the pmf underflows.
    """
    _check_k(ks)
    return log_pmf_table(params.mu, params.phi, params.omega, np.asarray(ks, dtype=float))


def log_pmf(params: ZigpParams, k: int) -> float:
    """log P[X=k], numerically stable for large k."""
    return float(log_pmf_values(params, np.array([k]))[0])


def pmf_values(params: ZigpParams, ks: np.ndarray) -> np.ndarray:
    """Vectorized pmf; exp of :func:`log_pmf_values`."""
    return np.exp(log_pmf_values(params, ks))


def pmf(params: ZigpParams, k: int) -> float:
    """P[X=k] for a single count k >= 0."""
    return float(np.exp(log_pmf(params, k)))


@lru_cache(maxsize=4096)
def _truncated_table(mu: float, phi: float, omega: float, cap: int):
    """Truncated-and-renormalized pmf table plus its cumulative sums.

    Truncation point: first k with cumulative mass >= 1 - TAIL_EPS,
    hard-capped at ``cap``.  The returned arrays must not be mutated
    (they are shared through the cache).
    """
    p = pmf_values(ZigpParams(mu, phi, omega), np.arange(cap + 1))
    c = np.cumsum(p)
    stop = min(int(np.searchsorted(c, 1.0 - TAIL_EPS)), cap)
    probs = p[: stop + 1] / c[stop]
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return probs, cum


def truncated_pmf(params: ZigpParams, cap: int = HARD_CAP) -> np.ndarray:
    """Renormalized pmf over the truncated support used for sampling."""
    probs, _ = _truncated_table(params.mu, params.phi, params.omega, cap)
    return probs


def sample(params: ZigpParams, rng: np.random.Generator, size: int | None = None):
    """Draw from ZIGP by inversion over the truncated pmf.

    With ``size=None`` returns a single int, otherwise an int64 array.
    Deterministic given the generator state.
    """
    _, cum = _truncated_table(params.mu, params.phi, params.omega, HARD_CAP)
    idx = cum.searchsorted(rng.random(size), side="right")
    if size is None:
        return min(int(idx), len(cum) - 1)
    return np.minimum(idx, len(cum) - 1).astype(np.int64)


# Columns of the block sampler's table: counts 0..BLOCK_TABLE_WIDTH-1.
# A row whose truncation point lies beyond it takes the full table.
BLOCK_TABLE_WIDTH = 32
_BLOCK_K = np.arange(BLOCK_TABLE_WIDTH, dtype=float)


def _check_param_arrays(mu: np.ndarray, phi: np.ndarray, omega: np.ndarray) -> None:
    """The checks of :class:`ZigpParams`, once over whole parameter arrays."""
    for name, values, ok, rule in (
        ("mu", mu, (mu > 0) & np.isfinite(mu), "positive and finite"),
        ("phi", phi, (phi >= 1) & np.isfinite(phi), ">= 1 and finite"),
        ("omega", omega, (omega >= 0) & (omega < 1), "in [0, 1)"),
    ):
        if not ok.all():
            raise ParameterError(f"{name} must be {rule}, got {values[~ok][0]}")


def sample_block(
    mu: np.ndarray, phi: np.ndarray, omega: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Inverse-CDF draws for parameter arrays, one uniform ``u`` per row.

    Row ``i`` equals :func:`sample` on ``ZigpParams(mu[i], phi[i],
    omega[i])`` when that call draws ``u[i]``: the pmf terms, the
    truncation point and the renormalized cumulative sums are computed
    with the same formulas and in the same order, over the first
    ``BLOCK_TABLE_WIDTH`` counts.
    """
    _check_param_arrays(mu, phi, omega)
    p = np.exp(log_pmf_table(mu[:, None], phi[:, None], omega[:, None], _BLOCK_K))
    c = np.cumsum(p, axis=1)
    reached = c >= 1.0 - TAIL_EPS
    in_table = reached[:, -1]
    stop = reached.argmax(axis=1)
    rows = np.arange(len(u))
    cum = np.cumsum(p / np.where(in_table, c[rows, stop], 1.0)[:, None], axis=1)
    cum[rows, stop] = 1.0
    below = (cum <= u[:, None]) & (np.arange(BLOCK_TABLE_WIDTH) < stop[:, None])
    draws = below.sum(axis=1)
    for i in np.flatnonzero(~in_table):
        _, full = _truncated_table(float(mu[i]), float(phi[i]), float(omega[i]), HARD_CAP)
        draws[i] = min(int(np.searchsorted(full, u[i], side="right")), len(full) - 1)
    return draws
