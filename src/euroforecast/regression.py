"""Per-team goal regressions on weighted match history.

Three ZIGP regressions are fitted for every team T:

* attack:  goals scored by T,  log mu = a0 + a1*opponent_elo + a2*loc
* defense: goals conceded by T, same linear predictor
* nested:  goals scored by T in matches where T was the Elo underdog,
           log mu = a0 + a1*opponent_elo + a2*loc + a3*opponent_goals

Dispersion and zero-inflation are reparameterized so that every
candidate point is a valid distribution:

    phi = 1 + exp(beta),   omega = exp(gamma)/(1 + exp(gamma)).

Fitting maximizes the weighted log-likelihood
L(theta) = sum_i w_i * log pmf(mu_i, phi, omega; x_i) by a damped
projected Newton method with the closed-form gradient and Hessian,
started from a log-link least-squares fit; four jittered copies of
that start are tried only when it does not reach a stationary point.
Covariates are standardized internally for conditioning; returned
coefficients are on the raw covariate scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np
from scipy.special import chdtrc, expit, gammaln

from .errors import DataError, FitError, InsufficientDataError, ParameterError
from .forecast import location_indicator
from .weights import WeightConfig, match_weight

if TYPE_CHECKING:
    from .data_io import MatchRecord

_ETA_CLIP = 30.0  # guard against exp overflow during line-search excursions
_BETA_BOUNDS = (-30.0, 5.0)
_GAMMA_BOUNDS = (-30.0, 30.0)
_ALPHA_BOUND = 50.0
_GOF_MEAN_FLOOR = 1e-8
_STATIONARY_GTOL = 1e-6  # projected |grad| above which a fit has failed
# Newton's own tolerance is tighter: a raw-scale coefficient's gradient is
# the standardized one times the covariate's center (~1,800 for Elo).
_NEWTON_GTOL = 1e-9
# Towards the pure-Poisson corner (phi -> 1, omega -> 0) Newton moves
# beta and gamma by about one unit per step.
_NEWTON_MAX_ITER = 100


class DesignMatrixWarning(UserWarning):
    """A covariate column (beyond the intercept) is constant."""


@dataclass(frozen=True)
class RegressionCoefficients:
    """One fitted coefficient set: linear predictor plus (beta, gamma)."""

    alpha: tuple[float, ...]
    beta: float
    gamma_log: float

    @property
    def phi(self) -> float:
        return 1.0 + math.exp(self.beta)

    @property
    def omega(self) -> float:
        return float(expit(self.gamma_log))

    def predict_mu(self, covariates: Sequence[float]) -> float:
        eta = float(np.dot(self.alpha, covariates))
        try:
            return math.exp(eta)
        except OverflowError:
            raise ParameterError(f"mu = exp({eta:.6g}) overflows") from None


@dataclass(frozen=True)
class FitObservation:
    response: int
    covariates: tuple[float, ...]
    weight: float


@dataclass(frozen=True)
class FitDiagnostics:
    statistic: float
    df: int
    p_value: float
    n_obs: int


@dataclass(frozen=True)
class TeamModel:
    team: str
    attack: RegressionCoefficients
    defense: RegressionCoefficients
    nested: RegressionCoefficients
    diagnostics: dict = field(default_factory=dict)
    nested_fallback: bool = False


@dataclass(frozen=True)
class FitConfig:
    weights: WeightConfig
    seed: int = 0
    min_nested_obs: int = 10


@dataclass
class FitSummary:
    models: dict[str, TeamModel]
    failures: dict[str, str]


# ---------------------------------------------------------------------------
# observation builders
# ---------------------------------------------------------------------------


def build_observations(
    team: str, matches: Sequence["MatchRecord"], cfg: WeightConfig
) -> tuple[list[FitObservation], list[FitObservation], list[FitObservation]]:
    """The attack, defense and nested observations of ``team``, in one pass.

    attack: goals scored by ``team`` against (1, opponent Elo, location);
    defense: goals conceded, same covariates; nested: underdog matches
    only (strictly lower Elo before kickoff; equal ratings have no
    strict ordering), goals scored with the opponent's goals as a fourth
    covariate.  Every row carries the match's weight.
    """
    attack, defense, nested = [], [], []
    for m in matches:
        if team != m.team_a and team != m.team_b:
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
        attack.append(FitObservation(goals, (1.0, opp_elo, loc), weight))
        defense.append(FitObservation(conceded, (1.0, opp_elo, loc), weight))
        if own_elo < opp_elo:
            nested.append(
                FitObservation(goals, (1.0, opp_elo, loc, float(conceded)), weight)
            )
    if not attack:
        raise InsufficientDataError(f"team {team!r} has no matches in the data window")
    return attack, defense, nested


def design_matrix(observations: Sequence[FitObservation]):
    """Stack observations into (X, y, w) arrays."""
    X = np.array([o.covariates for o in observations], dtype=float)
    y = np.array([o.response for o in observations], dtype=np.int64)
    w = np.array([o.weight for o in observations], dtype=float)
    return X, y, w


# ---------------------------------------------------------------------------
# weighted likelihood
# ---------------------------------------------------------------------------


class _Sample(NamedTuple):
    """One regression's rows with the constants of its fit."""

    X: np.ndarray
    w: np.ndarray
    zero: np.ndarray  # response == 0
    k: np.ndarray  # the responses, as floats
    log_k_factorial: np.ndarray


def _sample(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> _Sample:
    k = y.astype(float)
    return _Sample(X, w, y == 0, k, gammaln(k + 1.0))


def _loglik_derivatives(theta: np.ndarray, s: _Sample):
    """Weighted ZIGP log-likelihood with its gradient and Hessian.

    Each observation's log-pmf is differentiated in its linear predictor
    eta = x.alpha and in phi, then chained to beta; with t = mu/phi and
    r = expit(gamma + t), the posterior probability that a zero is a
    structural one, a zero's log-pmf is log(e^gamma + e^-t) - log(1 + e^gamma).
    Returns (L, dL/dtheta, d2L/dtheta2).
    """
    X, w, zero, k = s.X, s.w, s.zero, s.k
    p = X.shape[1]
    beta, gamma = theta[p], theta[p + 1]
    eta = np.clip(X @ theta[:p], -_ETA_CLIP, _ETA_CLIP)
    mu = np.exp(eta)
    b = math.exp(beta)  # phi - 1 = dphi/dbeta
    phi = 1.0 + b
    omega = float(expit(gamma))
    log1m_omega = -np.logaddexp(0.0, gamma)

    t = mu / phi
    r, q = expit(gamma + t), expit(-gamma - t)
    m = mu + b * k
    c = k * (k - 1.0) / m**2
    positive = (k - 1.0) * np.log(m) - s.log_k_factorial - k * math.log1p(b) - m / phi
    ll = np.where(zero, np.logaddexp(gamma, -t) + log1m_omega, log1m_omega + eta + positive)
    l_eta = np.where(zero, -q * t, 1.0 + mu * (k - 1.0) / m - t)
    l_phi = np.where(zero, q * t / phi, k * (k - 1.0) / m - k / phi + (mu - k) / phi**2)
    l_eta_eta = np.where(zero, t * (r * q * t - q), mu * b * c - t)
    l_eta_phi = np.where(zero, q * t * (1.0 - r * t) / phi, mu * (1.0 / phi**2 - c))
    l_phi_phi = np.where(
        zero, t * (r * q * t - 2.0 * q) / phi**2, k / phi**2 - k * c - 2.0 * (mu - k) / phi**3
    )
    wz = np.where(zero, w, 0.0)
    rqt = r * q * t

    grad = np.empty(p + 2)
    grad[:p] = X.T @ (w * l_eta)
    grad[p] = b * float(w @ l_phi)
    grad[p + 1] = float(wz @ r) - omega * w.sum()
    hess = np.empty((p + 2, p + 2))
    hess[:p, :p] = (X * (w * l_eta_eta)[:, None]).T @ X
    hess[:p, p] = b * (X.T @ (w * l_eta_phi))
    hess[:p, p + 1] = X.T @ (wz * rqt)
    hess[p, p] = float(w @ (b * b * l_phi_phi + b * l_phi))
    hess[p, p + 1] = -b / phi * float(wz @ rqt)
    hess[p + 1, p + 1] = float(wz @ (r * q)) - omega * (1.0 - omega) * w.sum()
    hess[p, :p] = hess[:p, p]
    hess[p + 1, : p + 1] = hess[: p + 1, p + 1]
    return float(w @ ll), grad, hess


def loglik_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted ZIGP log-likelihood and its analytic gradient.

    ``theta`` is [alpha_0..alpha_{p-1}, beta, gamma] matching the
    columns of ``X``.  Returns (L, dL/dtheta).
    """
    total, grad, _ = _loglik_derivatives(theta, _sample(X, y, w))
    return total, grad


def _pinned(grad, theta, lo, hi):
    """Coordinates at a bound that the (negated) gradient pushes outward."""
    return ((theta <= lo + 1e-12) & (grad > 0)) | ((theta >= hi - 1e-12) & (grad < 0))


def _projected_grad_norm(grad, theta, lo, hi):
    """Inf-norm of the gradient with outward components at active bounds zeroed."""
    return float(np.max(np.abs(grad[~_pinned(grad, theta, lo, hi)]), initial=0.0))


def _newton(theta, s: _Sample, lo, hi):
    """Minimize the negated log-likelihood by damped projected Newton steps.

    Coordinates held at a bound are fixed (Bertsekas 1982).  On the
    others the Hessian's eigenvalues enter by absolute value, floored
    far below the largest: negative curvature still gives a descent
    step, and towards the pure-Poisson corner, where the curvature in
    beta and gamma is as small as the gradient, steps stay near one
    unit.  A step is projected onto the box and halved until it lowers
    the objective or, at negligible objective cost, the projected
    gradient, which near the optimum still carries signal.
    """
    theta = np.clip(theta, lo, hi)
    f, g, H = (-v for v in _loglik_derivatives(theta, s))
    for _ in range(_NEWTON_MAX_ITER):
        pg = _projected_grad_norm(g, theta, lo, hi)
        if pg < _NEWTON_GTOL:
            break
        free = ~_pinned(g, theta, lo, hi)
        lam, vec = np.linalg.eigh(H[np.ix_(free, free)])
        lam = np.maximum(np.abs(lam), 1e-12 * max(-lam[0], lam[-1], 1.0))
        step = np.zeros_like(theta)
        step[free] = -vec @ ((vec.T @ g[free]) / lam)
        for _ in range(30):
            cand = np.clip(theta + step, lo, hi)
            fc, gc, Hc = (-v for v in _loglik_derivatives(cand, s))
            if fc < f or (
                fc <= f + 1e-12 * (1.0 + abs(f))
                and _projected_grad_norm(gc, cand, lo, hi) < pg
            ):
                break
            step *= 0.5
        else:
            break
        theta, f, g, H = cand, fc, gc, Hc
    return theta, f, g


def _standardize(X):
    """Center/scale covariate columns beyond an all-ones intercept.

    Returns the transformed matrix, the centers and scales used, and a
    boolean mask of constant non-intercept columns.  Those columns are
    collinear with the intercept; the fitter excludes them and pins their
    coefficients at zero.
    """
    n, p = X.shape
    center = np.zeros(p)
    scale = np.ones(p)
    constant = np.zeros(p, dtype=bool)
    if not np.allclose(X[:, 0], 1.0):
        return X, center, scale, constant
    for j in range(1, p):
        std = X[:, j].std()
        if std < 1e-12:
            warnings.warn(
                f"covariate column {j} is constant; its coefficient is fixed at zero",
                DesignMatrixWarning,
                stacklevel=3,
            )
            constant[j] = True
            continue
        center[j] = X[:, j].mean()
        scale[j] = std
    Xz = (X - center) / scale
    return Xz, center, scale, constant


def _alpha_to_raw(alpha_z, center, scale):
    alpha = np.asarray(alpha_z) / scale
    alpha[0] = alpha_z[0] - float(np.sum(alpha_z[1:] * center[1:] / scale[1:]))
    return alpha


def fit_zigp(
    observations: Sequence[FitObservation], seed: int = 0
) -> RegressionCoefficients:
    """Weighted maximum-likelihood fit of one ZIGP regression.

    Damped projected Newton with the analytic Hessian from a weighted
    least-squares warm start; only when that ends short of a stationary
    point is it rerun from four jittered copies of the start, drawn from
    ``seed``, and the best of the five kept.  Deterministic given
    ``seed``.  Raises :class:`InsufficientDataError` below
    max(10, 2*(p+2)) observations and :class:`FitError` (carrying the
    best point found) when that point is still not stationary.
    """
    X, y, w = design_matrix(observations)
    n, p = X.shape
    dim = p + 2
    if n < max(10, 2 * dim):
        raise InsufficientDataError(
            f"need at least {max(10, 2 * dim)} observations for {dim} parameters, got {n}"
        )

    # scale-invariant optimization; the argmax is unchanged
    w_opt = w / w.mean()

    Xz, center, scale, constant = _standardize(X)
    keep = np.flatnonzero(~constant)
    Xf = Xz[:, keep]
    pf = len(keep)
    lo = np.array([-_ALPHA_BOUND] * pf + [_BETA_BOUNDS[0], _GAMMA_BOUNDS[0]])
    hi = np.array([_ALPHA_BOUND] * pf + [_BETA_BOUNDS[1], _GAMMA_BOUNDS[1]])
    sample = _sample(Xf, y, w_opt)

    # warm start: weighted least squares of log(y + 0.5) through the log link
    sw = np.sqrt(w_opt)
    alpha0, *_ = np.linalg.lstsq(Xf * sw[:, None], np.log(y + 0.5) * sw, rcond=None)
    start0 = np.concatenate([alpha0, [math.log(0.25), -2.94]])

    best_theta, best_f, best_g = _newton(start0, sample, lo, hi)
    gnorm = _projected_grad_norm(best_g, best_theta, lo, hi)
    if gnorm > _STATIONARY_GTOL:
        rng = np.random.default_rng(seed)
        for _ in range(4):
            jitter = np.concatenate(
                [rng.normal(0.0, 0.3, size=pf), [rng.normal(0.0, 0.5), rng.normal(0.0, 1.0)]]
            )
            theta, f, g = _newton(start0 + jitter, sample, lo, hi)
            if f < best_f:
                best_theta, best_f, best_g = theta, f, g
        gnorm = _projected_grad_norm(best_g, best_theta, lo, hi)
    alpha_z = np.zeros(p)
    alpha_z[keep] = best_theta[:pf]
    coeffs = RegressionCoefficients(
        alpha=tuple(_alpha_to_raw(alpha_z, center, scale)),
        beta=float(best_theta[pf]),
        gamma_log=float(best_theta[pf + 1]),
    )
    if not np.isfinite(best_f) or gnorm > _STATIONARY_GTOL:
        raise FitError(
            f"fit did not reach a stationary point (projected |grad| = {gnorm:.2e})",
            best=coeffs,
            diagnostics={"neg_loglik": best_f, "grad_norm": gnorm},
        )
    return coeffs


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def chi_square_gof(
    coefficients: RegressionCoefficients, observations: Sequence[FitObservation]
) -> FitDiagnostics:
    """Pearson chi-square against the fitted ZIGP means.

    The per-observation mean is the distribution mean (1-omega)*mu_i.
    Degrees of freedom: n minus the number of alpha coefficients,
    clamped to at least 1.  Means are floored at 1e-8 (with a warning)
    to keep the statistic finite.
    """
    X, y, _ = design_matrix(observations)
    mu = np.exp(np.clip(X @ np.array(coefficients.alpha), -_ETA_CLIP, _ETA_CLIP))
    means = (1.0 - coefficients.omega) * mu
    if np.any(means < _GOF_MEAN_FLOOR):
        warnings.warn(
            "fitted means below 1e-8 floored in chi-square statistic",
            RuntimeWarning,
            stacklevel=2,
        )
        means = np.maximum(means, _GOF_MEAN_FLOOR)
    stat = float(np.sum((y - means) ** 2 / means))
    df = max(len(y) - len(coefficients.alpha), 1)
    p_value = float(chdtrc(df, stat))
    return FitDiagnostics(statistic=stat, df=df, p_value=p_value, n_obs=len(y))


# ---------------------------------------------------------------------------
# per-team orchestration
# ---------------------------------------------------------------------------


def _nested_fallback(attack: RegressionCoefficients) -> RegressionCoefficients:
    return RegressionCoefficients(
        alpha=attack.alpha + (0.0,), beta=attack.beta, gamma_log=attack.gamma_log
    )


def fit_team_models(
    matches: Sequence["MatchRecord"], teams: Sequence[str], cfg: FitConfig
) -> FitSummary:
    """Fit attack/defense/nested models for every team.

    Per-team failures are collected, not raised, so one bad team cannot
    abort the rest.  Nested fits fall back to the attack regression
    (opponent-goals coefficient 0) when the underdog sample is smaller
    than ``cfg.min_nested_obs`` or below the fitter's own minimum.
    """
    models: dict[str, TeamModel] = {}
    failures: dict[str, str] = {}
    for idx, team in enumerate(sorted(teams)):
        base_seed = np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(idx,)
        ).generate_state(3)
        try:
            attack_obs, defense_obs, nested_obs = build_observations(
                team, matches, cfg.weights
            )

            attack = fit_zigp(attack_obs, seed=int(base_seed[0]))
            defense = fit_zigp(defense_obs, seed=int(base_seed[1]))
            if len(nested_obs) < cfg.min_nested_obs:
                nested = _nested_fallback(attack)
                fallback = True
            else:
                try:
                    nested = fit_zigp(nested_obs, seed=int(base_seed[2]))
                    fallback = False
                except InsufficientDataError:
                    nested = _nested_fallback(attack)
                    fallback = True

            diagnostics = {
                "attack": chi_square_gof(attack, attack_obs),
                "defense": chi_square_gof(defense, defense_obs),
            }
            if not fallback:
                diagnostics["nested"] = chi_square_gof(nested, nested_obs)
            models[team] = TeamModel(
                team=team,
                attack=attack,
                defense=defense,
                nested=nested,
                diagnostics=diagnostics,
                nested_fallback=fallback,
            )
        except (FitError, DataError) as exc:
            failures[team] = str(exc)
    return FitSummary(models=models, failures=failures)
