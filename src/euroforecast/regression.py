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
L(theta) = sum_i w_i * log pmf(mu_i, phi, omega; x_i) by L-BFGS-B with
an analytic gradient, five starts (a log-link least-squares warm start
plus four jittered copies) and a final Newton polish.  Covariates are
standardized internally for conditioning; returned coefficients are on
the raw covariate scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import optimize
from scipy.special import expit, gammaln
from scipy.stats import chi2

from .errors import DataError, FitError, InsufficientDataError
from .forecast import location_indicator
from .weights import WeightConfig, match_weight

if TYPE_CHECKING:
    from .data_io import MatchRecord

_ETA_CLIP = 30.0  # guard against exp overflow during line-search excursions
_BETA_BOUNDS = (-30.0, 5.0)
_GAMMA_BOUNDS = (-30.0, 30.0)
_ALPHA_BOUND = 50.0
_GOF_MEAN_FLOOR = 1e-8


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
        return math.exp(eta)


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


def loglik_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted ZIGP log-likelihood and its analytic gradient.

    ``theta`` is [alpha_0..alpha_{p-1}, beta, gamma] matching the
    columns of ``X``.  Returns (L, dL/dtheta).
    """
    p = X.shape[1]
    alpha = theta[:p]
    beta, gamma = theta[p], theta[p + 1]

    eta = np.clip(X @ alpha, -_ETA_CLIP, _ETA_CLIP)
    mu = np.exp(eta)
    phi = 1.0 + math.exp(beta)
    omega = float(expit(gamma))
    log_omega = gamma - np.logaddexp(0.0, gamma)  # log expit(gamma)
    log1m_omega = -np.logaddexp(0.0, gamma)

    zero = y == 0
    k = y[~zero].astype(float)
    mu0, mu1 = mu[zero], mu[~zero]
    m = mu1 + (phi - 1.0) * k

    ll = np.empty(len(y))
    ll[zero] = np.logaddexp(log_omega, log1m_omega - mu0 / phi)
    ll[~zero] = (
        log1m_omega
        + np.log(mu1)
        + (k - 1.0) * np.log(m)
        - gammaln(k + 1.0)
        - k * math.log(phi)
        - m / phi
    )
    total = float(np.dot(w, ll))

    # per-observation derivatives wrt (mu, phi, omega)
    d_mu = np.empty(len(y))
    d_phi = np.empty(len(y))
    d_omega = np.empty(len(y))

    e0 = np.exp(-mu0 / phi)
    s0 = omega + (1.0 - omega) * e0
    d_mu[zero] = -(1.0 - omega) * e0 / (phi * s0)
    d_phi[zero] = (1.0 - omega) * e0 * mu0 / (phi**2 * s0)
    d_omega[zero] = (1.0 - e0) / s0

    d_mu[~zero] = 1.0 / mu1 + (k - 1.0) / m - 1.0 / phi
    d_phi[~zero] = k * (k - 1.0) / m - k / phi + (mu1 - k) / phi**2
    d_omega[~zero] = -1.0 / (1.0 - omega)

    grad = np.empty(p + 2)
    grad[:p] = X.T @ (w * d_mu * mu)
    grad[p] = float(np.dot(w, d_phi)) * (phi - 1.0)
    grad[p + 1] = float(np.dot(w, d_omega)) * omega * (1.0 - omega)
    return total, grad


def _neg_loglik(theta, X, y, w):
    value, grad = loglik_and_grad(theta, X, y, w)
    return -value, -grad


def _projected_grad_norm(grad, theta, bounds):
    """Inf-norm of the gradient with outward components at active bounds zeroed."""
    g = grad.copy()
    for i, (lo, hi) in enumerate(bounds):
        if theta[i] <= lo + 1e-12 and g[i] > 0:
            g[i] = 0.0
        if theta[i] >= hi - 1e-12 and g[i] < 0:
            g[i] = 0.0
    return float(np.max(np.abs(g)))


def _newton_polish(theta, X, y, w, bounds, max_iter=12, tol=1e-10):
    """Drive the (negated) gradient toward zero with projected Newton steps.

    The Hessian is obtained by central finite differences of the analytic
    gradient, restricted to coordinates not pinned at a bound, with its
    eigenvalues floored so that flat directions (a dispersion or inflation
    parameter parked at its boundary has ~zero curvature) cannot poison
    the solve.  A step is kept when it lowers the objective or, at
    negligible objective cost, the projected gradient: near the optimum
    the objective is flat to machine precision while the gradient still
    carries signal.
    """
    f, g = _neg_loglik(theta, X, y, w)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    for _ in range(max_iter):
        pg = _projected_grad_norm(g, theta, bounds)
        if pg < tol:
            break
        pinned = ((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0))
        idx = np.flatnonzero(~pinned)
        if idx.size == 0:
            break
        H = np.empty((idx.size, idx.size))
        for col, j in enumerate(idx):
            h = 1e-6 * (1.0 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            _, gp = _neg_loglik(tp, X, y, w)
            _, gm = _neg_loglik(tm, X, y, w)
            H[:, col] = (gp[idx] - gm[idx]) / (2.0 * h)
        H = 0.5 * (H + H.T)
        lam, vec = np.linalg.eigh(H)
        lam = np.maximum(lam, 1e-8 * max(float(lam[-1]), 1.0))
        step = np.zeros_like(theta)
        step[idx] = -vec @ ((vec.T @ g[idx]) / lam)
        accepted = False
        scale = 1.0
        for _ in range(20):
            cand = np.clip(theta + scale * step, lo, hi)
            fc, gc = _neg_loglik(cand, X, y, w)
            better_f = fc < f - 1e-12
            flat_f = fc <= f + 1e-9
            if better_f or (flat_f and _projected_grad_norm(gc, cand, bounds) < pg):
                theta, f, g = cand, fc, gc
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
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

    Multi-start L-BFGS-B with analytic gradients followed by a Newton
    polish; deterministic given ``seed``.  Raises
    :class:`InsufficientDataError` below max(10, 2*(p+2)) observations
    and :class:`FitError` (carrying the best point found) when the best
    start, polished once more, is still not a stationary point.
    """
    X, y, w = design_matrix(observations)
    n, p = X.shape
    dim = p + 2
    if n < max(10, 2 * dim):
        raise InsufficientDataError(
            f"need at least {max(10, 2 * dim)} observations for {dim} parameters, got {n}"
        )

    # scale-invariant optimization; the argmax is unchanged
    w_mean = float(w.mean())
    w_opt = w / w_mean

    Xz, center, scale, constant = _standardize(X)
    keep = np.flatnonzero(~constant)
    Xf = Xz[:, keep]
    pf = len(keep)
    bounds = [(-_ALPHA_BOUND, _ALPHA_BOUND)] * pf + [_BETA_BOUNDS, _GAMMA_BOUNDS]

    # warm start: weighted least squares of log(y + 0.5) through the log link
    sw = np.sqrt(w_opt)
    alpha0, *_ = np.linalg.lstsq(Xf * sw[:, None], np.log(y + 0.5) * sw, rcond=None)
    start0 = np.concatenate([alpha0, [math.log(0.25), -2.94]])

    rng = np.random.default_rng(seed)
    starts = [start0]
    for _ in range(4):
        jitter = np.concatenate(
            [rng.normal(0.0, 0.3, size=pf), [rng.normal(0.0, 0.5), rng.normal(0.0, 1.0)]]
        )
        starts.append(start0 + jitter)

    best_theta, best_f, best_g = None, np.inf, None
    for x0 in starts:
        res = optimize.minimize(
            _neg_loglik,
            x0,
            args=(Xf, y, w_opt),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
        )
        theta, f, g = _newton_polish(res.x, Xf, y, w_opt, bounds)
        if f < best_f:
            best_theta, best_f, best_g = theta, f, g

    gnorm = _projected_grad_norm(best_g, best_theta, bounds)
    if gnorm > 1e-6:
        # the best start stalled short of stationarity; polish it further
        best_theta, best_f, best_g = _newton_polish(best_theta, Xf, y, w_opt, bounds)
        gnorm = _projected_grad_norm(best_g, best_theta, bounds)
    alpha_z = np.zeros(p)
    alpha_z[keep] = best_theta[:pf]
    coeffs = RegressionCoefficients(
        alpha=tuple(_alpha_to_raw(alpha_z, center, scale)),
        beta=float(best_theta[pf]),
        gamma_log=float(best_theta[pf + 1]),
    )
    if not np.isfinite(best_f) or gnorm > 1e-6:
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
    p_value = float(chi2.sf(stat, df))
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
