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
started from a log-link least-squares fit; nothing in a fit is random.
The regressions of a ``fit_team_models`` call with the same number of
fitted columns run as one lockstep batch: each round evaluates every
unfinished regression's candidate point in one pass over their
concatenated rows, with per-regression segment sums, and takes every
step from one stacked eigendecomposition, while each regression keeps
its own step length and stopping rule, so a regression gets bit for bit
the result it would get in a batch of one.  Covariates are standardized
internally for conditioning; returned coefficients are on the raw
covariate scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import zigp
from .errors import DataError, FitError, InsufficientDataError, ParameterError
from .forecast import location_indicator
from .weights import WeightConfig, match_weight

if TYPE_CHECKING:
    from .data_io import MatchRecord

_ETA_CLIP = 30.0  # guard against exp overflow during line-search excursions
# phi = 1 + e^beta is at most 149.4 here, so the pmf stays finite up to HARD_CAP
BETA_MAX = 5.0
_BETA_BOUNDS = (-30.0, BETA_MAX)
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
ALPHA_LENGTHS = {"attack": 3, "defense": 3, "nested": 4}  # see observations_by_team


class DesignMatrixWarning(UserWarning):
    """A covariate column (beyond the intercept) is constant."""


@dataclass(frozen=True)
class RegressionCoefficients:
    """One fitted coefficient set: linear predictor plus (beta, gamma).

    ``phi`` and ``omega`` are derived once, here.  A set is rejected
    unless every alpha is finite, beta <= BETA_MAX (the fitter's upper
    bound) and omega = expit(gamma_log) is below 1.  omega is computed
    as 1 / (1 + e^-gamma_log), which is scipy's ``expit`` bit for bit;
    below gamma_log = -709.78 e^-gamma_log overflows and omega is 0.
    """

    alpha: tuple[float, ...]
    beta: float
    gamma_log: float
    phi: float = field(init=False, repr=False, compare=False)
    omega: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            omega = 1.0 / (1.0 + math.exp(-self.gamma_log))
        except OverflowError:
            omega = 0.0
        if not (all(map(math.isfinite, self.alpha)) and self.beta <= BETA_MAX and omega < 1.0):
            raise ParameterError(
                f"need finite alpha, beta <= {BETA_MAX} and expit(gamma_log) < 1; got "
                f"alpha {self.alpha}, beta {self.beta}, gamma_log {self.gamma_log}"
            )
        object.__setattr__(self, "phi", 1.0 + math.exp(self.beta))
        object.__setattr__(self, "omega", omega)


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
    seed: int = 0  # read by nothing; kept while the benchmark still passes it
    min_nested_obs: int = 10


@dataclass
class FitSummary:
    models: dict[str, TeamModel]
    failures: dict[str, str]


# ---------------------------------------------------------------------------
# observation builders
# ---------------------------------------------------------------------------


Rows = tuple[np.ndarray, np.ndarray, np.ndarray]  # (X, y, w) of one regression


def _team_rows(rows: list[tuple]) -> tuple[Rows, Rows, Rows]:
    """The attack, defense and nested (X, y, w) of one team's match rows."""
    opp_elo, loc, goals, conceded, w, underdog = np.array(rows, dtype=float).T.copy()
    X = np.column_stack([np.ones(len(w)), opp_elo, loc])
    scored, against = goals.astype(np.int64), conceded.astype(np.int64)
    under = underdog == 1.0
    nested = (np.column_stack([X[under], conceded[under]]), scored[under], w[under])
    return (X, scored, w), (X, against, w), nested


def observations_by_team(
    teams: Sequence[str], matches: Sequence["MatchRecord"], cfg: WeightConfig
) -> dict[str, tuple[Rows, Rows, Rows] | DataError | InsufficientDataError]:
    """The attack, defense and nested rows of each of ``teams``, in one pass.

    Each regression's rows are an (X, y, w) triple: covariates by row,
    goal counts and the matches' weights.  attack: goals scored by the
    team against (1, opponent Elo, location); defense: goals conceded,
    on the same ``X`` array; nested: underdog matches only (strictly
    lower Elo before kickoff; equal ratings have no strict ordering),
    goals scored with the opponent's goals as a fourth covariate.  Rows
    keep the order of ``matches``.  A team's entry is the error in place
    of its rows when one of its matches lacks Elo annotations (the first
    such match is named; the team's later matches are not read) or when
    it has no matches; the other teams keep theirs.
    """
    rows: dict[str, list[tuple]] = {team: [] for team in teams}
    failed: dict[str, DataError | InsufficientDataError] = {}
    for m in matches:
        sides = [t for t in (m.team_a, m.team_b) if t in rows and t not in failed]
        if not sides:
            continue
        if m.elo_a_before is None or m.elo_b_before is None:
            for team in sides:
                failed[team] = DataError(
                    f"match {m.date} {m.team_a}-{m.team_b} lacks Elo annotations; "
                    "replay history first"
                )
            continue
        weight = match_weight(m, cfg)
        for team in sides:
            if team == m.team_a:
                opponent, own_elo, opp_elo = m.team_b, m.elo_a_before, m.elo_b_before
                goals, conceded = m.goals_a, m.goals_b
            else:
                opponent, own_elo, opp_elo = m.team_a, m.elo_b_before, m.elo_a_before
                goals, conceded = m.goals_b, m.goals_a
            loc = location_indicator(team, opponent, m.venue_country)
            rows[team].append((opp_elo, loc, goals, conceded, weight, own_elo < opp_elo))
    for team, team_rows in rows.items():
        if not team_rows and team not in failed:
            failed[team] = InsufficientDataError(
                f"team {team!r} has no matches in the data window"
            )
    return {
        team: failed[team] if team in failed else _team_rows(team_rows)
        for team, team_rows in rows.items()
    }


# ---------------------------------------------------------------------------
# weighted likelihood
# ---------------------------------------------------------------------------


class _Sample(NamedTuple):
    """The rows of one or more regressions with the constants of their fits.

    Each regression's rows are contiguous: ``starts`` holds its first row
    and ``fit`` the regression of every row.  Covariates are stored by
    column, next to the products of every pair of columns.
    """

    Xt: np.ndarray  # (p, n) covariates
    XX: np.ndarray  # Xt[i] * Xt[j] for i <= j, in np.triu_indices(p) order
    w: np.ndarray
    zero: np.ndarray  # response == 0
    k: np.ndarray  # the responses, as floats
    log_k_factorial: np.ndarray
    fit: np.ndarray
    starts: np.ndarray
    w_sum: np.ndarray  # each regression's total weight


def _sample(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> _Sample:
    """One regression's rows (``X`` is observations by columns)."""
    Xt = np.ascontiguousarray(X.T, dtype=float)
    XX = np.concatenate([Xt[i] * Xt[i:] for i in range(len(Xt))])
    starts = np.zeros(1, dtype=np.intp)
    return _Sample(
        Xt, XX, w, y == 0, y.astype(float), zigp._LOG_FACTORIAL[y],
        np.zeros(len(w), dtype=np.intp), starts, np.add.reduceat(w, starts),
    )


def _stack(samples: Sequence[_Sample]) -> _Sample:
    """One sample holding the one-regression ``samples``, in order."""
    sizes = [len(s.w) for s in samples]
    cat = lambda name, axis=0: np.concatenate(  # noqa: E731
        [getattr(s, name) for s in samples], axis=axis
    )
    return _Sample(
        cat("Xt", 1), cat("XX", 1), cat("w"), cat("zero"), cat("k"), cat("log_k_factorial"),
        np.repeat(np.arange(len(samples)), sizes),
        np.cumsum([0] + sizes[:-1]),
        cat("w_sum"),
    )


def _expit(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) elementwise; exactly 0, without a warning, where e^-x
    overflows (x below -709.78)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _loglik_derivatives(theta: np.ndarray, s: _Sample, upper: tuple[np.ndarray, np.ndarray]):
    """Each regression's weighted ZIGP log-likelihood, gradient and Hessian.

    Row i of ``theta`` holds the parameters of regression i of ``s``.
    Each observation's log-pmf is differentiated in its linear predictor
    eta = x.alpha and in phi, then chained to beta; with t = mu/phi and
    r = expit(gamma + t), the posterior probability that a zero is a
    structural one, a zero's log-pmf is log(e^gamma + e^-t) - log(1 + e^gamma).
    The per-row terms of all regressions are summed segment by segment
    (``np.add.reduceat``), so a regression's values do not depend on the
    other regressions of ``s``.  ``upper`` is ``np.triu_indices(p)``.
    Returns (L, dL/dtheta, d2L/dtheta2), shaped (m,), (m, p+2) and
    (m, p+2, p+2).
    """
    Xt, w, zero, k = s.Xt, s.w, s.zero, s.k
    p = len(Xt)
    beta, gamma = theta[:, p], theta[:, p + 1]
    alpha = theta[:, :p].T[:, s.fit]  # each row's coefficients, by column
    eta = Xt[0] * alpha[0]
    for j in range(1, p):
        eta += Xt[j] * alpha[j]
    mu = np.exp(np.clip(eta, -_ETA_CLIP, _ETA_CLIP, out=eta))
    b = np.exp(beta)  # phi - 1 = dphi/dbeta
    phi = 1.0 + b
    omega = _expit(gamma)

    # each row's regression-level values
    b_i, phi_i, gamma_i = b[s.fit], phi[s.fit], gamma[s.fit]
    log1m_omega = -np.logaddexp(0.0, gamma)[s.fit]
    t = mu / phi_i
    r, q = _expit(gamma_i + t), _expit(-gamma_i - t)
    m = mu + b_i * k
    c = k * (k - 1.0) / m**2
    positive = (
        (k - 1.0) * np.log(m) - s.log_k_factorial - k * np.log1p(b)[s.fit] - m / phi_i
    )
    ll = np.where(zero, np.logaddexp(gamma_i, -t) + log1m_omega, log1m_omega + eta + positive)
    l_eta = np.where(zero, -q * t, 1.0 + mu * (k - 1.0) / m - t)
    l_phi = np.where(zero, q * t / phi_i, k * (k - 1.0) / m - k / phi_i + (mu - k) / phi_i**2)
    l_eta_eta = np.where(zero, t * (r * q * t - q), mu * b_i * c - t)
    l_eta_phi = np.where(zero, q * t * (1.0 - r * t) / phi_i, mu * (1.0 / phi_i**2 - c))
    l_phi_phi = np.where(
        zero,
        t * (r * q * t - 2.0 * q) / phi_i**2,
        k / phi_i**2 - k * c - 2.0 * (mu - k) / phi_i**3,
    )
    wz = np.where(zero, w, 0.0)

    # one row per summed term: six scalars, three covariate-weighted
    # vectors and the upper triangle of the alpha block
    terms = np.empty((6 + 3 * p + len(s.XX), len(w)))
    terms[0] = w * ll
    terms[1] = w * l_phi
    terms[2] = wz * r
    terms[3] = w * (b_i * b_i * l_phi_phi + b_i * l_phi)
    terms[4] = wz * (r * q * t)
    terms[5] = wz * (r * q)
    np.multiply(Xt, w * l_eta, out=terms[6 : 6 + p])
    np.multiply(Xt, w * l_eta_phi, out=terms[6 + p : 6 + 2 * p])
    np.multiply(Xt, terms[4], out=terms[6 + 2 * p : 6 + 3 * p])
    np.multiply(s.XX, w * l_eta_eta, out=terms[6 + 3 * p :])
    sums = np.add.reduceat(terms, s.starts, axis=1)

    grad = np.empty((len(theta), p + 2))
    grad[:, :p] = sums[6 : 6 + p].T
    grad[:, p] = b * sums[1]
    grad[:, p + 1] = sums[2] - omega * s.w_sum
    hess = np.empty((len(theta), p + 2, p + 2))
    i, j = upper
    hess[:, i, j] = hess[:, j, i] = sums[6 + 3 * p :].T
    hess[:, :p, p] = (b * sums[6 + p : 6 + 2 * p]).T
    hess[:, :p, p + 1] = sums[6 + 2 * p : 6 + 3 * p].T
    hess[:, p, p] = sums[3]
    hess[:, p, p + 1] = -b / phi * sums[4]
    hess[:, p + 1, p + 1] = sums[5] - omega * (1.0 - omega) * s.w_sum
    hess[:, p, :p] = hess[:, :p, p]
    hess[:, p + 1, : p + 1] = hess[:, : p + 1, p + 1]
    return sums[0], grad, hess


def _pinned(grad, theta, lo, hi):
    """Coordinates at a bound that the (negated) gradient pushes outward."""
    return ((theta <= lo + 1e-12) & (grad > 0)) | ((theta >= hi - 1e-12) & (grad < 0))


def _projected_grad_norm(grad, theta, lo, hi):
    """Each row's inf-norm of the gradient with outward components at active bounds zeroed."""
    return np.abs(np.where(_pinned(grad, theta, lo, hi), 0.0, grad)).max(axis=-1)


def _newton_steps(g, H, pinned):
    """Each row's Newton step on its free coordinates (0 on pinned ones).

    Pinned coordinates get identity rows and columns in ``H`` and a zero
    gradient, so one stacked eigendecomposition serves every row.  The
    eigenvalues enter by absolute value, floored at 1e-12 of the largest
    magnitude (and of 1, which covers the identity rows): negative
    curvature still gives a descent step, and towards the pure-Poisson
    corner, where the curvature in beta and gamma is as small as the
    gradient, steps stay near one unit.
    """
    held = pinned[:, :, None] | pinned[:, None, :]
    H = np.where(held, np.eye(g.shape[1]), H)
    g = np.where(pinned, 0.0, g)
    lam, vec = np.linalg.eigh(H)
    floor = 1e-12 * np.maximum(np.maximum(-lam[:, 0], lam[:, -1]), 1.0)
    lam = np.maximum(np.abs(lam), floor[:, None])
    coef = (vec.mT @ g[:, :, None])[:, :, 0] / lam
    return np.where(pinned, 0.0, -(vec @ coef[:, :, None])[:, :, 0])


def _newton_batch(theta, samples: Sequence[_Sample], lo, hi):
    """Minimize each regression's negated log-likelihood by damped projected Newton.

    Row i of ``theta`` starts the regression of ``samples[i]``; all have
    the same columns and bounds.  The regressions run in lockstep: each
    round evaluates every unfinished regression's candidate point in one
    call on their stacked rows, while each keeps its own step, halving
    count and stopping rule, so each takes the path it would take alone.

    Coordinates held at a bound are fixed (Bertsekas 1982).  A step is
    projected onto the box and halved, up to 30 times, until it lowers
    the objective or, at negligible objective cost, the projected
    gradient, which near the optimum still carries signal.  A regression
    stops at projected gradient ``_NEWTON_GTOL``, after
    ``_NEWTON_MAX_ITER`` steps, or when no halving is accepted.  Returns
    the final points, objectives and gradients, one row each.
    """
    theta = np.clip(theta, lo, hi)
    batch, upper = _stack(samples), np.triu_indices(len(lo) - 2)
    f, g, H = (-v for v in _loglik_derivatives(theta, batch, upper))
    step = np.zeros_like(theta)
    pg = np.zeros(len(theta))
    steps_taken = np.zeros(len(theta), dtype=int)
    halvings = np.zeros(len(theta), dtype=int)
    live = np.ones(len(theta), dtype=bool)
    running = moved = np.arange(len(theta))  # moved: at a new point, needing a step
    while True:
        pinned = _pinned(g[moved], theta[moved], lo, hi)
        pg[moved] = np.abs(np.where(pinned, 0.0, g[moved])).max(axis=1)
        done = (steps_taken[moved] >= _NEWTON_MAX_ITER) | (pg[moved] < _NEWTON_GTOL)
        live[moved[done]] = False
        moved, pinned = moved[~done], pinned[~done]
        step[moved] = _newton_steps(g[moved], H[moved], pinned)
        halvings[moved] = 0
        unfinished = np.flatnonzero(live)
        if not unfinished.size:
            break
        if not np.array_equal(unfinished, running):
            running, batch = unfinished, _stack([samples[i] for i in unfinished])
        cand = np.clip(theta[running] + step[running], lo, hi)
        fc, gc, Hc = (-v for v in _loglik_derivatives(cand, batch, upper))
        f0 = f[running]
        accept = (fc < f0) | (
            (fc <= f0 + 1e-12 * (1.0 + np.abs(f0)))
            & (_projected_grad_norm(gc, cand, lo, hi) < pg[running])
        )
        moved = running[accept]
        theta[moved], f[moved], g[moved], H[moved] = (
            cand[accept], fc[accept], gc[accept], Hc[accept]
        )
        steps_taken[moved] += 1
        rejected = running[~accept]
        step[rejected] *= 0.5
        halvings[rejected] += 1
        live[rejected[halvings[rejected] == 30]] = False
    return theta, f, g


def _standardize(X):
    """Center/scale the covariate columns after the intercept, column 0.

    Returns the transformed matrix, the centers and scales used, and a
    boolean mask of constant non-intercept columns.  Those columns are
    collinear with the intercept; the fitter excludes them and pins their
    coefficients at zero.
    """
    n, p = X.shape
    center = np.zeros(p)
    scale = np.ones(p)
    constant = np.zeros(p, dtype=bool)
    for j in range(1, p):
        std = X[:, j].std()
        if std < 1e-12:
            warnings.warn(
                f"covariate column {j} is constant; its coefficient is fixed at zero",
                DesignMatrixWarning,
                stacklevel=4,
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


class _Problem(NamedTuple):
    """One regression ready to fit: its rows, start point and covariate scaling."""

    sample: _Sample
    start: np.ndarray
    keep: np.ndarray  # the fitted (non-constant) columns
    center: np.ndarray
    scale: np.ndarray


def _prepare(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> _Problem:
    """Check the sample size, counts and weight, standardize and compute the least-squares start.

    Raises :class:`InsufficientDataError` below max(10, 2*(p+2))
    observations or at a total weight that is 0 or overflows, and
    :class:`ParameterError` for a count outside 0..HARD_CAP, the range of
    zigp's log k! table.
    """
    n, p = X.shape
    dim = p + 2
    if n < max(10, 2 * dim):
        raise InsufficientDataError(
            f"need at least {max(10, 2 * dim)} observations for {dim} parameters, got {n}"
        )

    if not 0 <= y.min() <= y.max() <= zigp.HARD_CAP:
        bad = y[(y < 0) | (y > zigp.HARD_CAP)][0]
        raise ParameterError(f"goal counts must lie in 0..{zigp.HARD_CAP}, got {bad}")

    # every recency weight may underflow to 0, and large importances overflow the sum
    with np.errstate(over="ignore"):
        total = w.sum()
    if not 0.0 < total < math.inf:
        raise InsufficientDataError(f"the {n} observations have a total weight of {total:g}")

    # scale-invariant optimization; the argmax is unchanged
    w_opt = w / (total / n)

    Xz, center, scale, constant = _standardize(X)
    keep = np.flatnonzero(~constant)
    Xf = Xz[:, keep]

    # warm start: weighted least squares of log(y + 0.5) through the log link
    sw = np.sqrt(w_opt)
    alpha0, *_ = np.linalg.lstsq(Xf * sw[:, None], np.log(y + 0.5) * sw, rcond=None)
    start = np.concatenate([alpha0, [math.log(0.25), -2.94]])
    return _Problem(_sample(Xf, y, w_opt), start, keep, center, scale)


def _result(problem: _Problem, theta, f, gnorm) -> RegressionCoefficients | FitError:
    """The raw-scale coefficients at ``theta``, or the FitError carrying them."""
    pf = len(problem.keep)
    alpha_z = np.zeros(len(problem.center))
    alpha_z[problem.keep] = theta[:pf]
    coeffs = RegressionCoefficients(
        alpha=tuple(_alpha_to_raw(alpha_z, problem.center, problem.scale)),
        beta=float(theta[pf]),
        gamma_log=float(theta[pf + 1]),
    )
    if not np.isfinite(f) or gnorm > _STATIONARY_GTOL:
        return FitError(
            f"fit did not reach a stationary point (projected |grad| = {gnorm:.2e})",
            best=coeffs,
            diagnostics={"neg_loglik": float(f), "grad_norm": float(gnorm)},
        )
    return coeffs


def _fit_batch(problems: Sequence[_Problem]) -> list[RegressionCoefficients | FitError]:
    """Fit every regression; a failed fit's entry is its :class:`FitError`.

    Regressions with the same number of fitted columns form one lockstep
    Newton batch from their least-squares starts; a fit that ends short of
    a stationary point fails with the point it reached.  A regression's
    result is the same in any batch.
    """
    results: list = [None] * len(problems)
    by_width: dict[int, list[int]] = {}
    for i, problem in enumerate(problems):
        by_width.setdefault(len(problem.keep), []).append(i)
    for pf, members in by_width.items():
        lo = np.array([-_ALPHA_BOUND] * pf + [_BETA_BOUNDS[0], _GAMMA_BOUNDS[0]])
        hi = np.array([_ALPHA_BOUND] * pf + [_BETA_BOUNDS[1], _GAMMA_BOUNDS[1]])
        theta, f, g = _newton_batch(
            np.array([problems[i].start for i in members]),
            [problems[i].sample for i in members], lo, hi,
        )
        gnorm = _projected_grad_norm(g, theta, lo, hi)
        for j, i in enumerate(members):
            results[i] = _result(problems[i], theta[j], f[j], gnorm[j])
    return results


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def chi_square_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with an integer ``df`` >= 1 degrees of freedom.

    With lam = x/2, an even df is the Poisson series
    e^-lam * sum_{j < df/2} lam^j / j!, and an odd df is
    erfc(sqrt(lam)) + e^-lam * sum_{j < (df-1)/2} lam^(j+1/2) / Gamma(j+3/2)
    (Abramowitz & Stegun 26.4.4-5).  The terms are summed in log space,
    so none overflows or underflows before the sum does.
    """
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    lam = 0.5 * x
    log_lam = math.log(lam)
    half = 0.5 * (df % 2)
    logs = [-lam + (j + half) * log_lam - math.lgamma(j + half + 1.0) for j in range(df // 2)]
    if half and (tail := math.erfc(math.sqrt(lam))) > 0.0:
        logs.append(math.log(tail))
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs)))


def chi_square_gof(
    coefficients: RegressionCoefficients, X: np.ndarray, y: np.ndarray
) -> FitDiagnostics:
    """Pearson chi-square of the counts ``y`` against the fitted ZIGP means at ``X``.

    The per-observation mean is the distribution mean (1-omega)*mu_i.
    Degrees of freedom: n minus the number of alpha coefficients,
    clamped to at least 1.  Means are floored at 1e-8 (with a warning)
    to keep the statistic finite.  The p-value is ``chi_square_sf``'s
    closed form (A&S 26.4.4-5), tested against 50-digit mpmath and
    scipy's ``chdtrc`` to 1e-12 relative wherever it is above 1e-300
    (df 1-400, statistic 0 to 10*df).
    """
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
    p_value = chi_square_sf(df, stat)
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

    Every team's regressions are fitted together in one batch (see
    ``_fit_batch``), with the same results as a batch of one each.
    Per-team failures are collected, not raised, so one bad team cannot
    abort the rest; a team's failure is its first in attack, defense,
    nested order.  Nested fits fall back to the attack regression
    (opponent-goals coefficient 0) when the underdog sample is smaller
    than ``cfg.min_nested_obs`` or below the fitter's own minimum.
    """
    failures: dict[str, str] = {}
    jobs = []  # (team, its regressions' rows, index of its first problem, problem count)
    problems: list[_Problem] = []
    by_team = observations_by_team(teams, matches, cfg.weights)
    for team in sorted(teams):
        regressions = by_team[team]
        if isinstance(regressions, Exception):
            failures[team] = str(regressions)
            continue
        attack_rows, defense_rows, nested_rows = regressions
        try:
            # attack and defense share X and w, so both have enough or neither
            fits = [_prepare(*attack_rows), _prepare(*defense_rows)]
        except InsufficientDataError as exc:
            failures[team] = str(exc)
            continue
        if len(nested_rows[1]) >= cfg.min_nested_obs:
            try:
                fits.append(_prepare(*nested_rows))
            except InsufficientDataError:
                pass
        jobs.append((team, regressions, len(problems), len(fits)))
        problems += fits

    results = _fit_batch(problems)
    models: dict[str, TeamModel] = {}
    for team, regressions, first, count in jobs:
        fitted = results[first : first + count]
        error = next((r for r in fitted if isinstance(r, FitError)), None)
        if error is not None:
            failures[team] = str(error)
            continue
        attack, defense = fitted[:2]
        fallback = count == 2
        nested = _nested_fallback(attack) if fallback else fitted[2]
        diagnostics = {
            kind: chi_square_gof(fit, X, y)
            for kind, fit, (X, y, _) in zip(("attack", "defense", "nested"), fitted, regressions)
        }
        models[team] = TeamModel(
            team=team,
            attack=attack,
            defense=defense,
            nested=nested,
            diagnostics=diagnostics,
            nested_fallback=fallback,
        )
    return FitSummary(models=models, failures=dict(sorted(failures.items())))
