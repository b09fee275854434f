"""Exact-score forecasts from a pair of fitted team models.

A match is forecast in two stages.  The stronger side (higher Elo;
ties broken by the lexicographically smaller team code) scores first:
its goal count follows a ZIGP whose parameters average the stronger
team's attack regression with the weaker team's defense regression,
each evaluated with its own location indicator.  The weaker side then
scores conditionally on the stronger side's goals through its nested
(underdog) regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ParameterError
from .zigp import HARD_CAP, log_pmf_table, sample_block

if TYPE_CHECKING:
    from .regression import TeamModel

DEFAULT_GRID_CAP = 15


def location_indicator(team: str, opponent: str, venue_country: str) -> float:
    """+1 when the team hosts, -1 when the opponent hosts, 0 otherwise."""
    if venue_country == team:
        return 1.0
    if venue_country == opponent:
        return -1.0
    return 0.0


def order_by_strength(
    team_a: str, elo_a: float, team_b: str, elo_b: float
) -> tuple[str, str, bool]:
    """Return (stronger, weaker, swapped); swapped means team_b is the stronger side.

    Equal ratings fall back to the lexicographic order of the team
    codes so the orientation never depends on argument order.
    """
    if elo_a > elo_b or (elo_a == elo_b and team_a < team_b):
        return team_a, team_b, False
    return team_b, team_a, True


def _stronger_stage(
    strong: "TeamModel", weak: "TeamModel", elo_strong: float, elo_weak: float, loc: float
) -> tuple[float, float, float]:
    """(mu, phi, omega) of ``strong``'s goals, each the mean of its attack fit
    (location ``loc``) and ``weak``'s defense fit (location ``-loc``).

    The two means are :func:`_predict_mu`'s arithmetic on one row each,
    so they equal the engine's bit for bit: each eta added left to right,
    then one ``np.exp`` of both.  Raises ``ParameterError`` when either
    mean, or their blend, is 0 or overflows.
    """
    attack, defense = strong.attack, weak.defense
    a, d = attack.alpha, defense.alpha
    eta = np.array([a[0] + a[1] * elo_weak + a[2] * loc, d[0] + d[1] * elo_strong + d[2] * -loc])
    with np.errstate(over="ignore"):
        mu_att, mu_def = np.exp(eta).tolist()
    mu = 0.5 * (mu_att + mu_def)
    if not (mu_att > 0.0 and mu_def > 0.0 and mu < math.inf):
        raise ParameterError(f"mu must be positive and finite, got the mean of exp({eta.tolist()})")
    return mu, 0.5 * (attack.phi + defense.phi), 0.5 * (attack.omega + defense.omega)


@dataclass(frozen=True)
class MatchForecast:
    """Joint score distribution; grid[i, j] = P(team_a scores i, team_b scores j)."""

    team_a: str
    team_b: str
    grid: np.ndarray
    cap: int
    stronger: str

    def outcome_probabilities(self) -> tuple[float, float, float]:
        """(P win team_a, P draw, P win team_b)."""
        lower = float(np.sum(np.tril(self.grid, -1)))
        diag = float(np.trace(self.grid))
        upper = float(np.sum(np.triu(self.grid, 1)))
        return lower, diag, upper

    def most_likely_score(self) -> tuple[int, int]:
        """Modal score; ties resolve to the first cell in row-major order."""
        idx = int(np.argmax(self.grid))
        return idx // (self.cap + 1), idx % (self.cap + 1)


def score_grid(
    model_a: "TeamModel",
    model_b: "TeamModel",
    elo_a: float,
    elo_b: float,
    venue_country: str = "NEUTRAL",
    cap: int = DEFAULT_GRID_CAP,
) -> MatchForecast:
    """Exact-score distribution on a (cap+1) x (cap+1) grid.

    Row i holds the stronger side scoring i times the weaker side's
    conditional pmf given i.  Both stages are one (cap+2) x (cap+1)
    log-pmf table: row 0 the stronger side's, row 1+i the weaker side's
    given i.  Probability mass above the cap is removed by renormalizing
    the truncated grid to sum to one; a grid with no mass left raises
    ``ParameterError``.  ``cap`` must lie in 1..HARD_CAP.
    """
    if not 1 <= cap <= HARD_CAP:
        raise ParameterError(f"grid cap must be in 1..{HARD_CAP}, got {cap}")
    stronger, weaker, swapped = order_by_strength(model_a.team, elo_a, model_b.team, elo_b)
    strong_model, weak_model = (model_b, model_a) if swapped else (model_a, model_b)
    elo_strong, elo_weak = (elo_b, elo_a) if swapped else (elo_a, elo_b)

    loc = location_indicator(stronger, weaker, venue_country)
    ks = np.arange(cap + 1)
    nested = weak_model.nested
    a = nested.alpha  # the nested etas, summed as in _predict_mu
    eta = ks * a[3]
    eta += (a[0] + a[1] * elo_strong) + a[2] * -loc
    params = np.empty((3, cap + 2))
    params[:, 0] = _stronger_stage(strong_model, weak_model, elo_strong, elo_weak, loc)
    params[0, 1:] = _exp_mu(eta)
    params[1:, 1:] = [[nested.phi], [nested.omega]]
    table = np.exp(log_pmf_table(*params[:, :, None], ks))
    grid = table[0][:, None] * table[1:]
    total = grid.sum()
    if not total > 0.0:
        raise ParameterError(f"every score up to the grid cap {cap} underflows to probability 0")
    grid /= total

    if swapped:
        grid = grid.T
    return MatchForecast(
        team_a=model_a.team,
        team_b=model_b.team,
        grid=grid,
        cap=cap,
        stronger=stronger,
    )


# ---------------------------------------------------------------------------
# block form: many matches at once, one row per simulated tournament
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelArrays:
    """The coefficients of a sequence of team models; row ``i`` is team ``i``."""

    attack_alpha: np.ndarray
    attack_phi: np.ndarray
    attack_omega: np.ndarray
    defense_alpha: np.ndarray
    defense_phi: np.ndarray
    defense_omega: np.ndarray
    nested_alpha: np.ndarray
    nested_phi: np.ndarray
    nested_omega: np.ndarray

    @classmethod
    def from_models(cls, models: Sequence["TeamModel"]) -> "ModelArrays":
        columns = {}
        for kind in ("attack", "defense", "nested"):
            coefficients = [getattr(m, kind) for m in models]
            columns[f"{kind}_alpha"] = np.array([c.alpha for c in coefficients], dtype=float)
            columns[f"{kind}_phi"] = np.array([c.phi for c in coefficients])
            columns[f"{kind}_omega"] = np.array([c.omega for c in coefficients])
        return cls(**columns)


def _predict_mu(alpha: np.ndarray, *covariates: np.ndarray) -> np.ndarray:
    """Each row's mean exp(eta), from its coefficients ``alpha`` and the covariates.

    eta is the intercept plus each coefficient times its covariate,
    added left to right, as the grid adds its etas; :func:`_exp_mu`
    raises ``ParameterError`` when a mean overflows or underflows to 0.
    """
    eta = alpha[:, 0].copy()
    for j, x in zip(range(1, alpha.shape[1]), covariates, strict=True):
        eta += alpha[:, j] * x
    return _exp_mu(eta)


def _exp_mu(eta: np.ndarray) -> np.ndarray:
    """exp(eta); raises ``ParameterError`` when a mean overflows or underflows to 0."""
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if len(mu) and not 0.0 < mu.min() <= mu.max() < np.inf:
        bad = eta[~((mu > 0.0) & (mu < np.inf))][0]
        raise ParameterError(f"mu = exp({bad:.6g}) {'overflows' if bad > 0 else 'underflows'}")
    return mu


def _positive_finite(mu: np.ndarray) -> np.ndarray:
    """``mu``, once every value is checked to be positive and finite."""
    if len(mu) and not 0.0 < mu.min() <= mu.max() < np.inf:
        bad = mu[~((mu > 0.0) & (mu < np.inf))][0]
        raise ParameterError(f"mu must be positive and finite, got {bad}")
    return mu


def sample_match_block(
    models: ModelArrays,
    team_a: np.ndarray,
    team_b: np.ndarray,
    elo_a: np.ndarray,
    elo_b: np.ndarray,
    loc_a: np.ndarray,
    u: np.ndarray,
    mu_factor: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One exact score per row by the two-stage mechanism (no grid cap).

    ``team_a`` and ``team_b`` index ``models``, whose rows must be in
    team-code order so that an Elo tie still goes to the smaller code.
    ``loc_a`` is side A's :func:`location_indicator`, and side B's is
    ``-loc_a``.  ``u`` holds each row's two uniforms: column 0 draws the
    stronger side's goals and column 1 the weaker side's.  Raises
    ``ParameterError`` unless every mean a draw uses is positive and finite.
    """
    swapped = ~((elo_a > elo_b) | ((elo_a == elo_b) & (team_a < team_b)))
    strong = np.where(swapped, team_b, team_a)
    weak = np.where(swapped, team_a, team_b)
    elo_strong = np.where(swapped, elo_b, elo_a)
    elo_weak = np.where(swapped, elo_a, elo_b)
    loc_strong = np.where(swapped, -loc_a, loc_a)
    loc_weak = -loc_strong

    mu_att = _predict_mu(models.attack_alpha[strong], elo_weak, loc_strong)
    mu_def = _predict_mu(models.defense_alpha[weak], elo_strong, loc_weak)
    with np.errstate(over="ignore"):  # _positive_finite reports an overflow
        mu_strong = _positive_finite(0.5 * (mu_att + mu_def) * mu_factor)
    goals_strong = sample_block(
        mu_strong,
        0.5 * (models.attack_phi[strong] + models.defense_phi[weak]),
        0.5 * (models.attack_omega[strong] + models.defense_omega[weak]),
        u[:, 0],
    )
    mu_cond = _predict_mu(
        models.nested_alpha[weak], elo_strong, loc_weak, goals_strong.astype(float)
    )
    mu_weak = _positive_finite(mu_cond * mu_factor)
    goals_weak = sample_block(mu_weak, models.nested_phi[weak], models.nested_omega[weak], u[:, 1])
    return (
        np.where(swapped, goals_weak, goals_strong),
        np.where(swapped, goals_strong, goals_weak),
    )
