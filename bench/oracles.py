"""Output checks, computed apart from the package.

The reference computations here are written from the formulas in the
package's docstrings (``zigp.py``, ``forecast.py``, ``regression.py``,
``weights.py``, ``metrics.py``) and use only numpy and scipy, never a
euroforecast function.  Each check returns a list of failure messages;
an empty list means the outputs are correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit, gammaln

# Fitter bounds on (beta, gamma) and on standardised alpha, from
# regression.py; a coordinate parked at one is not expected to be flat.
BETA_BOUNDS = (-30.0, 5.0)
GAMMA_BOUNDS = (-30.0, 30.0)
ALPHA_BOUND = 50.0
ETA_CLIP = 30.0
LOCAL_MAX_STEP = 1e-4
LOCAL_MAX_RTOL = 1e-10
GRID_ATOL = 1e-12
STATS = ("group_first", "group_second", "third_qualified", "eliminated_group",
         "r16", "qf", "sf", "final", "champion")
STAGE_TOTALS = {"r16": 16, "qf": 8, "sf": 4, "final": 2, "champion": 1}


# ---------------------------------------------------------------------------
# ZIGP and the two-stage score grid
# ---------------------------------------------------------------------------


def zigp_log_pmf(k, mu, phi, omega):
    """log P[X=k] of ZIGP(mu, phi, omega); broadcasts over k and mu."""
    k = np.asarray(k, dtype=float)
    mu = np.asarray(mu, dtype=float)
    m = mu + (phi - 1.0) * k
    positive = (
        math.log1p(-omega)
        + np.log(mu)
        + (k - 1.0) * np.log(m)
        - gammaln(k + 1.0)
        - k * math.log(phi)
        - m / phi
    )
    zero = np.log(omega + (1.0 - omega) * np.exp(-mu / phi))
    return np.where(k == 0, zero, positive)


def _phi(c):
    return 1.0 + math.exp(c["beta"])


def _omega(c):
    return float(expit(c["gamma_log"]))


def _location(team, opponent, venue):
    return 1.0 if venue == team else (-1.0 if venue == opponent else 0.0)


def reference_grid(doc, team_a, team_b, elo_a, elo_b, venue, cap):
    """P(team_a scores i, team_b scores j) from a model file's coefficients.

    ``doc`` is the parsed model JSON.  The stronger side (higher Elo,
    ties to the smaller code) scores from the mean of its attack and the
    opponent's defense regression; the weaker side scores from its nested
    regression given the stronger side's goals; the grid is renormalised.
    """
    swapped = not (elo_a > elo_b or (elo_a == elo_b and team_a < team_b))
    strong, weak = (team_b, team_a) if swapped else (team_a, team_b)
    elo_s, elo_w = (elo_b, elo_a) if swapped else (elo_a, elo_b)
    att = doc["teams"][strong]["attack"]
    dfn = doc["teams"][weak]["defense"]
    nst = doc["teams"][weak]["nested"]
    loc_s = _location(strong, weak, venue)
    loc_w = _location(weak, strong, venue)
    mu_att = math.exp(att["alpha"][0] + att["alpha"][1] * elo_w + att["alpha"][2] * loc_s)
    mu_def = math.exp(dfn["alpha"][0] + dfn["alpha"][1] * elo_s + dfn["alpha"][2] * loc_w)
    ks = np.arange(cap + 1, dtype=float)
    p_strong = np.exp(
        zigp_log_pmf(
            ks,
            0.5 * (mu_att + mu_def),
            0.5 * (_phi(att) + _phi(dfn)),
            0.5 * (_omega(att) + _omega(dfn)),
        )
    )
    a = nst["alpha"]
    mu_cond = np.exp(a[0] + a[1] * elo_s + a[2] * loc_w + a[3] * ks)
    cond = np.exp(zigp_log_pmf(ks[None, :], mu_cond[:, None], _phi(nst), _omega(nst)))
    grid = p_strong[:, None] * cond
    grid /= grid.sum()
    return grid.T if swapped else grid


def check_grids(doc, ratings, cases, grids, cap) -> list[str]:
    """Each grid equals the reference, sums to 1, and mirrors its swap."""
    errors = []
    by_case = dict(zip(cases, grids))
    for (a, b, venue), grid in by_case.items():
        ref = reference_grid(doc, a, b, ratings[a], ratings[b], venue, cap)
        err = float(np.max(np.abs(grid - ref)))
        if err > GRID_ATOL:
            errors.append(f"grid {a}-{b} at {venue}: off the reference by {err:.3g}")
        if abs(float(grid.sum()) - 1.0) > GRID_ATOL:
            errors.append(f"grid {a}-{b} at {venue} sums to {float(grid.sum())!r}")
        mirror = by_case.get((b, a, venue))
        if mirror is not None and float(np.max(np.abs(grid - mirror.T))) > GRID_ATOL:
            errors.append(f"grid {a}-{b} at {venue} is not the transpose of {b}-{a}")
    return errors[:10]


# ---------------------------------------------------------------------------
# fitted regressions are local maxima of the weighted likelihood
# ---------------------------------------------------------------------------


def observations(team, matches, reference_date, half_period_days, importance):
    """(X, y, w) of the attack, defense and nested regressions of ``team``.

    Weight: (1/2)^(days/half period) * importance.  Covariates:
    (1, opponent Elo, location) and, for the nested (underdog) model,
    the opponent's goals as well.
    """
    rows = {"attack": [], "defense": [], "nested": []}
    for m in matches:
        if team not in (m.team_a, m.team_b):
            continue
        is_a = m.team_a == team
        opponent = m.team_b if is_a else m.team_a
        own_elo, opp_elo = (
            (m.elo_a_before, m.elo_b_before) if is_a else (m.elo_b_before, m.elo_a_before)
        )
        scored, conceded = (m.goals_a, m.goals_b) if is_a else (m.goals_b, m.goals_a)
        loc = _location(team, opponent, m.venue_country)
        days = (reference_date - m.date).days
        w = 0.5 ** (days / half_period_days) * importance[m.match_type]
        rows["attack"].append((scored, (1.0, opp_elo, loc), w))
        rows["defense"].append((conceded, (1.0, opp_elo, loc), w))
        if own_elo < opp_elo:
            rows["nested"].append((scored, (1.0, opp_elo, loc, float(conceded)), w))
    out = {}
    for kind, obs in rows.items():
        y = np.array([o[0] for o in obs], dtype=float)
        width = 4 if kind == "nested" else 3
        X = np.array([o[1] for o in obs], dtype=float).reshape(len(obs), width)
        w = np.array([o[2] for o in obs], dtype=float)
        out[kind] = (X, y, w)
    return out


def weighted_loglik(alpha, beta, gamma, X, y, w):
    """sum_i w_i log ZIGP(y_i; exp(x_i alpha), 1 + e^beta, expit(gamma))."""
    mu = np.exp(np.clip(X @ alpha, -ETA_CLIP, ETA_CLIP))
    phi = 1.0 + math.exp(beta)
    log_omega = gamma - np.logaddexp(0.0, gamma)
    log1m_omega = -np.logaddexp(0.0, gamma)
    m = mu + (phi - 1.0) * y
    positive = (
        log1m_omega
        + np.log(mu)
        + (y - 1.0) * np.log(m)
        - gammaln(y + 1.0)
        - y * math.log(phi)
        - m / phi
    )
    zero = np.logaddexp(log_omega, log1m_omega - mu / phi)
    return float(np.dot(w, np.where(y == 0, zero, positive)))


def local_max_failures(coeffs, X, y, w, label) -> list[str]:
    """Coordinate steps of +-delta in standardised coordinates must not help.

    Columns beyond the intercept are centred and scaled; constant columns
    must carry a zero coefficient and are not stepped; coordinates at a
    fitter bound are not stepped either.
    """
    alpha = np.asarray(coeffs.alpha, dtype=float)
    beta, gamma = coeffs.beta, coeffs.gamma_log
    w = w / w.mean()
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    center[0], scale[0] = 0.0, 1.0
    errors = []
    free = [0]
    for j in range(1, X.shape[1]):
        if scale[j] < 1e-12:
            if alpha[j] != 0.0:
                errors.append(f"{label}: constant column {j} has coefficient {alpha[j]}")
            scale[j] = 1.0
        else:
            free.append(j)
    Z = (X - center) / scale
    alpha_z = alpha * scale
    alpha_z[0] = alpha[0] + float(np.dot(alpha[1:], center[1:]))

    def ll(theta):
        return weighted_loglik(theta[:-2], theta[-2], theta[-1], Z, y, w)

    theta = np.concatenate([alpha_z, [beta, gamma]])
    base = ll(theta)
    tol = LOCAL_MAX_RTOL * max(1.0, abs(base))
    p = len(alpha)
    bounds = {p: BETA_BOUNDS, p + 1: GAMMA_BOUNDS}
    coords = free + [p, p + 1]
    for i in coords:
        lo, hi = bounds.get(i, (-ALPHA_BOUND, ALPHA_BOUND))
        if theta[i] <= lo + 1e-9 or theta[i] >= hi - 1e-9:
            continue
        for step in (LOCAL_MAX_STEP, -LOCAL_MAX_STEP):
            probe = theta.copy()
            probe[i] += step
            gain = ll(probe) - base
            if gain > tol:
                errors.append(
                    f"{label}: step {step:+g} on coordinate {i} raises the "
                    f"log-likelihood by {gain:.3g}"
                )
    return errors


def check_fit(summary, teams, matches, cfg) -> list[str]:
    """24 of 24 fitted, nested fallbacks where the sample is too small, maxima."""
    errors = [f"{t}: not fitted" for t in teams if t not in summary.models]
    weights = cfg.weight_config()
    for team in teams:
        model = summary.models.get(team)
        if model is None:
            continue
        obs = observations(
            team, matches, weights.reference_date, weights.half_period_days,
            dict(weights.importance_table),
        )
        # The nested fit needs max(min_nested_obs, 2 * (4 + 2)) underdog
        # matches; below that it is the attack fit with a zero goal term.
        n_nested = len(obs["nested"][1])
        expect_fallback = n_nested < max(cfg.min_nested_obs, 12)
        if model.nested_fallback != expect_fallback:
            errors.append(f"{team}: nested_fallback={model.nested_fallback} with {n_nested} underdog matches")
        kinds = ["attack", "defense"]
        if model.nested_fallback:
            a, n = model.attack, model.nested
            if (tuple(n.alpha) != tuple(a.alpha) + (0.0,) or n.beta != a.beta
                    or n.gamma_log != a.gamma_log):
                errors.append(f"{team}: nested fallback is not the attack fit")
        else:
            kinds.append("nested")
        for kind in kinds:
            X, y, w = obs[kind]
            errors += local_max_failures(getattr(model, kind), X, y, w, f"{team}.{kind}")
    return errors[:10]


# ---------------------------------------------------------------------------
# simulation aggregates and backtest scores
# ---------------------------------------------------------------------------


def counts(agg) -> dict[str, dict[str, int]]:
    """Integer stage counts read through the aggregate's probability()."""
    return {
        stat: {t: round(agg.probability(stat, t) * agg.n_runs) for t in agg.teams}
        for stat in STATS
    }


def check_aggregate(agg, n_runs, label) -> list[str]:
    """Partition and nesting invariants of one Monte Carlo aggregate."""
    errors = []
    if agg.n_runs != n_runs:
        return [f"{label}: {agg.n_runs} runs counted, {n_runs} run"]
    c = counts(agg)
    for t in agg.teams:
        group = sum(c[s][t] for s in ("group_first", "group_second", "third_qualified",
                                      "eliminated_group"))
        if group != n_runs:
            errors.append(f"{label}: {t} group outcomes add to {group}, not {n_runs}")
        chain = [c[s][t] for s in ("r16", "qf", "sf", "final", "champion")]
        if chain != sorted(chain, reverse=True):
            errors.append(f"{label}: {t} stage counts {chain} are not nested")
    for stat, per_run in STAGE_TOTALS.items():
        total = sum(c[stat].values())
        if total != per_run * n_runs:
            errors.append(f"{label}: {stat} total {total}, expected {per_run * n_runs}")
    return errors[:10]


def reference_scores(agg, realized) -> tuple[float, float, float]:
    """Total MLD, Brier and RPS from the aggregate counts and realized ranks."""
    c = counts(agg)
    n = agg.n_runs
    total_mld = total_brier = total_rps = 0.0
    for t in agg.teams:
        ch, fi, sf, qf, r16 = (c[s][t] for s in ("champion", "final", "sf", "qf", "r16"))
        p = np.array([ch, fi - ch, sf - fi, qf - sf, r16 - qf, n - r16]) / n
        rank = realized[t]
        modal = int(np.argmax(p)) + 1
        total_mld += abs(rank - modal)
        outcome = np.zeros(6)
        outcome[rank - 1] = 1.0
        total_brier += float(np.sum((p - outcome) ** 2))
        cum_p = np.cumsum(p)[:5]
        cum_o = (np.arange(1, 6) >= rank).astype(float)
        total_rps += float(np.sum((cum_p - cum_o) ** 2)) / 5.0
    return total_mld, total_brier, total_rps


def check_scores(agg, realized, report) -> list[str]:
    ref = reference_scores(agg, realized)
    got = (report.total_mld, report.total_brier, report.total_rps)
    return [
        f"{name}: program {g!r}, reference {r!r}"
        for name, g, r in zip(("MLD", "Brier", "RPS"), got, ref)
        if not math.isclose(g, r, rel_tol=1e-12, abs_tol=1e-12)
    ]
