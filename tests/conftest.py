"""Shared fixtures: packaged EURO data, hand-built team models, synthetic history."""

from __future__ import annotations

import datetime as dt
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from euroforecast import data_io
from euroforecast.forecast import ModelArrays, location_indicator, sample_match_block
from euroforecast.regression import RegressionCoefficients, TeamModel
from euroforecast.zigp import HARD_CAP, TAIL_EPS, ZigpParams


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return Path(str(resources.files("euroforecast") / "data"))


@pytest.fixture(scope="session")
def euro2020(data_dir):
    """(ratings table, fixtures, allocation) for the packaged EURO 2020 data."""
    ratings = data_io.rating_table(data_io.load_ratings(data_dir / "euro2020_ratings.csv"))
    fixtures = data_io.load_fixtures(data_dir / "euro2020_fixtures.csv")
    allocation = data_io.load_allocation(data_dir / "euro2020_allocation.csv")
    return ratings, fixtures, allocation


SLACK = 1e-12  # last-bit rounding of a cumulative mass, with room


def closed_form_cum(mu, phi, omega):
    """Cumulative ZIGP mass at 0, 1, ... in plain floats, past the
    sampler's truncation point (mass 1 - TAIL_EPS) by SLACK, or to HARD_CAP."""
    total = omega + (1.0 - omega) * math.exp(-mu / phi)
    cum = [total]
    for k in range(1, HARD_CAP + 1):
        if total >= 1.0 - TAIL_EPS + SLACK:
            break
        m = mu + (phi - 1.0) * k
        total += (1.0 - omega) * math.exp(
            math.log(mu) + (k - 1) * math.log(m) - math.lgamma(k + 1) - k * math.log(phi) - m / phi
        )
        cum.append(total)
    return cum


def invert_closed_form(params, u: float) -> int:
    """The count a uniform ``u`` draws from ``params`` by sequential search
    on :func:`closed_form_cum`: the first k whose mass exceeds ``u`` or
    reaches 1 - TAIL_EPS, and HARD_CAP at the latest."""
    cum = closed_form_cum(params.mu, params.phi, params.omega)
    return next((k for k, c in enumerate(cum) if u < c or c >= 1.0 - TAIL_EPS), HARD_CAP)


def sampler_law(params, cap=HARD_CAP) -> np.ndarray:
    """The sampler's law by :func:`closed_form_cum`: the mass of each count
    up to the stop point (at most ``cap``), which takes the rest."""
    cum = closed_form_cum(params.mu, params.phi, params.omega)
    stop = min(invert_closed_form(params, 1.0), cap)  # u = 1 draws the stop point
    return np.append(np.diff(cum[:stop], prepend=0.0), 1.0 - (cum[stop - 1] if stop else 0.0))


def place(team, opponent, venue) -> float:
    """``team``'s location: +1 at home, -1 at ``opponent``'s home, else 0."""
    return float(venue == team) - float(venue == opponent)


# The two stages of a match, written out from each regression's own
# ``predict_mu``; they share no code with the package's stage builders.
def stronger_stage(strong, weak, elo_strong, elo_weak, venue, mu_factor=1.0) -> ZigpParams:
    """The stronger side's goals: the mean of its attack fit and the weaker side's defense fit."""
    attack, defense = strong.attack, weak.defense
    mu_att = attack.predict_mu((1.0, elo_weak, place(strong.team, weak.team, venue)))
    mu_def = defense.predict_mu((1.0, elo_strong, place(weak.team, strong.team, venue)))
    return ZigpParams(
        (mu_att + mu_def) / 2 * mu_factor, (attack.phi + defense.phi) / 2,
        (attack.omega + defense.omega) / 2,
    )


def weaker_stage(weak, strong, elo_strong, venue, goals_strong, mu_factor=1.0) -> ZigpParams:
    """The weaker side's goals given the stronger side's, by its nested fit."""
    x = (1.0, elo_strong, place(weak.team, strong.team, venue), float(goals_strong))
    return ZigpParams(weak.nested.predict_mu(x) * mu_factor, weak.nested.phi, weak.nested.omega)


def pair_draws(model_a, model_b, elo_a, elo_b, u, venue="NEUTRAL", mu_factor=1.0):
    """One pairing's scores, once per row of the uniforms ``u``: one
    ``sample_match_block`` call on the two models in team-code order."""
    order = sorted((model_a, model_b), key=lambda m: m.team)
    n = len(u)
    a = np.full(n, order.index(model_a))
    return sample_match_block(
        ModelArrays.from_models(order), a, 1 - a, np.full(n, elo_a), np.full(n, elo_b),
        np.full(n, location_indicator(model_a.team, model_b.team, venue)), u, mu_factor,
    )


def build_team_model(team: str, elo: float) -> TeamModel:
    """A plausible hand-parameterized model tied to the team's rating."""
    s = (elo - 1870.0) / 400.0
    beta = math.log(0.25)
    gamma = math.log(0.05 / 0.95)
    attack = RegressionCoefficients(
        alpha=(0.3 + 0.5 * s + 0.0009 * 1870.0, -0.0009, 0.15),
        beta=beta,
        gamma_log=gamma,
    )
    defense = RegressionCoefficients(
        alpha=(0.3 - 0.5 * s - 0.0009 * 1870.0, 0.0009, -0.1),
        beta=beta,
        gamma_log=gamma,
    )
    nested = RegressionCoefficients(
        alpha=(0.25 + 0.4 * s + 0.0009 * 1870.0, -0.0009, 0.12, -0.08),
        beta=beta,
        gamma_log=gamma,
    )
    return TeamModel(team=team, attack=attack, defense=defense, nested=nested)


def rename_groups(fixtures_csv: str, letters: str) -> str:
    """A fixture CSV's text with groups A-F renamed to ``letters``, in the slots too."""
    table = str.maketrans("ABCDEF", letters)
    lines = []
    for line in fixtures_csv.splitlines():
        cells = line.split(",")
        if cells[0].isdigit():
            cells[2] = cells[2].translate(table)
            cells[5:7] = [s[0] + s[1:].translate(table) if s[0] in "123" else s for s in cells[5:7]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def euro_models(euro2020):
    ratings, _, _ = euro2020
    return {t: build_team_model(t, e) for t, e in ratings.items()}


FILLER_TEAMS = {
    "XXA": 1750.0,
    "XXB": 1720.0,
    "XXC": 1700.0,
    "XXD": 1680.0,
    "XXE": 1660.0,
    "XXF": 1640.0,
    "XXG": 1620.0,
    "XXH": 1600.0,
}


def _match_type_for(date: dt.date) -> str:
    if date.month in (6, 7):
        if date.year in (2014, 2018):
            return "WC"
        if date.year == 2016:
            return "CONT"
    if date.month in (3, 9, 10, 11):
        return "QUAL"
    return "FRIENDLY"


def generate_history(ratings: dict[str, float], seed: int = 11):
    """Synthetic international calendar from 2014 through spring 2021.

    Scores follow a simple rating-driven Poisson model; the point is a
    realistic volume and shape of data, not ZIGP ground truth.
    """
    rng = np.random.default_rng(seed)
    teams = sorted(ratings)
    matches = []
    date = dt.date(2014, 1, 15)
    while date < dt.date(2021, 6, 1):
        order = list(rng.permutation(teams))
        for i in range(0, len(order) - 1, 2):
            a, b = order[i], order[i + 1]
            neutral = rng.random() < 0.3
            venue = "NEUTRAL" if neutral else a
            adv = 0.0 if neutral else 0.18
            diff = (ratings[a] - ratings[b]) / 600.0
            lam_a = float(np.clip(math.exp(0.2 + diff + adv), 0.15, 4.0))
            lam_b = float(np.clip(math.exp(0.2 - diff - adv), 0.15, 4.0))
            matches.append(
                data_io.MatchRecord(
                    date=date,
                    team_a=a,
                    team_b=b,
                    goals_a=int(rng.poisson(lam_a)),
                    goals_b=int(rng.poisson(lam_b)),
                    match_type=_match_type_for(date),
                    venue_country=venue,
                )
            )
        date += dt.timedelta(days=14)
    return matches


@pytest.fixture(scope="session")
def demo_history(tmp_path_factory, euro2020):
    """Paths of a generated match CSV and matching ratings CSV."""
    ratings, _, _ = euro2020
    full = dict(ratings)
    full.update(FILLER_TEAMS)
    matches = generate_history(full)
    root = tmp_path_factory.mktemp("history")
    matches_path = root / "matches.csv"
    ratings_path = root / "ratings.csv"
    data_io.save_matches(matches_path, matches)
    with open(ratings_path, "w", newline="\n", encoding="utf-8") as f:
        f.write("team,elo\n")
        for t in sorted(full):
            f.write(f"{t},{full[t]}\n")
    return matches_path, ratings_path
