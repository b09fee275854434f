"""Football Elo ratings.

Update rule after a match:

    elo_after = elo_before + K * G * (W - We)

where K is the tournament weight, G a goal-difference multiplier,
W the realized result (1 / 0.5 / 0) and We the win expectancy

    We = 1 / (10^(-D/400) + 1),   D = elo_before - elo_opponent.

No home-advantage offset is applied inside We; venue effects enter the
goal models as a regression covariate instead.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import DataError, ParameterError

if TYPE_CHECKING:
    from .data_io import MatchRecord

# eloratings.net convention; WC/CONT are the two values pinned by the
# rating formula's definition, the rest are configurable defaults.
DEFAULT_K_FACTORS = {"WC": 60.0, "CONT": 50.0, "QUAL": 40.0, "FRIENDLY": 20.0}
K_FACTOR_MAX = 100.0

# Ratings accepted where they enter: seed files, annotated columns and
# the forecast overrides.  Real tables lie far inside (the packaged
# ratings span 1,600-2,100); far outside, 10 ** (D / 400) overflows.
ELO_RANGE = (0.0, 4000.0)


@dataclass(frozen=True)
class EloRating:
    team: str
    points: float
    as_of: dt.date


def expected_score(elo_a: float, elo_b: float) -> float:
    """Win expectancy We of the first team from the Elo difference."""
    d = elo_a - elo_b
    return 1.0 / (10.0 ** (-d / 400.0) + 1.0)


def check_rating(points: float, name: str) -> float:
    """``points``, once it lies in ELO_RANGE; else a ParameterError naming ``name``."""
    low, high = ELO_RANGE
    if not low <= points <= high:
        raise ParameterError(f"{name} must lie in [{low:g}, {high:g}], got {points:g}")
    return points


def goal_multiplier(goal_diff: int) -> float:
    """Goal-difference multiplier G: 1, 1, 3/2, then (11+N)/8 for N >= 3."""
    if goal_diff < 0:
        raise ParameterError(f"goal difference must be >= 0, got {goal_diff}")
    if goal_diff <= 1:
        return 1.0
    if goal_diff == 2:
        return 1.5
    return (11.0 + goal_diff) / 8.0


def update_pair(
    elo_a: float, elo_b: float, goals_a: int, goals_b: int, k_weight: float
) -> tuple[float, float]:
    """Post-match ratings of both sides: elo + K * G * (W - We) each."""
    kg = k_weight * goal_multiplier(abs(goals_a - goals_b))
    w_a = 1.0 if goals_a > goals_b else 0.0 if goals_a < goals_b else 0.5
    return (
        elo_a + kg * (w_a - expected_score(elo_a, elo_b)),
        elo_b + kg * ((1.0 - w_a) - expected_score(elo_b, elo_a)),
    )


def expected_scores(elo_a: np.ndarray, elo_b: np.ndarray) -> np.ndarray:
    """:func:`expected_score` over arrays, bit for bit.

    ``np.float_power`` calls libm's ``pow`` per element, the function
    behind Python's float ``**``.  ``np.power`` is not used: its AVX512
    loop differs from ``pow`` in the last bit.
    """
    return 1.0 / (np.float_power(10.0, -(elo_a - elo_b) / 400.0) + 1.0)


def update_pairs(
    elo_a: np.ndarray,
    elo_b: np.ndarray,
    goals_a: np.ndarray,
    goals_b: np.ndarray,
    k_weight: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`update_pair` over arrays of matches, bit for bit.

    ``k_weight`` is one K factor for all matches or one per match.
    """
    diff = np.abs(goals_a - goals_b)
    g = np.where(diff <= 1, 1.0, np.where(diff == 2, 1.5, (11.0 + diff) / 8.0))
    w_a = np.where(goals_a > goals_b, 1.0, np.where(goals_a < goals_b, 0.0, 0.5))
    kg = k_weight * g
    return (
        elo_a + kg * (w_a - expected_scores(elo_a, elo_b)),
        elo_b + kg * ((1.0 - w_a) - expected_scores(elo_b, elo_a)),
    )


def replay_history(
    seed_ratings: Iterable[EloRating],
    matches: list["MatchRecord"],
    k_factors: Mapping[str, float] | None = None,
) -> tuple[list["MatchRecord"], dict[str, float]]:
    """Annotate every match with both teams' Elo immediately before it.

    ``matches`` must be sorted ascending by date and every team must
    appear in the seed ratings.  Returns the annotated copies plus the
    final rating table after all updates.
    """
    from .data_io import MatchRecord  # data_io imports this module

    if k_factors is None:
        k_factors = DEFAULT_K_FACTORS
    table = {r.team: float(r.points) for r in seed_ratings}

    annotated = []
    prev_date = None
    for i, m in enumerate(matches):
        if prev_date is not None and m.date < prev_date:
            raise DataError(
                f"matches not sorted by date: row {i} ({m.date}) after {prev_date}"
            )
        prev_date = m.date
        for team in (m.team_a, m.team_b):
            if team not in table:
                raise DataError(f"no seed rating for team {team!r}")
        if m.match_type not in k_factors:
            raise DataError(
                f"unknown match type {m.match_type!r}; configure a K factor for it"
            )
        elo_a, elo_b = table[m.team_a], table[m.team_b]
        annotated.append(
            MatchRecord(
                m.date, m.team_a, m.team_b, m.goals_a, m.goals_b, m.match_type,
                m.venue_country, elo_a, elo_b,
            )
        )
        k = float(k_factors[m.match_type])
        table[m.team_a], table[m.team_b] = update_pair(
            elo_a, elo_b, m.goals_a, m.goals_b, k
        )
    return annotated, table
