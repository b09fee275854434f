"""Backtest scoring of tournament forecasts.

A team's tournament result is ranked 1..6: champion, beaten finalist,
semifinal exit, quarterfinal exit, round-of-16 exit, group-stage exit.
Forecast quality is scored by maximum-likelihood distance (absolute
rank error of the modal prediction), the Brier score, and the rank
probability score in its cumulative form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .tournament import SimulationAggregate

N_RANKS = 6


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over the six result ranks for one team."""

    team: str
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.p) != N_RANKS:
            raise ParameterError(f"need {N_RANKS} probabilities, got {len(self.p)}")
        if any(x < 0 for x in self.p):
            raise ParameterError(f"negative probability in distribution for {self.team}")
        if abs(sum(self.p) - 1.0) > 1e-9:
            raise ParameterError(
                f"probabilities for {self.team} sum to {sum(self.p)!r}, not 1"
            )

    def modal_rank(self) -> int:
        """1-based argmax; ties resolve to the smaller (better) rank."""
        return int(np.argmax(self.p)) + 1


def distributions_from_aggregate(
    agg: "SimulationAggregate",
) -> dict[str, OutcomeDistribution]:
    """Per-team result-rank distributions implied by simulation counts."""
    out = {}
    n = agg.n_runs
    counts = agg.counts
    for team in agg.teams:
        c = counts["champion"][team]
        f = counts["final"][team]
        s = counts["sf"][team]
        q = counts["qf"][team]
        r = counts["r16"][team]
        p = (c, f - c, s - f, q - s, r - q, n - r)
        out[team] = OutcomeDistribution(team=team, p=tuple(x / n for x in p))
    return out


def check_teams(teams: Iterable[str], realized: Mapping[str, int]) -> None:
    """Raise ``ParameterError`` unless ``realized`` ranks exactly ``teams``
    (a distribution mapping's keys, or the fixtures' teams)."""
    diff = set(teams) ^ set(realized)
    if diff:
        raise ParameterError(f"forecast/realized team sets differ: {sorted(diff)}")


def mld(
    distributions: Mapping[str, OutcomeDistribution], realized: Mapping[str, int]
) -> float:
    """Sum over teams of |realized rank - modal predicted rank|."""
    check_teams(distributions, realized)
    return float(
        sum(abs(realized[t] - d.modal_rank()) for t, d in distributions.items())
    )


def brier(
    distributions: Mapping[str, OutcomeDistribution], realized: Mapping[str, int]
) -> float:
    """Sum over teams of the squared-error score against the realized rank."""
    check_teams(distributions, realized)
    total = 0.0
    for t, d in distributions.items():
        onehot = np.zeros(N_RANKS)
        onehot[realized[t] - 1] = 1.0
        total += float(np.sum((np.array(d.p) - onehot) ** 2))
    return total


def rps(
    distributions: Mapping[str, OutcomeDistribution], realized: Mapping[str, int]
) -> float:
    """Rank probability score, cumulative form, summed over teams.

    Per team: (1/(K-1)) * sum_{i<K} (cumsum(p)_i - 1[realized <= i])^2.
    """
    check_teams(distributions, realized)
    total = 0.0
    for t, d in distributions.items():
        cum_p = np.cumsum(d.p)[: N_RANKS - 1]
        cum_o = (np.arange(1, N_RANKS) >= realized[t]).astype(float)
        total += float(np.sum((cum_p - cum_o) ** 2)) / (N_RANKS - 1)
    return total


@dataclass(frozen=True)
class TeamScore:
    team: str
    realized_rank: int
    modal_rank: int
    mld: float
    brier: float
    rps: float


@dataclass(frozen=True)
class MetricsReport:
    teams: tuple[TeamScore, ...]
    total_mld: float
    total_brier: float
    total_rps: float


def score_report(
    distributions: Mapping[str, OutcomeDistribution], realized: Mapping[str, int]
) -> MetricsReport:
    """Per-team and total scores for all three metrics."""
    check_teams(distributions, realized)
    rows = []
    for team in sorted(distributions):
        d = {team: distributions[team]}
        r = {team: realized[team]}
        rows.append(
            TeamScore(
                team=team,
                realized_rank=realized[team],
                modal_rank=distributions[team].modal_rank(),
                mld=mld(d, r),
                brier=brier(d, r),
                rps=rps(d, r),
            )
        )
    return MetricsReport(
        teams=tuple(rows),
        total_mld=sum(r.mld for r in rows),
        total_brier=sum(r.brier for r in rows),
        total_rps=sum(r.rps for r in rows),
    )
