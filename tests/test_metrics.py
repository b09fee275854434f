"""Result ranks and forecast scores."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euroforecast.errors import ParameterError
from euroforecast.metrics import (
    N_RANKS,
    MetricsReport,
    OutcomeDistribution,
    brier,
    distributions_from_aggregate,
    mld,
    rps,
    score_report,
)
from euroforecast.tournament import monte_carlo


def dist(team, *p):
    return OutcomeDistribution(team=team, p=tuple(p))


UNIFORM = (1 / 6,) * 6


class TestOutcomeDistribution:
    def test_wrong_length(self):
        with pytest.raises(ParameterError, match="6 probabilities"):
            dist("AAA", 0.5, 0.5)

    def test_negative(self):
        with pytest.raises(ParameterError, match="negative"):
            dist("AAA", -0.1, 0.3, 0.3, 0.3, 0.1, 0.1)

    def test_sum_off(self):
        with pytest.raises(ParameterError, match="sum"):
            dist("AAA", 0.3, 0.3, 0.3, 0.3, 0.0, 0.0)

    def test_modal_rank(self):
        d = dist("AAA", 0.1, 0.1, 0.5, 0.1, 0.1, 0.1)
        assert d.modal_rank() == 3

    def test_modal_tie_prefers_better_rank(self):
        d = dist("AAA", 0.1, 0.3, 0.3, 0.1, 0.1, 0.1)
        assert d.modal_rank() == 2


class TestAggregateDistributions:
    def test_counts_to_probabilities(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        agg = monte_carlo(
            euro_models, ratings, fixtures, allocation, n_runs=40, master_seed=2
        )
        dists = distributions_from_aggregate(agg)
        assert sorted(dists) == sorted(agg.teams)
        for team, d in dists.items():
            assert sum(d.p) == pytest.approx(1.0, abs=1e-12)
            assert d.p[0] == agg.counts["champion"][team] / 40


class TestHandScores:
    def test_uniform_brier(self):
        d = {"AAA": dist("AAA", *UNIFORM)}
        assert brier(d, {"AAA": 4}) == pytest.approx(25 / 30)
        # the uniform score does not depend on the realized rank
        assert brier(d, {"AAA": 1}) == pytest.approx(25 / 30)
        many = {t: dist(t, *UNIFORM) for t in ("AAA", "BBB", "CCC")}
        assert brier(many, {t: 6 for t in many}) == pytest.approx(3 * 25 / 30)

    def test_two_category_rps(self):
        d = {"AAA": dist("AAA", 0.8, 0.2, 0.0, 0.0, 0.0, 0.0)}
        assert rps(d, {"AAA": 2}) == pytest.approx(0.128)

    def test_perfect_predictions_score_zero(self):
        d = {
            "AAA": dist("AAA", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "BBB": dist("BBB", 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
        }
        realized = {"AAA": 1, "BBB": 6}
        assert mld(d, realized) == 0.0
        assert brier(d, realized) == pytest.approx(0.0, abs=1e-15)
        assert rps(d, realized) == pytest.approx(0.0, abs=1e-15)

    def test_mld_worst_case(self):
        d = {"AAA": dist("AAA", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)}
        assert mld(d, {"AAA": 6}) == 5.0

    def test_mld_uses_modal_tie_rule(self):
        d = {"AAA": dist("AAA", 0.0, 0.5, 0.5, 0.0, 0.0, 0.0)}
        assert mld(d, {"AAA": 2}) == 0.0

    def test_certain_wrong_brier(self):
        d = {"AAA": dist("AAA", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)}
        assert brier(d, {"AAA": 2}) == pytest.approx(2.0)

    def test_certain_wrong_rps_extremes(self):
        d = {"AAA": dist("AAA", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)}
        # maximal separation: predicted champion, went out in the groups
        assert rps(d, {"AAA": 6}) == pytest.approx(1.0)
        # adjacent ranks disagree by a single cumulative step
        assert rps(d, {"AAA": 2}) == pytest.approx(0.2)


class TestTeamMismatch:
    def test_symmetric_difference_listed(self):
        d = {"AAA": dist("AAA", *UNIFORM)}
        with pytest.raises(ParameterError, match="BBB"):
            mld(d, {"BBB": 1})
        with pytest.raises(ParameterError, match="AAA"):
            brier(d, {"CCC": 2})
        with pytest.raises(ParameterError, match="CCC"):
            rps(d, {"AAA": 1, "CCC": 2})


@st.composite
def distribution(draw):
    raw = draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=6, max_size=6)
    )
    total = sum(raw)
    if total <= 0:
        raw = [1.0] * 6
        total = 6.0
    p = tuple(x / total for x in raw)
    return tuple(x / sum(p) for x in p)


class TestBounds:
    @settings(max_examples=80, deadline=None)
    @given(p=distribution(), rank=st.integers(1, 6))
    def test_per_team_bounds(self, p, rank):
        d = {"AAA": OutcomeDistribution(team="AAA", p=p)}
        r = {"AAA": rank}
        assert 0.0 <= mld(d, r) <= 5.0
        assert 0.0 <= brier(d, r) <= 2.0
        assert 0.0 <= rps(d, r) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(p=distribution(), q=distribution(), ra=st.integers(1, 6), rb=st.integers(1, 6))
    def test_insertion_order_invariance(self, p, q, ra, rb):
        da = OutcomeDistribution(team="AAA", p=p)
        db = OutcomeDistribution(team="BBB", p=q)
        realized = {"AAA": ra, "BBB": rb}
        forward = {"AAA": da, "BBB": db}
        backward = {"BBB": db, "AAA": da}
        for fn in (mld, brier, rps):
            assert fn(forward, realized) == pytest.approx(fn(backward, realized))


class TestReport:
    def test_totals_match_components(self):
        d = {
            "AAA": dist("AAA", 0.8, 0.2, 0.0, 0.0, 0.0, 0.0),
            "BBB": dist("BBB", *UNIFORM),
        }
        realized = {"AAA": 2, "BBB": 6}
        report = score_report(d, realized)
        assert isinstance(report, MetricsReport)
        assert report.total_mld == mld(d, realized)
        assert report.total_brier == pytest.approx(brier(d, realized))
        assert report.total_rps == pytest.approx(rps(d, realized))
        assert [t.team for t in report.teams] == ["AAA", "BBB"]
        row = report.teams[0]
        assert row.realized_rank == 2
        assert row.modal_rank == 1
        assert row.rps == pytest.approx(0.128)
