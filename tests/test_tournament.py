"""Tournament structure, group ranking, knockout play, Monte Carlo runs."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import multiprocessing
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euroforecast import data_io, tournament
from euroforecast.elo import DEFAULT_K_FACTORS, expected_score, update_pair
from euroforecast.errors import ConfigError, DataError, ParameterError
from euroforecast.forecast import ModelArrays, location_indicator, order_by_strength
from euroforecast.tournament import (
    EXTRA_TIME_MU_FACTOR,
    GROUPS,
    KNOCKOUT_DRAWS,
    STAT_NAMES,
    _knockout_tie,
    _play_block,
    _stage_counts,
    _standings,
    _tiebreak_order,
    compile_bracket,
    group_teams,
    monte_carlo,
    validate_allocation,
    validate_fixtures,
)

from conftest import build_team_model, closed_form_pmf, stronger_stage, weaker_stage


class TestValidateFixtures:
    def test_packaged_bracket_is_valid(self, euro2020):
        _, fixtures, _ = euro2020
        validate_fixtures(fixtures)

    def test_counts(self, euro2020):
        _, fixtures, _ = euro2020
        assert len(fixtures) == 51
        assert len(group_teams(fixtures)) == 6

    def test_duplicate_id_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        broken = list(fixtures) + [dataclasses.replace(fixtures[-1])]
        with pytest.raises(DataError, match="duplicate"):
            validate_fixtures(broken)

    def test_missing_fixture_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        with pytest.raises(DataError, match="expected"):
            validate_fixtures(fixtures[:-1])

    def test_forward_reference_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        broken = [
            dataclasses.replace(f, slot_a="W51") if f.match_id == 49 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="earlier match"):
            validate_fixtures(broken)

    def test_winner_of_a_group_match_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        broken = [
            dataclasses.replace(f, slot_a="W1") if f.match_id == 37 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="match 37: slot W1 must reference an earlier match"):
            validate_fixtures(broken)

    def test_slot_used_twice_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        broken = [
            dataclasses.replace(f, slot_b="2A") if f.match_id == 37 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="match 37: slot 2A is used twice"):
            validate_fixtures(broken)

    def test_malformed_slot_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        broken = [
            dataclasses.replace(f, slot_b="4A") if f.match_id == 52 - 15 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="slot"):
            validate_fixtures(broken)

    @pytest.mark.parametrize("side", ["slot_a", "slot_b"])
    def test_empty_slot_rejected(self, euro2020, side):
        _, fixtures, _ = euro2020
        broken = [dataclasses.replace(f, **{side: ""}) if f.match_id == 39 else f for f in fixtures]
        with pytest.raises(DataError, match="match 39: malformed slot ''"):
            validate_fixtures(broken)

    def test_unknown_group_in_slot_rejected(self, euro2020):
        _, fixtures, _ = euro2020
        broken = [
            dataclasses.replace(f, slot_a="1Z") if f.match_id == 38 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="unknown group"):
            validate_fixtures(broken)


class TestValidateAllocation:
    def test_packaged_table_is_valid(self, euro2020):
        _, _, allocation = euro2020
        validate_allocation(allocation)
        assert len(allocation) == 15

    def test_missing_row_rejected(self, euro2020):
        _, _, allocation = euro2020
        partial = {k: v for k, v in allocation.items() if k != "ACDF"}
        with pytest.raises(DataError, match="combination"):
            validate_allocation(partial)

    def test_non_bijective_row_rejected(self, euro2020):
        _, _, allocation = euro2020
        broken = {k: dict(v) for k, v in allocation.items()}
        slots = list(broken["ABCD"])
        broken["ABCD"][slots[0]] = broken["ABCD"][slots[1]]
        with pytest.raises(DataError, match="each qualified group"):
            validate_allocation(broken)

    def test_inconsistent_slots_rejected(self, euro2020):
        _, _, allocation = euro2020
        broken = {k: dict(v) for k, v in allocation.items()}
        row = broken["ABCD"]
        slot, group = next(iter(row.items()))
        del row[slot]
        row["1Z"] = group
        with pytest.raises(DataError, match="same slots"):
            validate_allocation(broken)


GROUP = ("AAA", "BBB", "CCC", "DDD")
ELO = {"AAA": 1900.0, "BBB": 1880.0, "CCC": 1860.0, "DDD": 1840.0}


def rank(teams, results, elo, lots=(0.0,) * 6, h2h=True):
    """``teams`` best-first by the engine's ``_standings`` and
    ``_tiebreak_order`` on one row, with ``lots`` in ``teams``' order;
    without ``h2h``, by the best-thirds chain.  ``results`` are
    (team a, team b, goals a, goals b); a side outside ``teams`` counts
    for no one."""
    index = {t: i for i, t in enumerate(teams)}
    side_a, side_b = (np.array([index.get(r[s], -1) for r in results], dtype=int) for s in (0, 1))
    goals = np.array([r[2:] for r in results], dtype=int).reshape(-1, 2)
    overall, head = _standings(side_a, side_b, goals[None, :, 0], goals[None, :, 1], len(teams))
    elo_now = np.array([[elo[t] for t in teams]])
    order = _tiebreak_order(overall, head if h2h else None, elo_now, np.array([lots[: len(teams)]]))
    return tuple(teams[i] for i in order[0])


def rg(results, elo=ELO):
    return rank(GROUP, results, elo)


class TestRankGroup:
    def test_points_dominate(self):
        results = [
            ("AAA", "BBB", 0, 1),
            ("AAA", "CCC", 0, 2),
            ("AAA", "DDD", 1, 0),
            ("BBB", "CCC", 1, 0),
            ("BBB", "DDD", 2, 0),
            ("CCC", "DDD", 3, 0),
        ]
        # BBB 9 pts, CCC 6, AAA 3, DDD 0
        assert rg(results) == ("BBB", "CCC", "AAA", "DDD")

    def test_head_to_head_beats_overall_goal_difference(self):
        # AAA and BBB finish level on 6 points; BBB has the much better
        # overall goal difference but lost the direct meeting.
        results = [
            ("AAA", "BBB", 1, 0),
            ("AAA", "CCC", 1, 0),
            ("AAA", "DDD", 0, 1),
            ("BBB", "CCC", 5, 0),
            ("BBB", "DDD", 5, 0),
            ("CCC", "DDD", 1, 1),
        ]
        ranking = rg(results)
        assert ranking.index("AAA") < ranking.index("BBB")

    def test_all_draws_fall_back_to_elo(self):
        results = [
            (a, b, 0, 0)
            for i, a in enumerate(GROUP)
            for b in GROUP[i + 1 :]
        ]
        assert rg(results) == ("AAA", "BBB", "CCC", "DDD")

    def test_full_tie_decided_by_lot_deterministically(self):
        results = [
            (a, b, 0, 0)
            for i, a in enumerate(GROUP)
            for b in GROUP[i + 1 :]
        ]
        flat = {t: 1800.0 for t in GROUP}
        # the higher lot ranks first
        assert rank(GROUP, results, flat, (0.2, 0.9, 0.5, 0.1)) == ("BBB", "CCC", "AAA", "DDD")

    def test_sweep_wins_rank_first(self):
        results = [
            ("DDD", "AAA", 3, 0),
            ("DDD", "BBB", 1, 0),
            ("DDD", "CCC", 2, 1),
            ("AAA", "BBB", 1, 1),
            ("AAA", "CCC", 1, 1),
            ("BBB", "CCC", 0, 0),
        ]
        assert rg(results)[0] == "DDD"


class TestBestThirds:
    def test_points_then_goal_difference(self):
        thirds = {g: f"T{g}" for g in "ABCDEF"}
        results = [
            ("TA", "x", 2, 0), ("TA", "y", 2, 0),            # 6 pts
            ("TB", "x", 1, 0),                               # 3 pts, +1
            ("TC", "x", 3, 1),                               # 3 pts, +2
            ("TD", "x", 0, 0), ("TD", "y", 0, 0),            # 2 pts
            ("TE", "x", 0, 1),                               # 0 pts
            ("TF", "x", 0, 5),                               # 0 pts
        ]
        elo = {t: 1800.0 for t in thirds.values()}
        picked = rank(list(thirds.values()), results, elo, h2h=False)[:4]
        assert picked == ("TA", "TC", "TB", "TD")

    def test_returns_sorted_group_letters(self):
        thirds = {g: f"T{g}" for g in "ABCDEF"}
        results = [("TF", "x", 9, 0), ("TE", "x", 8, 0), ("TD", "x", 7, 0), ("TB", "x", 6, 0)]
        elo = {t: 1800.0 for t in thirds.values()}
        picked = rank(list(thirds.values()), results, elo, h2h=False)[:4]
        assert sorted(t[1] for t in picked) == ["B", "D", "E", "F"]

    def test_elo_breaks_dead_heat(self):
        thirds = {g: f"T{g}" for g in "ABCDEF"}
        results = []
        elo = {f"T{g}": 1800.0 + i for i, g in enumerate("ABCDEF")}
        picked = rank(list(thirds.values()), results, elo, h2h=False)[:4]
        assert picked == ("TF", "TE", "TD", "TC")


SCORES = st.integers(0, 9)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SEEDS = st.integers(0, 2**64 - 1)


def round_robin(data, teams):
    """The six matches among four ``teams``, with drawn sides and scores."""
    results = []
    for a, b in combinations(teams, 2):
        if data.draw(st.booleans()):
            a, b = b, a
        results.append((a, b, data.draw(SCORES), data.draw(SCORES)))
    return results


class TestRankingProperties:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_rank_group(self, data, seed):
        results = round_robin(data, GROUP)
        elo = {t: data.draw(FINITE) for t in GROUP}
        lots = dict(zip(GROUP, np.random.default_rng(seed).random(len(GROUP))))
        ranking = rank(GROUP, results, elo, [lots[t] for t in GROUP])
        assert sorted(ranking) == sorted(GROUP)
        teams, shuffled = data.draw(st.permutations(GROUP)), data.draw(st.permutations(results))
        assert rank(teams, shuffled, elo, [lots[t] for t in teams]) == ranking

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_select_best_thirds(self, data, seed):
        teams = {g: tuple(f"{g}{i}" for i in range(4)) for g in "ABCDEF"}
        results = [r for g in teams for r in round_robin(data, teams[g])]
        elo = {t: data.draw(FINITE) for ts in teams.values() for t in ts}
        thirds = [data.draw(st.sampled_from(ts)) for ts in teams.values()]
        picked = rank(thirds, results, elo, np.random.default_rng(seed).random(6), h2h=False)[:4]
        assert len(set(picked)) == 4
        assert set(picked) <= set(thirds)


def exact_tie(model_a, model_b, elo_a, elo_b, venue, cap=60):
    """(P(A advances), P(extra time), P(shootout)) of one knockout tie.

    Each period's joint score law is built from the closed-form ZIGP pmf
    of the conftest stage oracles: the stronger side's goals, then the
    weaker side's given them.  The mass beyond ``cap`` is below 1e-12.
    """

    def period(mu_factor):
        _, _, swapped = order_by_strength(model_a.team, elo_a, model_b.team, elo_b)
        strong, weak = (model_b, model_a) if swapped else (model_a, model_b)
        elo_strong, elo_weak = (elo_b, elo_a) if swapped else (elo_a, elo_b)
        ks = np.arange(cap + 1)
        first = closed_form_pmf(
            stronger_stage(strong, weak, elo_strong, elo_weak, venue, mu_factor), ks
        )
        grid = np.array([
            closed_form_pmf(weaker_stage(weak, strong, elo_strong, venue, i, mu_factor), ks)
            for i in ks
        ]) * first[:, None]
        assert 1.0 - grid.sum() < 1e-12
        return grid.T if swapped else grid

    regular, extra = period(1.0), period(EXTRA_TIME_MU_FACTOR)
    p_extra = np.trace(regular)
    p_shootout = p_extra * np.trace(extra)
    p_advance = (
        np.tril(regular, -1).sum()
        + p_extra * np.tril(extra, -1).sum()
        + p_shootout * expected_score(elo_a, elo_b)
    )
    return p_advance, p_extra, p_shootout


def play_ties(elo_a, elo_b, venue, u, k=50.0):
    """``_knockout_tie`` for AAA against BBB on every row of ``u``."""
    models = [build_team_model("AAA", elo_a), build_team_model("BBB", elo_b)]
    n = len(u)
    return _knockout_tie(
        ModelArrays.from_models(models),
        np.zeros(n, dtype=int),
        np.ones(n, dtype=int),
        np.full(n, elo_a),
        np.full(n, elo_b),
        np.full(n, location_indicator("AAA", "BBB", venue)),
        u,
        k,
    )


class TestKnockoutMatch:
    """The knockout tie, driven directly with rows of uniforms."""

    def test_deterministic(self):
        u = np.random.default_rng(4).random((50, KNOCKOUT_DRAWS))
        first = play_ties(2000.0, 1900.0, "NEUTRAL", u)
        again = play_ties(2000.0, 1900.0, "NEUTRAL", u.copy())
        for x, y in zip(first, again):
            np.testing.assert_array_equal(x, y)

    def test_winner_consistent_with_score(self):
        u = np.random.default_rng(0).random((2000, KNOCKOUT_DRAWS))
        a_wins, ga, gb, _, _, used = play_ties(2000.0, 1900.0, "NEUTRAL", u)
        shootout = used == 5
        assert shootout.any() and (used == 4).any() and (used == 2).any()
        assert np.all(ga[shootout] == gb[shootout])
        assert np.all(a_wins[~shootout] == (ga > gb)[~shootout])
        assert np.all(ga[~shootout] != gb[~shootout])
        assert np.all(a_wins[shootout] == (u[shootout, 4] < expected_score(2000.0, 1900.0)))

    def test_stronger_side_wins_more_often(self):
        u = np.random.default_rng(0).random((400, KNOCKOUT_DRAWS))
        assert play_ties(2100.0, 1700.0, "NEUTRAL", u)[0].sum() > 280

    @pytest.mark.parametrize(
        "elo_a, elo_b, venue", [(2050.0, 1800.0, "NEUTRAL"), (1850.0, 1950.0, "AAA")]
    )
    def test_frequencies_match_the_exact_tie(self, elo_a, elo_b, venue):
        """Criterion 7's 4-sigma rule on 200k ties, against the closed form."""
        n = 200_000
        u = np.random.default_rng(31).random((n, KNOCKOUT_DRAWS))
        a_wins, _, _, _, _, used = play_ties(elo_a, elo_b, venue, u)
        exact = exact_tie(
            build_team_model("AAA", elo_a), build_team_model("BBB", elo_b), elo_a, elo_b, venue
        )
        for p, hits in zip(exact, (a_wins.sum(), (used >= 4).sum(), (used == 5).sum())):
            assert abs(hits - n * p) <= 4.0 * np.sqrt(n * p * (1.0 - p))

    def test_ratings_update_on_the_aggregate_score(self):
        u = np.random.default_rng(2).random((3000, KNOCKOUT_DRAWS))
        _, ga, gb, new_a, new_b, used = play_ties(1990.0, 1900.0, "BBB", u, k=60.0)
        assert (used == 4).any()
        for row in range(len(u)):
            assert (new_a[row], new_b[row]) == update_pair(1990.0, 1900.0, ga[row], gb[row], 60.0)


def stage_teams(bracket, block, stage):
    """(runs, teams): the teams seated in each run's ``stage`` matches, sorted."""
    seats = [seat for m in bracket.knockout if m.stage == stage for seat in (m.seat_a, m.seat_b)]
    return np.sort(block.seats[:, seats], axis=1)


class TestRunTournament:
    """Each run's structure, on every row of the ``played`` block."""

    def test_structure(self, euro2020, played):
        _, fixtures, _ = euro2020
        bracket, _, block = played
        names = np.array(bracket.teams)
        groups = np.sort(names[block.positions], axis=-1)
        assert (groups == np.array(list(group_teams(fixtures).values()))).all()
        assert (np.diff(np.sort(block.qualified, axis=1), axis=1) > 0).all()
        reached = [stage_teams(bracket, block, s) for s in ("R16", "QF", "SF", "FINAL")]
        assert [r.shape[1] for r in reached] == [16, 8, 4, 2]
        for wider, narrower in zip(reached, reached[1:]):
            assert (np.diff(narrower, axis=1) > 0).all()
            assert (narrower[:, :, None] == wider[:, None, :]).any(axis=2).all()
        final = next(m for m in bracket.knockout if m.stage == "FINAL")
        assert (block.seats[:, [final.seat_winner]] == reached[-1]).any(axis=1).all()

    def test_r16_composition(self, played):
        bracket, _, block = played
        places = block.positions
        thirds = np.take_along_axis(places[:, :, 2], block.qualified, axis=1)
        expected = np.concatenate([places[:, :, 0], places[:, :, 1], thirds], axis=1)
        assert np.array_equal(stage_teams(bracket, block, "R16"), np.sort(expected, axis=1))

    def test_thirds_come_from_third_place(self, played):
        bracket, _, block = played
        first = bracket.members.size  # the third slots' seats follow the group places
        seated = block.seats[:, first : first + bracket.thirds.shape[1]]
        assert (seated[:, :, None] == block.positions[:, None, :, 2]).any(axis=2).all()

    def test_missing_model_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        models = dict(euro_models)
        del models["ITA"]
        with pytest.raises(ConfigError, match="ITA"):
            compile_bracket(models, ratings, fixtures, allocation)

    def test_missing_rating_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        partial = {t: e for t, e in ratings.items() if t != "WAL"}
        with pytest.raises(ConfigError, match="WAL"):
            compile_bracket(euro_models, partial, fixtures, allocation)

    def test_winner_of_a_group_match_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        broken = [
            dataclasses.replace(f, slot_a="W1") if f.match_id == 37 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="slot W1"):
            compile_bracket(euro_models, ratings, broken, allocation)

    def test_incomplete_allocation_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        partial = {combo: row for combo, row in allocation.items() if combo != "CDEF"}
        with pytest.raises(DataError, match="combination"):
            compile_bracket(euro_models, ratings, fixtures, partial)

    def test_input_ratings_not_mutated(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        before = dict(ratings)
        bracket = compile_bracket(euro_models, ratings, fixtures, allocation)
        start = bracket.ratings.copy()
        _play_block(bracket, np.random.default_rng(5).random((8, bracket.width)))
        assert ratings == before
        assert np.array_equal(bracket.ratings, start)


@pytest.fixture(scope="module")
def aggregate(euro2020, euro_models):
    ratings, fixtures, allocation = euro2020
    return monte_carlo(
        euro_models, ratings, fixtures, allocation, n_runs=60, master_seed=9
    )


class TestMonteCarlo:
    def test_group_outcomes_partition(self, aggregate):
        n = aggregate.n_runs
        assert n == 60
        for t in aggregate.teams:
            total = sum(
                aggregate.counts[stat][t]
                for stat in (
                    "group_first",
                    "group_second",
                    "third_qualified",
                    "eliminated_group",
                )
            )
            assert total == n
            assert aggregate.counts["r16"][t] == n - aggregate.counts["eliminated_group"][t]

    def test_stage_columns_sum(self, aggregate):
        n = aggregate.n_runs
        for stat, per_run in (
            ("r16", 16),
            ("qf", 8),
            ("sf", 4),
            ("final", 2),
            ("champion", 1),
        ):
            assert sum(aggregate.counts[stat].values()) == per_run * n

    def test_stage_counts_monotone(self, aggregate):
        for t in aggregate.teams:
            c = aggregate.counts
            assert c["r16"][t] >= c["qf"][t] >= c["sf"][t] >= c["final"][t] >= c["champion"][t]

    def test_reproducible(self, euro2020, euro_models, aggregate):
        ratings, fixtures, allocation = euro2020
        again = monte_carlo(
            euro_models, ratings, fixtures, allocation, n_runs=60, master_seed=9
        )
        assert again.counts == aggregate.counts

    def test_worker_count_does_not_change_counts(
        self, euro2020, euro_models, aggregate, monkeypatch
    ):
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        ratings, fixtures, allocation = euro2020
        parallel = monte_carlo(
            euro_models, ratings, fixtures, allocation,
            n_runs=60, master_seed=9, n_workers=3,
        )
        assert parallel.n_runs == aggregate.n_runs
        assert parallel.counts == aggregate.counts

    def test_more_workers_than_runs(self, euro2020, euro_models, monkeypatch):
        # 3 runs on 5 workers play on 3 processes, one run each
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        ratings, fixtures, allocation = euro2020
        one, five = (
            monte_carlo(
                euro_models, ratings, fixtures, allocation,
                n_runs=3, master_seed=9, n_workers=workers,
            )
            for workers in (1, 5)
        )
        assert np.array_equal(five.table, one.table)

    @pytest.fixture
    def started(self, monkeypatch):
        """Each pool ``monte_carlo`` starts, as (max_workers, submitted ranges);
        the stand-in plays what is submitted to it in this process."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.ranges = []
                started.append((max_workers, self.ranges))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, bracket, master_seed, runs, block_runs):
                self.ranges.append(runs)
                future = concurrent.futures.Future()
                future.set_result(fn(bracket, master_seed, runs, block_runs))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return started

    @staticmethod
    def one_and_fanned(euro2020, euro_models, n_runs, workers):
        ratings, fixtures, allocation = euro2020
        return (
            monte_carlo(
                euro_models, ratings, fixtures, allocation,
                n_runs=n_runs, master_seed=9, n_workers=w,
            )
            for w in (1, workers)
        )

    @pytest.mark.parametrize(
        "n_runs, workers, pools",
        [
            (24, 2, [(1, [range(12, 24)])]),
            (3, 5, [(2, [range(1, 2), range(2, 3)])]),
            (1, 2, []),
        ],
        ids=["24-runs-on-2", "3-runs-on-5", "1-run-on-2"],
    )
    def test_caller_plays_the_first_range(
        self, euro2020, euro_models, monkeypatch, started, n_runs, workers, pools
    ):
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        one, fanned = self.one_and_fanned(euro2020, euro_models, n_runs, workers)
        assert started == pools
        assert np.array_equal(fanned.table, one.table)

    @pytest.mark.parametrize(
        "n_runs, workers, pools",
        [
            (1023, 2, []),
            (1024, 2, [(1, [range(512, 1024)])]),
            (1536, 5, [(2, [range(512, 1024), range(1024, 1536)])]),
        ],
        ids=["1023-runs-on-2", "1024-runs-on-2", "1536-runs-on-5"],
    )
    def test_every_process_plays_its_minimum(
        self, euro2020, euro_models, started, n_runs, workers, pools
    ):
        assert tournament.MIN_RUNS_PER_PROCESS == 512
        one, fanned = self.one_and_fanned(euro2020, euro_models, n_runs, workers)
        assert started == pools
        assert np.array_equal(fanned.table, one.table)

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_fan_out_needs_no_fork(self, euro2020, euro_models, monkeypatch, method):
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        pool = functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context(method),
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        ratings, fixtures, allocation = euro2020
        one, two = (
            monte_carlo(
                euro_models, ratings, fixtures, allocation,
                n_runs=40, master_seed=9, n_workers=workers,
            )
            for workers in (1, 2)
        )
        assert np.array_equal(two.table, one.table)

    def test_seed_changes_outcome(self, euro2020, euro_models, aggregate):
        ratings, fixtures, allocation = euro2020
        other = monte_carlo(
            euro_models, ratings, fixtures, allocation, n_runs=60, master_seed=10
        )
        assert other.counts != aggregate.counts

    def test_runs_are_independent_of_batching(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        bracket = compile_bracket(euro_models, ratings, fixtures, allocation)
        u = run_rng(9, 17, bracket.width).random(bracket.width)[None]
        runs = [
            monte_carlo(euro_models, ratings, fixtures, allocation, n_runs=n, master_seed=9)
            for n in (17, 18)
        ]
        single = _stage_counts(bracket, _play_block(bracket, u))
        assert np.array_equal(runs[1].table - runs[0].table, single)

    @pytest.mark.parametrize("intercept, got", [(709.5, "inf"), (-744.5, "0.0")])
    def test_stage_mean_outside_the_floats_rejected(self, euro2020, intercept, got):
        """Each regression's mean is a float, but at 709.5 the stronger side's
        blend overflows, and at -744.5 (every match 0-0) the extra-time
        factor rounds it to 0."""
        ratings, fixtures, allocation = euro2020
        models = {}
        for team in ratings:
            model = build_team_model(team, 1800.0)
            flat = {
                kind: dataclasses.replace(
                    getattr(model, kind),
                    alpha=(intercept,) + (0.0,) * (len(getattr(model, kind).alpha) - 1),
                )
                for kind in ("attack", "defense", "nested")
            }
            models[team] = dataclasses.replace(model, **flat)
        with pytest.raises(ParameterError, match=f"mu must be positive and finite, got {got}"):
            monte_carlo(models, ratings, fixtures, allocation, n_runs=4)

    def test_nonpositive_runs_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        with pytest.raises(ConfigError):
            monte_carlo(euro_models, ratings, fixtures, allocation, n_runs=0)

    def test_probability_accessor(self, aggregate):
        p = sum(aggregate.probability("champion", t) for t in aggregate.teams)
        assert p == pytest.approx(1.0)

    def test_counts_are_one_int64_table(self, aggregate):
        table = aggregate.table
        assert table.dtype == np.int64
        assert table.shape == (len(STAT_NAMES), len(aggregate.teams))
        counts = aggregate.counts
        for s, stat in enumerate(STAT_NAMES):
            for t, team in enumerate(aggregate.teams):
                assert counts[stat][team] == table[s, t]
                assert aggregate.probability(stat, team) == table[s, t] / 60

    def test_negative_seed_rejected(self, euro2020, euro_models):
        with pytest.raises(ConfigError, match="master seed must be non-negative, got -1"):
            monte_carlo(euro_models, *euro2020, n_runs=5, master_seed=-1)

    def test_runs_beyond_one_index_word_rejected(self, euro2020, euro_models, monkeypatch):
        def no_bracket(*args, **kwargs):
            raise AssertionError("the bracket was compiled")

        monkeypatch.setattr(tournament, "compile_bracket", no_bracket)
        with pytest.raises(ConfigError, match=f"at most {2**32}"):
            monte_carlo(euro_models, *euro2020, n_runs=2**32 + 1)


def run_rng(master_seed: int, run_index: int, width: int) -> np.random.Generator:
    """The generator of run ``run_index`` of ``monte_carlo`` under ``master_seed``.

    Run ``i`` reads the ``width`` uniforms (:attr:`Bracket.width`) at
    offset ``i * width`` of the stream of ``np.random.default_rng(master_seed)``,
    so advancing its bit generator by ``i * width`` reaches them.  To
    replay the run, pass ``run_rng(seed, i, width).random(width)[None]``
    to ``_play_block``: its one row is that run.
    """
    rng = np.random.default_rng(master_seed)
    rng.bit_generator.advance(run_index * width)
    return rng


class TestBlockSeeding:
    """Run ``i`` reads ``width`` uniforms at offset ``i * width`` of one stream."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 11])
    def test_rows_equal_run_rng(self, seed):
        stream = np.random.default_rng(seed).random((40, 177))
        assert np.array_equal(tournament._block_uniforms(seed, 0, 40, 177), stream)
        assert np.array_equal(tournament._block_uniforms(seed, 7, 30, 177), stream[7:37])
        for i in (7, 39, 1023, 2**31, 2**32 - 1):
            row = tournament._block_uniforms(seed, i, 1, 177)[0]
            assert np.array_equal(row, run_rng(seed, i, 177).random(177))

    def test_a_worker_range(self, euro2020, euro_models):
        # the middle of 3 workers on 200 runs, in blocks of 16 and a last one of 3
        bracket = compile_bracket(euro_models, *euro2020)
        u = np.random.default_rng(9).random((133, bracket.width))[66:]
        expect = tournament._stage_counts(bracket, _play_block(bracket, u))
        got = tournament._run_chunk(bracket, 9, range(66, 133), 16)
        assert np.array_equal(got, expect)


@pytest.fixture(scope="module")
def euro2016(data_dir):
    """(models, ratings, fixtures, allocation) for the packaged EURO 2016 data."""
    ratings = data_io.rating_table(data_io.load_ratings(data_dir / "euro2016_ratings.csv"))
    fixtures = data_io.load_fixtures(data_dir / "euro2016_fixtures.csv")
    allocation = data_io.load_allocation(data_dir / "euro2016_allocation.csv")
    models = {t: build_team_model(t, e) for t, e in ratings.items()}
    return models, ratings, fixtures, allocation


SMALL_BLOCK = 16
UNEVEN_RUNS = 50  # three full blocks of SMALL_BLOCK and a partial one


class TestBlockEngine:
    """``monte_carlo`` plays blocks of runs together; the counts must not
    depend on how the runs are split into blocks and workers."""

    @pytest.fixture(scope="class")
    def reference(self, euro2020, euro_models, euro2016):
        cache = {}

        def counts(bracket, seed):
            if (bracket, seed) not in cache:
                inputs = euro2016 if bracket == 2016 else (euro_models, *euro2020)
                cache[bracket, seed] = monte_carlo(*inputs, n_runs=UNEVEN_RUNS, master_seed=seed)
            return cache[bracket, seed]

        return counts

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("seed", [42, 9])
    def test_euro2020_counts_independent_of_block_size(
        self, euro2020, euro_models, reference, monkeypatch, seed, workers
    ):
        expect = reference(2020, seed)
        monkeypatch.setattr(tournament, "BLOCK_RUNS", SMALL_BLOCK)
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        ratings, fixtures, allocation = euro2020
        agg = monte_carlo(
            euro_models, ratings, fixtures, allocation,
            n_runs=UNEVEN_RUNS, master_seed=seed, n_workers=workers,
        )
        assert agg.n_runs == expect.n_runs
        assert agg.teams == expect.teams
        assert agg.counts == expect.counts

    @pytest.mark.parametrize("workers", [1, 3])
    def test_euro2016_counts_independent_of_block_size(
        self, euro2016, reference, monkeypatch, workers
    ):
        expect = reference(2016, 42)
        monkeypatch.setattr(tournament, "BLOCK_RUNS", SMALL_BLOCK)
        monkeypatch.setattr(tournament, "MIN_RUNS_PER_PROCESS", 1)
        agg = monte_carlo(*euro2016, n_runs=UNEVEN_RUNS, master_seed=42, n_workers=workers)
        assert agg.counts == expect.counts

    def test_default_block_size(self, euro2020, euro_models, aggregate, monkeypatch):
        # every run a block of its own
        monkeypatch.setattr(tournament, "BLOCK_RUNS", 1)
        single = monte_carlo(euro_models, *euro2020, n_runs=60, master_seed=9)
        assert aggregate.counts == single.counts

    def test_block_width_covers_the_longest_run(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        bracket = compile_bracket(euro_models, ratings, fixtures, allocation)
        # 2 per group match, 4 lots per group, 6 best-third lots, 5 per knockout match
        assert bracket.width == 2 * 36 + 24 + 6 + 5 * 15

    def test_missing_model_rejected_before_any_run(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        models = {t: m for t, m in euro_models.items() if t != "ITA"}
        with pytest.raises(ConfigError, match="ITA"):
            monte_carlo(models, ratings, fixtures, allocation, n_runs=5)

    def test_unknown_match_type_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        odd = [dataclasses.replace(f, match_type="CUP") if f.match_id == 50 else f for f in fixtures]
        with pytest.raises(ConfigError, match="CUP"):
            monte_carlo(euro_models, ratings, odd, allocation, n_runs=5)

    def test_third_outside_its_pool_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        swapped = {
            combo: dict(zip(row, reversed(list(row.values()))))
            for combo, row in allocation.items()
        }
        with pytest.raises(DataError, match="candidate pool"):
            monte_carlo(euro_models, ratings, fixtures, swapped, n_runs=20)

    def test_allocation_without_a_paired_column_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        renamed = {
            combo: {("1A" if slot == "1F" else slot): group for slot, group in row.items()}
            for combo, row in allocation.items()
        }
        with pytest.raises(DataError, match="allocation table has no column 1F"):
            compile_bracket(euro_models, ratings, fixtures, renamed)

    def test_allocation_errors_raised_at_compile_time(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        missing = {combo: row for combo, row in allocation.items() if combo != "CDEF"}
        with pytest.raises(DataError, match="one row per 4-group combination"):
            compile_bracket(euro_models, ratings, fixtures, missing)
        # one row sends a third outside its pool, however rarely it is reached
        row = allocation["CDEF"]
        misrouted = {**allocation, "CDEF": dict(zip(row, reversed(list(row.values()))))}
        with pytest.raises(DataError, match="candidate pool"):
            compile_bracket(euro_models, ratings, fixtures, misrouted)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_below_one_rejected(self, euro2020, euro_models, workers):
        ratings, fixtures, allocation = euro2020
        with pytest.raises(ConfigError, match="n_workers"):
            monte_carlo(euro_models, ratings, fixtures, allocation, n_runs=5, n_workers=workers)

    @pytest.mark.parametrize("workers", [tournament.MAX_WORKERS + 1, 10**6])
    def test_worker_count_above_bound_rejected(
        self, euro2020, euro_models, monkeypatch, workers
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        ratings, fixtures, allocation = euro2020
        with pytest.raises(ConfigError, match="n_workers"):
            monte_carlo(euro_models, ratings, fixtures, allocation, n_runs=5, n_workers=workers)


ORACLE_ROWS = 2000


def in_match_order(fixtures, stage_group: bool):
    """The group-stage fixtures, or the knockout ones, in match-id order."""
    chosen = (f for f in fixtures if (f.stage == "GROUP") == stage_group)
    return sorted(chosen, key=lambda f: f.match_id)


@pytest.fixture(scope="module")
def played(euro2020, euro_models):
    """(bracket, uniforms, block) for ORACLE_ROWS runs of the EURO 2020 bracket."""
    ratings, fixtures, allocation = euro2020
    bracket = compile_bracket(euro_models, ratings, fixtures, allocation)
    u = np.random.default_rng(12).random((ORACLE_ROWS, bracket.width))
    return bracket, u, _play_block(bracket, u)


class TestWaves:
    """Group matches are played a wave (a matchday) at a time."""

    @pytest.mark.parametrize("edition", [2020, 2016])
    def test_three_waves_of_twelve_disjoint_matches(self, euro2020, euro_models, euro2016, edition):
        inputs = euro2016 if edition == 2016 else (euro_models, *euro2020)
        bracket = compile_bracket(*inputs)
        assert [len(wave) for wave in bracket.waves] == [12, 12, 12]
        assert sorted(np.concatenate(bracket.waves).tolist()) == list(range(36))
        for wave in bracket.waves:
            assert wave.tolist() == sorted(wave.tolist())
            sides = np.concatenate([bracket.group_a[wave], bracket.group_b[wave]])
            assert len(set(sides.tolist())) == 24
        wave_of = {m: w for w, wave in enumerate(bracket.waves) for m in wave.tolist()}
        for team in range(24):
            played = np.flatnonzero((bracket.group_a == team) | (bracket.group_b == team))
            assert [wave_of[m] for m in played] == [0, 1, 2]

    def test_equal_to_one_match_at_a_time(self, played):
        bracket, u, block = played
        single = dataclasses.replace(
            bracket, waves=tuple(np.array([m]) for m in range(len(bracket.group_a)))
        )
        one_by_one = _play_block(single, u)
        for f in dataclasses.fields(block):
            assert np.array_equal(getattr(block, f.name), getattr(one_by_one, f.name)), f.name


def replay_groups(fixtures, block, row, ratings):
    """One run's group results by name, and its Elo after them by ``update_pair``."""
    live = dict(ratings)
    results = []
    for m, f in enumerate(in_match_order(fixtures, True)):
        ga, gb = (int(g) for g in block.group_goals[:, row, m])
        k = DEFAULT_K_FACTORS[f.match_type]
        live[f.slot_a], live[f.slot_b] = update_pair(live[f.slot_a], live[f.slot_b], ga, gb, k)
        results.append((f.slot_a, f.slot_b, ga, gb))
    return results, live


def tally(teams, results):
    """[points, goal difference, goals] of each of ``teams`` over the matches
    of ``results`` between two of them."""
    table = {t: [0, 0, 0] for t in teams}
    for a, b, ga, gb in results:
        if a in table and b in table:
            for team, scored, conceded in ((a, ga, gb), (b, gb, ga)):
                table[team][0] += 3 if scored > conceded else scored == conceded
                table[team][1] += scored - conceded
                table[team][2] += scored
    return table


def regulation_group_order(teams, results, live, lots):
    """``teams`` best-first: points; head-to-head points, goal difference and
    goals among the teams level on points; overall goal difference and
    goals; live Elo; the lot (higher first).  ``lots`` is in ``teams``' order."""
    overall = tally(teams, results)

    def key(i):
        team = teams[i]
        level = [t for t in teams if overall[t][0] == overall[team][0]]
        h2h = tally(level, results)[team]
        return (overall[team][0], *h2h, *overall[team][1:], live[team], lots[i])

    return [teams[i] for i in sorted(range(len(teams)), key=key, reverse=True)]


def regulation_best_thirds(thirds, overall, live, lots):
    """The groups of the four best thirds, sorted: points, goal difference,
    goals, live Elo, the lot.  ``thirds`` and ``lots`` are in group order."""
    def key(g):
        return (*overall[thirds[g]], live[thirds[g]], lots[g])

    return sorted(sorted(range(len(thirds)), key=key, reverse=True)[:4])


class TestEngineOracles:
    """The block kernel against oracles that do not share its code."""

    def test_thirds_seated_by_the_allocation_csv(self, euro2020, played):
        _, fixtures, allocation = euro2020
        bracket, _, block = played
        names = bracket.teams
        seen = set()
        for row in range(ORACLE_ROWS):
            place = {
                f"{p + 1}{g}": names[t]
                for g, places in zip(GROUPS, block.positions[row])
                for p, t in enumerate(places)
            }
            combo = "".join(sorted(GROUPS[g] for g in block.qualified[row]))
            seen.add(combo)
            for f, match in zip(in_match_order(fixtures, False), bracket.knockout):
                for slot, paired, seat in (
                    (f.slot_a, f.slot_b, match.seat_a),
                    (f.slot_b, f.slot_a, match.seat_b),
                ):
                    if slot[0] == "3":
                        slot = "3" + allocation[combo][paired]
                    if slot[0] != "W":
                        assert names[block.seats[row, seat]] == place[slot]
        assert len(seen) == len(allocation)

    def test_ratings_replay_with_update_pair(self, euro2020, played):
        ratings, fixtures, _ = euro2020
        bracket, _, block = played
        names = bracket.teams
        for row in range(300):
            _, live = replay_groups(fixtures, block, row, ratings)
            for j, (f, match) in enumerate(zip(in_match_order(fixtures, False), bracket.knockout)):
                a, b, winner = (
                    names[block.seats[row, seat]]
                    for seat in (match.seat_a, match.seat_b, match.seat_winner)
                )
                ga, gb = (int(g) for g in block.knockout_goals[:, row, j])
                assert winner == (a if ga > gb else b) or ga == gb
                k = DEFAULT_K_FACTORS[f.match_type]
                live[a], live[b] = update_pair(live[a], live[b], ga, gb, k)
            assert [live[t] for t in names] == block.ratings[row].tolist()

    def test_rankings_follow_the_regulations(self, euro2020, played):
        """Group places and best thirds against a plain-Python reading of the
        tiebreak chain that uses none of the engine's code."""
        ratings, fixtures, _ = euro2020
        bracket, u, block = played
        names = bracket.teams
        by_group = {}
        for f in in_match_order(fixtures, True):
            by_group.setdefault(f.group, set()).update((f.slot_a, f.slot_b))
        by_group = {g: sorted(teams) for g, teams in by_group.items()}
        for row in range(ORACLE_ROWS):
            results, live = replay_groups(fixtures, block, row, ratings)
            lots = u[row, bracket.lots_start : bracket.thirds_start].reshape(len(GROUPS), -1)
            thirds, overall = [], {}
            for g, group_lots, places in zip(GROUPS, lots, block.positions[row]):
                order = regulation_group_order(by_group[g], results, live, group_lots)
                assert order == [names[t] for t in places]
                thirds.append(order[2])
                overall.update(tally(by_group[g], results))
            best = regulation_best_thirds(
                thirds, overall, live, u[row, bracket.thirds_start : bracket.knockout_start]
            )
            assert best == sorted(block.qualified[row].tolist())

    def test_live_elo_breaks_ties(self, euro2020):
        """A hand-built run where live and pre-tournament Elo break ties differently.

        Group A: SUI and TUR finish level on points, head-to-head, goal
        difference and goals.  SUI starts a point ahead; TUR's 2-0 over
        ITA lifts it past SUI.  Groups B-F draw every match 0-0, so Elo
        ranks them and their thirds: the third of B (1700) climbs past
        the third of C (1710) by drawing with two far stronger sides,
        and takes the last best-third place.  The uniforms come from
        inverting the closed-form CDF at the chosen scores.
        """
        _, fixtures, allocation = euro2020
        ratings = dict(zip(("ITA", "SUI", "TUR", "WAL"), (1900.0, 1800.0, 1799.0, 1600.0)))
        for teams, elos in (
            ("BEL DEN FIN RUS", (2000.0, 1990.0, 1700.0, 1400.0)),
            ("AUT MKD NED UKR", (1720.0, 1712.0, 1710.0, 1705.0)),
            ("CRO CZE ENG SCO", (2100.0, 2000.0, 1900.0, 1800.0)),
            ("ESP POL SVK SWE", (2090.0, 1990.0, 1890.0, 1790.0)),
            ("FRA GER HUN POR", (1700.0, 1600.0, 1500.0, 1400.0)),
        ):
            ratings.update(zip(teams.split(), elos))
        scores = {
            ("SUI", "TUR"): (0, 0),
            ("TUR", "ITA"): (2, 0),
            ("WAL", "TUR"): (1, 0),
            ("SUI", "WAL"): (2, 0),
            ("ITA", "SUI"): (1, 0),
            ("ITA", "WAL"): (1, 0),
        }
        models = {t: build_team_model(t, e) for t, e in ratings.items()}
        bracket = compile_bracket(models, ratings, fixtures, allocation)

        def uniform_for(params, k):
            """A uniform that inversion by sequential search turns into ``k``."""
            cdf = np.cumsum(closed_form_pmf(params, range(k + 1)))
            return 0.5 * (cdf[k] + (cdf[k - 1] if k else 0.0))

        u = np.full(bracket.width, 0.5)
        live = dict(ratings)
        expected_goals = []
        for m, f in enumerate(in_match_order(fixtures, True)):
            a, b, venue = f.slot_a, f.slot_b, f.venue_country
            ga, gb = scores.get((a, b)) or scores.get((b, a), (0, 0))[::-1]
            strong, weak, swapped = order_by_strength(a, live[a], b, live[b])
            gs, gw = (gb, ga) if swapped else (ga, gb)
            strong, weak = models[strong], models[weak]
            first = stronger_stage(strong, weak, live[strong.team], live[weak.team], venue)
            second = weaker_stage(weak, strong, live[strong.team], venue, gs)
            u[2 * m : 2 * m + 2] = uniform_for(first, gs), uniform_for(second, gw)
            k = DEFAULT_K_FACTORS[f.match_type]
            live[a], live[b] = update_pair(live[a], live[b], ga, gb, k)
            expected_goals.append((ga, gb))
        # the ties that live Elo breaks, pre-tournament Elo breaks the other way
        assert ratings["SUI"] > ratings["TUR"] and live["TUR"] > live["SUI"]
        assert ratings["NED"] > ratings["FIN"] and live["FIN"] > live["NED"]

        block = _play_block(bracket, u[None])
        names = bracket.teams
        assert block.group_goals[:, 0].T.tolist() == [list(g) for g in expected_goals]
        assert [names[t] for t in block.positions[0, 0]] == ["ITA", "TUR", "SUI", "WAL"]
        thirds = [names[t] for t in block.positions[0, :, 2]]
        assert thirds == ["SUI", "FIN", "NED", "ENG", "SVK", "HUN"]
        assert sorted(GROUPS[g] for g in block.qualified[0]) == list("ABDE")
