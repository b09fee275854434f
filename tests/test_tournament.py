"""Tournament structure, group ranking, knockout play, Monte Carlo runs."""

from __future__ import annotations

import dataclasses
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euroforecast import data_io, tournament
from euroforecast.errors import ConfigError, DataError
from euroforecast.tournament import (
    STAT_NAMES,
    Fixture,
    SimulationAggregate,
    TournamentResult,
    compile_bracket,
    group_teams,
    monte_carlo,
    rank_group,
    run_rng,
    run_tournament,
    select_best_thirds,
    simulate_knockout_match,
    validate_allocation,
    validate_fixtures,
)

from conftest import build_team_model


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


def rg(results, elo=ELO, seed=0):
    return rank_group(GROUP, results, elo, np.random.default_rng(seed))


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
        first = rank_group(GROUP, results, flat, np.random.default_rng(7))
        again = rank_group(GROUP, results, flat, np.random.default_rng(7))
        assert first == again
        assert sorted(first) == sorted(GROUP)

    def test_lot_stream_independent_of_ties(self):
        decisive = [
            ("AAA", "BBB", 2, 0),
            ("AAA", "CCC", 2, 0),
            ("AAA", "DDD", 2, 0),
            ("BBB", "CCC", 2, 0),
            ("BBB", "DDD", 2, 0),
            ("CCC", "DDD", 2, 0),
        ]
        tied = [(a, b, 0, 0) for (a, b, _, _) in decisive]
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        rank_group(GROUP, decisive, ELO, rng1)
        rank_group(GROUP, tied, ELO, rng2)
        assert rng1.random() == rng2.random()

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
        picked = select_best_thirds(thirds, results, elo, np.random.default_rng(0))
        assert picked == ("A", "B", "C", "D")

    def test_returns_sorted_group_letters(self):
        thirds = {g: f"T{g}" for g in "ABCDEF"}
        results = [("TF", "x", 9, 0), ("TE", "x", 8, 0), ("TD", "x", 7, 0), ("TB", "x", 6, 0)]
        elo = {t: 1800.0 for t in thirds.values()}
        picked = select_best_thirds(thirds, results, elo, np.random.default_rng(0))
        assert picked == ("B", "D", "E", "F")

    def test_elo_breaks_dead_heat(self):
        thirds = {g: f"T{g}" for g in "ABCDEF"}
        results = []
        elo = {f"T{g}": 1800.0 + i for i, g in enumerate("ABCDEF")}
        picked = select_best_thirds(thirds, results, elo, np.random.default_rng(0))
        assert picked == ("C", "D", "E", "F")


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
        rng = np.random.default_rng(seed)
        ranking = rank_group(GROUP, results, elo, rng)
        assert sorted(ranking) == sorted(GROUP)
        # one lot per team, whatever the results
        lots_only = np.random.default_rng(seed)
        lots_only.random(len(GROUP))
        assert rng.bit_generator.state == lots_only.bit_generator.state
        teams, shuffled = data.draw(st.permutations(GROUP)), data.draw(st.permutations(results))
        assert rank_group(teams, shuffled, elo, np.random.default_rng(seed)) == ranking

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=SEEDS)
    def test_select_best_thirds(self, data, seed):
        teams = {g: tuple(f"{g}{i}" for i in range(4)) for g in "ABCDEF"}
        results = [r for g in teams for r in round_robin(data, teams[g])]
        elo = {t: data.draw(FINITE) for ts in teams.values() for t in ts}
        thirds = {g: data.draw(st.sampled_from(ts)) for g, ts in teams.items()}
        picked = select_best_thirds(thirds, results, elo, np.random.default_rng(seed))
        assert len(set(picked)) == 4
        assert list(picked) == sorted(picked)
        assert set(picked) <= set(teams)


class TestKnockoutMatch:
    def test_deterministic(self):
        a = build_team_model("AAA", 2000.0)
        b = build_team_model("BBB", 1900.0)
        r1 = simulate_knockout_match(a, b, 2000.0, 1900.0, "NEUTRAL", np.random.default_rng(4))
        r2 = simulate_knockout_match(a, b, 2000.0, 1900.0, "NEUTRAL", np.random.default_rng(4))
        assert r1 == r2

    def test_winner_consistent_with_score(self):
        a = build_team_model("AAA", 2000.0)
        b = build_team_model("BBB", 1900.0)
        saw_shootout = saw_decided = False
        for seed in range(120):
            winner, (ga, gb), shootout = simulate_knockout_match(
                a, b, 2000.0, 1900.0, "NEUTRAL", np.random.default_rng(seed)
            )
            assert winner in ("AAA", "BBB")
            if shootout:
                assert ga == gb
                saw_shootout = True
            else:
                assert ga != gb
                assert winner == ("AAA" if ga > gb else "BBB")
                saw_decided = True
        assert saw_shootout and saw_decided

    def test_stronger_side_wins_more_often(self):
        a = build_team_model("AAA", 2100.0)
        b = build_team_model("BBB", 1700.0)
        rng = np.random.default_rng(0)
        wins = sum(
            simulate_knockout_match(a, b, 2100.0, 1700.0, "NEUTRAL", rng)[0] == "AAA"
            for _ in range(400)
        )
        assert wins > 280


class TestRunTournament:
    def test_structure(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        result = run_tournament(
            euro_models, ratings, fixtures, allocation, np.random.default_rng(1)
        )
        teams = group_teams(fixtures)
        assert sorted(result.group_positions) == sorted(teams)
        for g, positions in result.group_positions.items():
            assert sorted(positions) == sorted(teams[g])
        assert len(result.qualified_thirds) == 4
        assert len(result.r16_teams) == 16
        assert len(result.qf_teams) == 8
        assert len(result.sf_teams) == 4
        assert len(result.final_teams) == 2
        assert set(result.final_teams) <= set(result.sf_teams)
        assert set(result.sf_teams) <= set(result.qf_teams)
        assert set(result.qf_teams) <= set(result.r16_teams)
        assert result.champion in result.final_teams

    def test_r16_composition(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        result = run_tournament(
            euro_models, ratings, fixtures, allocation, np.random.default_rng(2)
        )
        expected = {p[0] for p in result.group_positions.values()}
        expected |= {p[1] for p in result.group_positions.values()}
        expected |= set(result.qualified_thirds)
        assert set(result.r16_teams) == expected

    def test_thirds_come_from_third_place(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        result = run_tournament(
            euro_models, ratings, fixtures, allocation, np.random.default_rng(3)
        )
        thirds = {p[2] for p in result.group_positions.values()}
        assert set(result.qualified_thirds) <= thirds

    def test_missing_model_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        models = dict(euro_models)
        del models["ITA"]
        with pytest.raises(ConfigError, match="ITA"):
            run_tournament(models, ratings, fixtures, allocation, np.random.default_rng(0))

    def test_missing_rating_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        partial = {t: e for t, e in ratings.items() if t != "WAL"}
        with pytest.raises(ConfigError, match="WAL"):
            run_tournament(euro_models, partial, fixtures, allocation, np.random.default_rng(0))

    def test_winner_of_a_group_match_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        broken = [
            dataclasses.replace(f, slot_a="W1") if f.match_id == 37 else f
            for f in fixtures
        ]
        with pytest.raises(DataError, match="slot W1"):
            run_tournament(euro_models, ratings, broken, allocation, np.random.default_rng(0))

    def test_incomplete_allocation_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        partial = {combo: row for combo, row in allocation.items() if combo != "CDEF"}
        with pytest.raises(DataError, match="combination"):
            run_tournament(euro_models, ratings, fixtures, partial, np.random.default_rng(0))

    def test_input_ratings_not_mutated(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        before = dict(ratings)
        run_tournament(euro_models, ratings, fixtures, allocation, np.random.default_rng(5))
        assert ratings == before


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

    def test_worker_count_does_not_change_counts(self, euro2020, euro_models, aggregate):
        ratings, fixtures, allocation = euro2020
        parallel = monte_carlo(
            euro_models, ratings, fixtures, allocation,
            n_runs=60, master_seed=9, n_workers=3,
        )
        assert parallel.n_runs == aggregate.n_runs
        assert parallel.counts == aggregate.counts

    def test_seed_changes_outcome(self, euro2020, euro_models, aggregate):
        ratings, fixtures, allocation = euro2020
        other = monte_carlo(
            euro_models, ratings, fixtures, allocation, n_runs=60, master_seed=10
        )
        assert other.counts != aggregate.counts

    def test_runs_are_independent_of_batching(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        single = run_tournament(
            euro_models, ratings, fixtures, allocation, run_rng(9, 17)
        )
        batch = monte_carlo(
            euro_models, ratings, fixtures, allocation, n_runs=18, master_seed=9
        )
        assert batch.counts["champion"][single.champion] >= 1

    def test_nonpositive_runs_rejected(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        with pytest.raises(ConfigError):
            monte_carlo(euro_models, ratings, fixtures, allocation, n_runs=0)

    def test_probability_accessor(self, aggregate):
        p = sum(aggregate.probability("champion", t) for t in aggregate.teams)
        assert p == pytest.approx(1.0)


def _empty_aggregate(teams) -> SimulationAggregate:
    counts = {stat: Counter({t: 0 for t in teams}) for stat in STAT_NAMES}
    return SimulationAggregate(n_runs=0, teams=tuple(teams), counts=counts)


def _count_result(agg: SimulationAggregate, result: TournamentResult) -> None:
    qualified = set(result.r16_teams)
    for positions in result.group_positions.values():
        agg.counts["group_first"][positions[0]] += 1
        agg.counts["group_second"][positions[1]] += 1
        for t in positions:
            if t not in qualified:
                agg.counts["eliminated_group"][t] += 1
    for t in result.qualified_thirds:
        agg.counts["third_qualified"][t] += 1
    for stat, reached in (
        ("r16", result.r16_teams),
        ("qf", result.qf_teams),
        ("sf", result.sf_teams),
        ("final", result.final_teams),
    ):
        for t in reached:
            agg.counts[stat][t] += 1
    agg.counts["champion"][result.champion] += 1
    agg.n_runs += 1


def scalar_counts(models, ratings, fixtures, allocation, n_runs, seed):
    """Counts of the scalar reference engine, one run at a time."""
    teams = sorted(t for ts in group_teams(fixtures).values() for t in ts)
    agg = _empty_aggregate(teams)
    for i in range(n_runs):
        _count_result(
            agg, run_tournament(models, ratings, fixtures, allocation, run_rng(seed, i))
        )
    return agg


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
    """``monte_carlo`` plays blocks of runs together; its counts must equal
    the scalar ``run_tournament`` counted run by run."""

    @pytest.fixture(scope="class")
    def reference(self, euro2020, euro_models, euro2016):
        cache = {}

        def counts(bracket, seed):
            if (bracket, seed) not in cache:
                inputs = euro2016 if bracket == 2016 else (euro_models, *euro2020)
                cache[bracket, seed] = scalar_counts(*inputs, UNEVEN_RUNS, seed)
            return cache[bracket, seed]

        return counts

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("seed", [42, 9])
    def test_euro2020_counts_equal_scalar_engine(
        self, euro2020, euro_models, reference, monkeypatch, seed, workers
    ):
        monkeypatch.setattr(tournament, "BLOCK_RUNS", SMALL_BLOCK)
        ratings, fixtures, allocation = euro2020
        agg = monte_carlo(
            euro_models, ratings, fixtures, allocation,
            n_runs=UNEVEN_RUNS, master_seed=seed, n_workers=workers,
        )
        expect = reference(2020, seed)
        assert agg.n_runs == expect.n_runs
        assert agg.teams == expect.teams
        assert agg.counts == expect.counts

    @pytest.mark.parametrize("workers", [1, 3])
    def test_euro2016_counts_equal_scalar_engine(self, euro2016, reference, monkeypatch, workers):
        monkeypatch.setattr(tournament, "BLOCK_RUNS", SMALL_BLOCK)
        agg = monte_carlo(*euro2016, n_runs=UNEVEN_RUNS, master_seed=42, n_workers=workers)
        assert agg.counts == reference(2016, 42).counts

    def test_default_block_size(self, euro2020, euro_models, aggregate):
        assert aggregate.counts == scalar_counts(euro_models, *euro2020, 60, 9).counts

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

    def test_allocation_errors_raised_at_compile_time(self, euro2020, euro_models):
        ratings, fixtures, allocation = euro2020
        missing = {combo: row for combo, row in allocation.items() if combo != "CDEF"}
        with pytest.raises(DataError, match="no row for combination CDEF"):
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

        monkeypatch.setattr(tournament, "ProcessPoolExecutor", no_pool)
        ratings, fixtures, allocation = euro2020
        with pytest.raises(ConfigError, match="n_workers"):
            monte_carlo(euro_models, ratings, fixtures, allocation, n_runs=5, n_workers=workers)
