"""Monte Carlo simulation of a 24-team EURO-format tournament.

Each run replays the full tournament: 36 group matches in schedule
order, group rankings with the full tiebreak chain, best-thirds
selection, the regulation allocation of third-placed teams onto the
round-of-16 bracket, and four knockout rounds with extra time and
shootouts.  Elo ratings update after every simulated match and feed
back into the score model, so early upsets propagate.

Runs are independent and deterministic: run ``i`` under master seed
``s`` always uses ``SeedSequence(s, spawn_key=(i,))``, which makes the
aggregate counts bit-identical for any worker count.

``run_tournament`` plays one run with scalar calls and is the reference.
``monte_carlo`` compiles the bracket once and plays blocks of runs
together on per-run arrays; every run takes its uniforms in the
reference's order, so the counts are equal up to last-bit rounding.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import elo
from .elo import DEFAULT_K_FACTORS
from .errors import ConfigError, DataError
from .forecast import ModelArrays, location_indicator, sample_match, sample_match_block

if TYPE_CHECKING:
    from .regression import TeamModel

GROUPS = "ABCDEF"
STAGES = ("GROUP", "R16", "QF", "SF", "FINAL")
STAGE_COUNTS = {"GROUP": 36, "R16": 8, "QF": 4, "SF": 2, "FINAL": 1}
EXTRA_TIME_MU_FACTOR = 1.0 / 3.0

STAT_NAMES = (
    "group_first",
    "group_second",
    "third_qualified",
    "eliminated_group",
    "r16",
    "qf",
    "sf",
    "final",
    "champion",
)


@dataclass(frozen=True)
class Fixture:
    """One scheduled match; knockout slots are references, not teams.

    Slot syntax: a team code in the group stage; ``1A``/``2A`` for a
    group winner or runner-up; ``3ADEF`` for the best third drawn from
    the listed groups; ``W37`` for the winner of match 37.
    """

    match_id: int
    stage: str
    group: str
    date: dt.date | None
    venue_country: str
    slot_a: str
    slot_b: str
    match_type: str = "CONT"


@dataclass(frozen=True)
class TournamentResult:
    """Outcome of a single simulated tournament."""

    group_positions: dict[str, tuple[str, ...]]
    qualified_thirds: tuple[str, ...]
    r16_teams: tuple[str, ...]
    qf_teams: tuple[str, ...]
    sf_teams: tuple[str, ...]
    final_teams: tuple[str, ...]
    champion: str


@dataclass
class SimulationAggregate:
    """Integer stage counts per team over ``n_runs`` tournaments."""

    n_runs: int
    teams: tuple[str, ...]
    counts: dict[str, Counter] = field(default_factory=dict)

    def probability(self, stat: str, team: str) -> float:
        return self.counts[stat][team] / self.n_runs


# ---------------------------------------------------------------------------
# fixture validation
# ---------------------------------------------------------------------------


def group_teams(fixtures: Sequence[Fixture]) -> dict[str, tuple[str, ...]]:
    """Teams per group, read off the group-stage fixtures."""
    teams: dict[str, set[str]] = {}
    for f in fixtures:
        if f.stage == "GROUP":
            teams.setdefault(f.group, set()).update((f.slot_a, f.slot_b))
    return {g: tuple(sorted(ts)) for g, ts in sorted(teams.items())}


def validate_fixtures(fixtures: Sequence[Fixture]) -> None:
    """Check the bracket is a complete, well-wired EURO structure."""
    ids = [f.match_id for f in fixtures]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate match ids in fixture list")
    by_stage: dict[str, list[Fixture]] = {s: [] for s in STAGES}
    for f in fixtures:
        if f.stage not in STAGE_COUNTS:
            raise DataError(f"match {f.match_id}: unknown stage {f.stage!r}")
        by_stage[f.stage].append(f)
    for stage, expected in STAGE_COUNTS.items():
        if len(by_stage[stage]) != expected:
            raise DataError(
                f"expected {expected} {stage} fixtures, got {len(by_stage[stage])}"
            )
    teams = group_teams(fixtures)
    if "".join(teams) != GROUPS or any(len(ts) != 4 for ts in teams.values()):
        raise DataError(
            f"group stage must cover groups {GROUPS[0]}-{GROUPS[-1]} of 4 teams each, "
            f"got groups {', '.join(teams)}"
        )
    for g, n_matches in Counter(f.group for f in by_stage["GROUP"]).items():
        if n_matches != 6:
            raise DataError(f"group {g} must have 6 fixtures")
    knockout = {f"W{f.match_id}": f.match_id for f in fixtures if f.stage != "GROUP"}
    seen: set[str] = set()
    for f in fixtures:
        if f.stage == "GROUP":
            continue
        for slot in (f.slot_a, f.slot_b):
            if slot in seen:
                raise DataError(f"match {f.match_id}: slot {slot} is used twice")
            seen.add(slot)
            if slot.startswith("W"):
                ref = knockout.get(slot)
                if ref is None or ref >= f.match_id:
                    raise DataError(
                        f"match {f.match_id}: slot {slot} must reference an earlier "
                        "match of the knockout stage"
                    )
            elif slot[0] in "12":
                if slot[1:] not in teams:
                    raise DataError(f"match {f.match_id}: unknown group in slot {slot}")
            elif slot[0] == "3":
                if not set(slot[1:]) <= set(teams):
                    raise DataError(f"match {f.match_id}: unknown groups in slot {slot}")
            else:
                raise DataError(f"match {f.match_id}: malformed slot {slot!r}")


def validate_allocation(allocation: Mapping[str, Mapping[str, str]]) -> None:
    """The third-place table must cover all 4-subsets of the groups bijectively."""
    expected = {"".join(c) for c in combinations(GROUPS, 4)}
    if set(allocation) != expected:
        raise DataError(
            f"allocation table must have one row per 4-group combination "
            f"({len(expected)} rows), got {sorted(allocation)}"
        )
    slots = None
    for combo, row in allocation.items():
        if slots is None:
            slots = tuple(row)
        elif tuple(row) != slots:
            raise DataError("allocation rows must assign the same slots")
        if sorted(row.values()) != sorted(combo):
            raise DataError(
                f"allocation row {combo} must send each qualified group to one slot"
            )


# ---------------------------------------------------------------------------
# group ranking: one tiebreak chain, in array form
# ---------------------------------------------------------------------------


def _standings(
    side_a: np.ndarray,
    side_b: np.ndarray,
    goals_a: np.ndarray,
    goals_b: np.ndarray,
    n_teams: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Overall and head-to-head (points, goal difference, goals) per team.

    ``side_a`` and ``side_b`` give each match's teams as indices into the
    table, -1 for a team outside it; ``goals_a`` and ``goals_b`` are
    (rows, matches).  The head-to-head sums count only the matches
    between two teams of the table that are level on points.  Both
    results are (rows, n_teams, 3).
    """
    on_a = (side_a[:, None] == np.arange(n_teams)).astype(float)
    on_b = (side_b[:, None] == np.arange(n_teams)).astype(float)
    ga, gb = goals_a.astype(float), goals_b.astype(float)
    stats = (
        (3.0 * (ga > gb) + (ga == gb), 3.0 * (gb > ga) + (ga == gb)),
        (ga - gb, gb - ga),
        (ga, gb),
    )

    def tally(weight):
        return np.stack([(a * weight) @ on_a + (b * weight) @ on_b for a, b in stats], axis=-1)

    overall = tally(1.0)
    points = overall[..., 0]
    inside = (side_a >= 0) & (side_b >= 0)
    return overall, tally(inside & (points[:, side_a] == points[:, side_b]))


def _tiebreak_order(
    overall: np.ndarray, h2h: np.ndarray | None, elo: np.ndarray, lot: np.ndarray
) -> np.ndarray:
    """Team indices best-first along the last axis.

    The chain: points; then head-to-head points, goal difference and
    goals among the teams level on points (skipped when ``h2h`` is
    None); then overall goal difference and goals; then live Elo; then
    the lot.  Teams level on every criterion keep their order.
    """
    keys = [lot, elo, overall[..., 2], overall[..., 1]]
    if h2h is not None:
        keys += [h2h[..., 2], h2h[..., 1], h2h[..., 0]]
    keys.append(overall[..., 0])
    return np.lexsort([-np.asarray(k, dtype=float) for k in keys], axis=-1)


def _one_row_standings(
    teams: Sequence[str], results: Sequence[tuple[str, str, int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    index = {t: i for i, t in enumerate(teams)}
    side_a = np.array([index.get(r[0], -1) for r in results], dtype=int)
    side_b = np.array([index.get(r[1], -1) for r in results], dtype=int)
    goals = np.array([r[2:] for r in results], dtype=int).reshape(len(results), 2)
    return _standings(side_a, side_b, goals[None, :, 0], goals[None, :, 1], len(teams))


def rank_group(
    teams: Sequence[str],
    results: Sequence[tuple[str, str, int, int]],
    live_elo: Mapping[str, float],
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """Order a group best-first by the tiebreak chain of :func:`_tiebreak_order`.

    Lot values are drawn once per ranking (in sorted team order) so the
    random stream does not depend on whether ties occur.
    """
    teams = sorted(teams)
    lots = rng.random(len(teams))
    overall, h2h = _one_row_standings(teams, results)
    elo_now = np.array([live_elo[t] for t in teams])
    order = _tiebreak_order(overall, h2h, elo_now[None], lots[None])[0]
    return tuple(teams[i] for i in order)


def select_best_thirds(
    thirds: Mapping[str, str],
    results: Sequence[tuple[str, str, int, int]],
    live_elo: Mapping[str, float],
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """Top four third-placed teams; returns their group letters.

    Ranked by the tiebreak chain without its head-to-head step: points,
    goal difference, goals scored, current Elo, then a seeded lot
    (drawn once, in group order).
    """
    groups = sorted(thirds)
    lots = rng.random(len(groups))
    teams = [thirds[g] for g in groups]
    overall, _ = _one_row_standings(teams, results)
    elo_now = np.array([live_elo[t] for t in teams])
    order = _tiebreak_order(overall, None, elo_now[None], lots[None])[0]
    return tuple(sorted(groups[i] for i in order[:4]))


# ---------------------------------------------------------------------------
# knockout mechanics
# ---------------------------------------------------------------------------


def simulate_knockout_match(
    model_a: "TeamModel",
    model_b: "TeamModel",
    elo_a: float,
    elo_b: float,
    venue_country: str,
    rng: np.random.Generator,
) -> tuple[str, tuple[int, int], bool]:
    """Play one knockout tie; returns (winner, aggregate score, went_to_shootout).

    Drawn matches continue into extra time sampled from the same model
    with both means scaled by 1/3; a still-level tie goes to a shootout
    that side A wins with its Elo expected score.
    """
    ga, gb = sample_match(model_a, model_b, elo_a, elo_b, rng, venue_country)
    if ga == gb:
        ea, eb = sample_match(
            model_a, model_b, elo_a, elo_b, rng, venue_country,
            mu_factor=EXTRA_TIME_MU_FACTOR,
        )
        ga, gb = ga + ea, gb + eb
    shootout = ga == gb
    if shootout:
        p_a = elo.expected_score(elo_a, elo_b)
        winner = model_a.team if rng.random() < p_a else model_b.team
    else:
        winner = model_a.team if ga > gb else model_b.team
    return winner, (ga, gb), shootout


# ---------------------------------------------------------------------------
# one full tournament: the scalar reference engine
# ---------------------------------------------------------------------------


def _check_teams(
    models: Mapping[str, "TeamModel"],
    ratings: Mapping[str, float],
    teams: Mapping[str, tuple[str, ...]],
) -> None:
    for g, ts in teams.items():
        for t in ts:
            if t not in models:
                raise ConfigError(f"no fitted model for team {t} (group {g})")
            if t not in ratings:
                raise ConfigError(f"no Elo rating for team {t} (group {g})")


def _k_factor(k_table: Mapping[str, float], fixture: Fixture) -> float:
    k = k_table.get(fixture.match_type)
    if k is None:
        raise ConfigError(f"no K factor for match type {fixture.match_type!r}")
    return k


def _k_table(k_factors: Mapping[str, float] | None) -> dict[str, float]:
    k_table = dict(DEFAULT_K_FACTORS)
    if k_factors:
        k_table.update(k_factors)
    return k_table


def _resolve_slot(
    slot: str,
    positions: Mapping[str, tuple[str, ...]],
    third_assignment: Mapping[str, str],
    winners: Mapping[int, str],
    paired_slot: str,
) -> str:
    if slot.startswith("W"):
        return winners[int(slot[1:])]
    if slot[0] == "1":
        return positions[slot[1:]][0]
    if slot[0] == "2":
        return positions[slot[1:]][1]
    # best third: the allocation row keyed by the opposing winner slot
    group = third_assignment[paired_slot]
    if group not in slot[1:]:
        raise DataError(_outside_pool(group, slot))
    return positions[group][2]


def _outside_pool(group: str, slot: str) -> str:
    return (
        f"allocation sends group {group} third into slot {slot}, "
        "which is outside its candidate pool"
    )


def run_tournament(
    models: Mapping[str, "TeamModel"],
    ratings: Mapping[str, float],
    fixtures: Sequence[Fixture],
    allocation: Mapping[str, Mapping[str, str]],
    rng: np.random.Generator,
    k_factors: Mapping[str, float] | None = None,
) -> TournamentResult:
    """Simulate one complete tournament with in-run Elo updates.

    This is the scalar reference: :func:`monte_carlo` plays blocks of
    runs together and counts what this function returns for each run's
    own generator, up to last-bit rounding in the goal sampler.
    """
    validate_fixtures(fixtures)
    validate_allocation(allocation)
    k_table = _k_table(k_factors)
    teams = group_teams(fixtures)
    _check_teams(models, ratings, teams)

    live = {t: float(ratings[t]) for ts in teams.values() for t in ts}
    ordered = sorted(fixtures, key=lambda f: f.match_id)
    group_results: dict[str, list[tuple[str, str, int, int]]] = {
        g: [] for g in teams
    }

    for f in (f for f in ordered if f.stage == "GROUP"):
        a, b = f.slot_a, f.slot_b
        ga, gb = sample_match(models[a], models[b], live[a], live[b], rng, f.venue_country)
        live[a], live[b] = elo.update_pair(live[a], live[b], ga, gb, _k_factor(k_table, f))
        group_results[f.group].append((a, b, ga, gb))

    positions = {
        g: rank_group(teams[g], group_results[g], live, rng) for g in sorted(teams)
    }
    thirds = {g: positions[g][2] for g in sorted(teams)}
    all_results = [r for g in sorted(teams) for r in group_results[g]]
    qualified_groups = select_best_thirds(thirds, all_results, live, rng)
    third_assignment = allocation["".join(qualified_groups)]

    winners: dict[int, str] = {}
    reached: dict[str, list[str]] = {s: [] for s in ("R16", "QF", "SF", "FINAL")}
    champion = ""
    for f in (f for f in ordered if f.stage != "GROUP"):
        a = _resolve_slot(f.slot_a, positions, third_assignment, winners, f.slot_b)
        b = _resolve_slot(f.slot_b, positions, third_assignment, winners, f.slot_a)
        reached[f.stage].extend((a, b))
        winner, (ga, gb), _ = simulate_knockout_match(
            models[a], models[b], live[a], live[b], f.venue_country, rng
        )
        # aggregate incl. extra time; a tie decided on penalties is a
        # draw for rating purposes
        live[a], live[b] = elo.update_pair(live[a], live[b], ga, gb, _k_factor(k_table, f))
        winners[f.match_id] = winner
        if f.stage == "FINAL":
            champion = winner

    return TournamentResult(
        group_positions=positions,
        qualified_thirds=tuple(thirds[g] for g in qualified_groups),
        r16_teams=tuple(sorted(reached["R16"])),
        qf_teams=tuple(sorted(reached["QF"])),
        sf_teams=tuple(sorted(reached["SF"])),
        final_teams=tuple(sorted(reached["FINAL"])),
        champion=champion,
    )


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """The RNG for one run; independent of all other runs."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(run_index,))
    )


# ---------------------------------------------------------------------------
# the compiled bracket
# ---------------------------------------------------------------------------

# Uniforms one knockout match may take: 2 in regular time, 2 in extra
# time, 1 for a shootout.
KNOCKOUT_DRAWS = 5


@dataclass(frozen=True)
class _Knockout:
    """One knockout fixture; each side is a column of the run's seat table.

    The seat table holds every group place (group-major), then the
    assigned thirds (one column per third slot), then the winner of each
    knockout match.
    """

    stage: str
    seat_a: int
    seat_b: int
    venue: int  # team number of the host country, -1 when it is no team here
    k: float


@dataclass(frozen=True)
class Bracket:
    """Fixtures, allocation, models and ratings compiled to index arrays.

    Teams are numbered in sorted code order, so comparing numbers
    compares codes.  A run takes its uniforms in the scalar engine's
    order: two per group match, the group lots, the best-third lots,
    then up to ``KNOCKOUT_DRAWS`` per knockout match.
    """

    teams: tuple[str, ...]
    models: ModelArrays
    ratings: np.ndarray
    members: np.ndarray  # (groups, teams per group), sorted
    group_a: np.ndarray  # group matches in match-id order
    group_b: np.ndarray
    group_loc: np.ndarray  # (matches, 2): location indicator of each side
    group_k: tuple[float, ...]
    knockout: tuple[_Knockout, ...]
    thirds: np.ndarray  # (2**groups, third slots): group by qualified-group mask

    @property
    def lots_start(self) -> int:
        return 2 * len(self.group_a)

    @property
    def thirds_start(self) -> int:
        return self.lots_start + self.members.size

    @property
    def knockout_start(self) -> int:
        return self.thirds_start + len(self.members)

    @property
    def width(self) -> int:
        """The most uniforms one run can take."""
        return self.knockout_start + KNOCKOUT_DRAWS * len(self.knockout)


def compile_bracket(
    models: Mapping[str, "TeamModel"],
    ratings: Mapping[str, float],
    fixtures: Sequence[Fixture],
    allocation: Mapping[str, Mapping[str, str]],
    k_factors: Mapping[str, float] | None = None,
) -> Bracket:
    """Resolve names, slots and K factors once for a whole simulation.

    ``fixtures`` must have passed :func:`validate_fixtures`.  Raises the
    ``ConfigError`` of a missing model, rating or K factor, and the
    ``DataError`` of an allocation row that is missing or sends a third
    outside its candidate pool.
    """
    k_table = _k_table(k_factors)
    by_group = group_teams(fixtures)
    _check_teams(models, ratings, by_group)
    teams = tuple(sorted(t for ts in by_group.values() for t in ts))
    number = {t: i for i, t in enumerate(teams)}
    groups = sorted(by_group)
    group_number = {g: i for i, g in enumerate(groups)}

    ordered = sorted(fixtures, key=lambda f: f.match_id)
    group_fixtures = [f for f in ordered if f.stage == "GROUP"]
    knockout_fixtures = [f for f in ordered if f.stage != "GROUP"]
    group_k = tuple(_k_factor(k_table, f) for f in group_fixtures)
    knockout_k = [_k_factor(k_table, f) for f in knockout_fixtures]

    # the seat table's columns: every group place, each third slot, each winner
    third_slots = [
        (slot, paired)
        for f in knockout_fixtures
        for slot, paired in ((f.slot_a, f.slot_b), (f.slot_b, f.slot_a))
        if slot[0] == "3"
    ]
    columns = [f"{p + 1}{g}" for g in groups for p in range(len(by_group[g]))]
    columns += third_slots + [f"W{f.match_id}" for f in knockout_fixtures]
    seat = {column: i for i, column in enumerate(columns)}

    knockout = tuple(
        _Knockout(
            stage=f.stage,
            seat_a=seat[(f.slot_a, f.slot_b) if f.slot_a[0] == "3" else f.slot_a],
            seat_b=seat[(f.slot_b, f.slot_a) if f.slot_b[0] == "3" else f.slot_b],
            venue=number.get(f.venue_country, -1),
            k=k,
        )
        for f, k in zip(knockout_fixtures, knockout_k)
    )

    thirds = np.zeros((2 ** len(groups), len(third_slots)), dtype=int)
    for qualified in combinations(groups, 4):
        combo = "".join(qualified)
        row = allocation.get(combo)
        if row is None:
            raise DataError(f"allocation table has no row for combination {combo}")
        mask = sum(1 << group_number[g] for g in qualified)
        for j, (slot, paired) in enumerate(third_slots):
            group = row.get(paired)
            if group is None or group not in slot[1:]:
                raise DataError(_outside_pool(group, slot))
            thirds[mask, j] = group_number[group]

    return Bracket(
        teams=teams,
        models=ModelArrays.from_models([models[t] for t in teams]),
        ratings=np.array([float(ratings[t]) for t in teams]),
        members=np.array([[number[t] for t in by_group[g]] for g in groups]),
        group_a=np.array([number[f.slot_a] for f in group_fixtures]),
        group_b=np.array([number[f.slot_b] for f in group_fixtures]),
        group_loc=np.array(
            [
                (
                    location_indicator(f.slot_a, f.slot_b, f.venue_country),
                    location_indicator(f.slot_b, f.slot_a, f.venue_country),
                )
                for f in group_fixtures
            ]
        ),
        group_k=group_k,
        knockout=knockout,
        thirds=thirds,
    )


# ---------------------------------------------------------------------------
# the block engine
# ---------------------------------------------------------------------------

# Runs played together; bounds the engine's memory whatever n_runs is.
BLOCK_RUNS = 1024
MAX_WORKERS = 64  # largest accepted n_workers: each is an OS process


def _simulate_block(
    bracket: Bracket, master_seed: int, run_indices: Sequence[int]
) -> np.ndarray:
    """Stage counts (stat x team) of the runs ``run_indices``, played together.

    Every row is one run and draws its uniforms from ``run_rng(master_seed,
    i)`` in the scalar engine's order, so the counts equal those of
    :func:`run_tournament` run by run.
    """
    n = len(run_indices)
    n_teams = len(bracket.teams)
    rows = np.arange(n)
    u = np.stack([run_rng(master_seed, i).random(bracket.width) for i in run_indices])
    live = np.tile(bracket.ratings, (n, 1))
    counts = np.zeros((len(STAT_NAMES), n_teams), dtype=np.int64)

    def count(stat: str, team: np.ndarray) -> None:
        counts[STAT_NAMES.index(stat)] += np.bincount(team.ravel(), minlength=n_teams)

    goals = np.empty((2, n, len(bracket.group_a)), dtype=np.int64)
    for m, (a, b) in enumerate(zip(bracket.group_a, bracket.group_b)):
        elo_a, elo_b = live[:, a], live[:, b]
        goals[:, :, m] = sample_match_block(
            bracket.models, np.full(n, a), np.full(n, b), elo_a, elo_b,
            np.full(n, bracket.group_loc[m, 0]), np.full(n, bracket.group_loc[m, 1]),
            u[:, 2 * m : 2 * m + 2],
        )
        live[:, a], live[:, b] = elo.update_pairs(
            elo_a, elo_b, goals[0, :, m], goals[1, :, m], bracket.group_k[m]
        )

    members = bracket.members
    overall, h2h = _standings(bracket.group_a, bracket.group_b, goals[0], goals[1], n_teams)
    lots = u[:, bracket.lots_start : bracket.thirds_start].reshape((n,) + members.shape)
    order = _tiebreak_order(overall[:, members], h2h[:, members], live[:, members], lots)
    positions = np.take_along_axis(members[None], order, axis=-1)
    count("group_first", positions[:, :, 0])
    count("group_second", positions[:, :, 1])

    third = positions[:, :, 2]
    order = _tiebreak_order(
        np.take_along_axis(overall, third[:, :, None], axis=1),
        None,
        np.take_along_axis(live, third, axis=1),
        u[:, bracket.thirds_start : bracket.knockout_start],
    )
    qualified = order[:, :4]
    count("third_qualified", np.take_along_axis(third, qualified, axis=1))
    mask = (1 << qualified).sum(axis=1)
    assigned_third = np.take_along_axis(third, bracket.thirds[mask], axis=1)

    n_knockout = len(bracket.knockout)
    seats = np.concatenate(
        [positions.reshape(n, -1), assigned_third, np.empty((n, n_knockout), dtype=np.int64)],
        axis=1,
    )
    cursor = np.full(n, bracket.knockout_start)
    for winner, match in enumerate(bracket.knockout, start=seats.shape[1] - n_knockout):
        a, b = seats[:, match.seat_a], seats[:, match.seat_b]
        loc_a = (a == match.venue) * 1.0 - (b == match.venue) * 1.0
        loc_b = (b == match.venue) * 1.0 - (a == match.venue) * 1.0
        elo_a, elo_b = live[rows, a], live[rows, b]
        draws = u[rows[:, None], cursor[:, None] + np.arange(KNOCKOUT_DRAWS)]
        ga, gb = sample_match_block(bracket.models, a, b, elo_a, elo_b, loc_a, loc_b, draws)
        level = np.flatnonzero(ga == gb)
        xa, xb = sample_match_block(
            bracket.models, a[level], b[level], elo_a[level], elo_b[level],
            loc_a[level], loc_b[level], draws[level, 2:4],
            mu_factor=EXTRA_TIME_MU_FACTOR,
        )
        ga[level] += xa
        gb[level] += xb
        shootout = level[ga[level] == gb[level]]
        a_wins = ga > gb
        a_wins[shootout] = draws[shootout, 4] < elo.expected_scores(
            elo_a[shootout], elo_b[shootout]
        )
        seats[:, winner] = np.where(a_wins, a, b)
        cursor += 2
        cursor[level] += 2
        cursor[shootout] += 1
        # aggregate incl. extra time; a tie decided on penalties is a
        # draw for rating purposes
        live[rows, a], live[rows, b] = elo.update_pairs(elo_a, elo_b, ga, gb, match.k)
        count(match.stage.lower(), np.stack([a, b]))
        if match.stage == "FINAL":
            count("champion", seats[:, winner])
    counts[STAT_NAMES.index("eliminated_group")] = n - counts[STAT_NAMES.index("r16")]
    return counts


def _run_chunk(
    bracket: Bracket, master_seed: int, run_indices: Sequence[int], block_runs: int
) -> np.ndarray:
    counts = np.zeros((len(STAT_NAMES), len(bracket.teams)), dtype=np.int64)
    for start in range(0, len(run_indices), block_runs):
        counts += _simulate_block(
            bracket, master_seed, run_indices[start : start + block_runs]
        )
    return counts


def monte_carlo(
    models: Mapping[str, "TeamModel"],
    ratings: Mapping[str, float],
    fixtures: Sequence[Fixture],
    allocation: Mapping[str, Mapping[str, str]],
    n_runs: int,
    master_seed: int = 0,
    n_workers: int = 1,
    k_factors: Mapping[str, float] | None = None,
) -> SimulationAggregate:
    """Aggregate stage counts over ``n_runs`` independent tournaments.

    Results are identical for any ``n_workers``: every run draws from
    its own seed stream and the merged counts are plain integer sums.
    """
    if n_runs <= 0:
        raise ConfigError("n_runs must be positive")
    if not 1 <= n_workers <= MAX_WORKERS:
        raise ConfigError(f"n_workers must lie in [1, {MAX_WORKERS}], got {n_workers}")
    validate_fixtures(fixtures)
    validate_allocation(allocation)
    bracket = compile_bracket(models, ratings, fixtures, allocation, k_factors)
    indices = range(n_runs)
    if n_workers == 1:
        counts = _run_chunk(bracket, master_seed, indices, BLOCK_RUNS)
    else:
        chunks = [indices[i::n_workers] for i in range(n_workers)]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(_run_chunk, bracket, master_seed, chunk, BLOCK_RUNS)
                for chunk in chunks
                if chunk
            ]
            counts = sum(fut.result() for fut in futures)
    return SimulationAggregate(
        n_runs=n_runs,
        teams=bracket.teams,
        counts={
            stat: Counter(dict(zip(bracket.teams, row.tolist())))
            for stat, row in zip(STAT_NAMES, counts)
        },
    )
