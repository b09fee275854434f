"""Monte Carlo simulation of a 24-team EURO-format tournament.

Each run replays the full tournament: 36 group matches in schedule
order, group rankings with the full tiebreak chain, best-thirds
selection, the regulation allocation of third-placed teams onto the
round-of-16 bracket, and four knockout rounds with extra time and
shootouts.  Elo ratings update after every simulated match and feed
back into the score model, so early upsets propagate.

Runs are independent and deterministic: run ``i`` under master seed
``s`` reads the ``width`` uniforms at offset ``i * width`` of the one
stream of ``np.random.default_rng(s)``, in the layout that
:class:`Bracket` describes, which makes the aggregate counts
bit-identical for any worker count and block size.  ``monte_carlo``
compiles the bracket once and plays blocks of runs together, one row
per run; up to ``n_workers`` processes, the calling one among them, each
play one contiguous range of runs, of at least ``MIN_RUNS_PER_PROCESS``
runs when there are several.  A block plays each wave of group matches
(a matchday: no team twice) as one batched draw, and reaches its first
run by ``PCG64``'s jump-ahead.
"""

from __future__ import annotations

import datetime as dt
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import elo
from .elo import DEFAULT_K_FACTORS
from .errors import ConfigError, DataError
from .forecast import ModelArrays, location_indicator, sample_match_block

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


@dataclass
class SimulationAggregate:
    """Integer stage counts per team over ``n_runs`` tournaments.

    ``table[s, t]`` counts the runs in which ``teams[t]`` reached stat
    ``STAT_NAMES[s]``.
    """

    n_runs: int
    teams: tuple[str, ...]
    table: np.ndarray  # (stats, teams), int64

    @property
    def counts(self) -> dict[str, Counter]:
        """The table as one ``Counter`` by team code per stat, built on access."""
        return {
            stat: Counter(dict(zip(self.teams, row.tolist())))
            for stat, row in zip(STAT_NAMES, self.table)
        }

    def probability(self, stat: str, team: str) -> float:
        return int(self.table[STAT_NAMES.index(stat), self.teams.index(team)]) / self.n_runs


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
            elif slot[:1] in ("1", "2"):
                if slot[1:] not in teams:
                    raise DataError(f"match {f.match_id}: unknown group in slot {slot}")
            elif slot[:1] == "3":
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


# ---------------------------------------------------------------------------
# the compiled bracket
# ---------------------------------------------------------------------------

# Uniforms one knockout match may take: 2 in regular time, 2 in extra
# time, 1 for a shootout.
KNOCKOUT_DRAWS = 5


@dataclass(frozen=True)
class _Knockout:
    """One knockout fixture; its sides and winner are columns of the seat
    table: every group place (group-major), then the assigned thirds (one
    column per third slot), then the winner of each knockout match."""

    stage: str
    seat_a: int
    seat_b: int
    seat_winner: int
    venue: int  # team number of the host country, -1 when it is no team here
    k: float


@dataclass(frozen=True)
class Bracket:
    """Fixtures, allocation, models and ratings compiled to index arrays.

    Teams are numbered in sorted code order, so comparing numbers
    compares codes; groups are numbered in letter order.  A run takes
    its uniforms from one row, in this order: two per group match in
    match-id order (the stronger side's draw, then the weaker side's);
    one lot per group place (groups in order, teams in code order); one
    best-third lot per group; then, per knockout match in match-id
    order, two for regular time, two more for extra time when it is
    level and one more for a shootout when it is still level.  A run
    that needs fewer than ``width`` uniforms leaves the rest unread, so
    run ``i`` of a simulation starts at offset ``i * width`` of its stream.

    ``waves`` splits the group matches into matchdays that are played
    as one draw each: a match joins the wave after the last one of
    either of its teams, so no team plays twice in a wave and each team
    meets its opponents in match-id order, on the same Elo as when the
    matches are played one by one.  EURO 2016 and 2020 have 3 waves of
    12 matches.
    """

    teams: tuple[str, ...]
    models: ModelArrays
    ratings: np.ndarray
    members: np.ndarray  # (groups, teams per group), sorted
    group_a: np.ndarray  # group matches in match-id order
    group_b: np.ndarray
    group_loc: np.ndarray  # location indicator of side A; side B's is its negation
    group_k: np.ndarray
    waves: tuple[np.ndarray, ...]  # group match numbers of each wave, ascending
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
    """Validate the inputs and resolve names, slots and K factors once.

    Raises the ``DataError`` of :func:`validate_fixtures` and
    :func:`validate_allocation` and of an allocation row that sends a
    third outside its candidate pool, and the ``ConfigError`` of a
    missing model, rating or K factor; ``k_factors`` is the whole table,
    as in :func:`elo.replay_history`, and only None means the defaults.
    """
    validate_fixtures(fixtures)
    validate_allocation(allocation)
    by_group = group_teams(fixtures)
    for g, ts in by_group.items():
        for t in ts:
            if t not in models:
                raise ConfigError(f"no fitted model for team {t} (group {g})")
            if t not in ratings:
                raise ConfigError(f"no Elo rating for team {t} (group {g})")
    teams = tuple(sorted(t for ts in by_group.values() for t in ts))
    number = {t: i for i, t in enumerate(teams)}

    ordered = sorted(fixtures, key=lambda f: f.match_id)
    k_table = DEFAULT_K_FACTORS if k_factors is None else k_factors
    for f in ordered:
        if f.match_type not in k_table:
            raise ConfigError(f"no K factor for match type {f.match_type!r}")
    group_fixtures = [f for f in ordered if f.stage == "GROUP"]
    knockout_fixtures = [f for f in ordered if f.stage != "GROUP"]

    # the seat table's columns: every group place, each third slot, each winner
    third_slots = [
        (slot, paired)
        for f in knockout_fixtures
        for slot, paired in ((f.slot_a, f.slot_b), (f.slot_b, f.slot_a))
        if slot[0] == "3"
    ]
    columns = [f"{p + 1}{g}" for g in GROUPS for p in range(len(by_group[g]))]
    columns += third_slots + [f"W{f.match_id}" for f in knockout_fixtures]
    seat = {column: i for i, column in enumerate(columns)}

    knockout = tuple(
        _Knockout(
            stage=f.stage,
            seat_a=seat[(f.slot_a, f.slot_b) if f.slot_a[0] == "3" else f.slot_a],
            seat_b=seat[(f.slot_b, f.slot_a) if f.slot_b[0] == "3" else f.slot_b],
            seat_winner=seat[f"W{f.match_id}"],
            venue=number.get(f.venue_country, -1),
            k=k_table[f.match_type],
        )
        for f in knockout_fixtures
    )

    thirds = np.zeros((2 ** len(GROUPS), len(third_slots)), dtype=int)
    for qualified in combinations(GROUPS, 4):
        row = allocation["".join(qualified)]
        mask = sum(1 << GROUPS.index(g) for g in qualified)
        for j, (slot, paired) in enumerate(third_slots):
            if paired not in row:
                raise DataError(
                    f"allocation table has no column {paired}, the winner slot that "
                    f"meets third slot {slot}; its columns are {', '.join(row)}"
                )
            group = row[paired]
            if group not in slot[1:]:
                raise DataError(
                    f"allocation sends group {group} third into slot {slot}, "
                    "which is outside its candidate pool"
                )
            thirds[mask, j] = GROUPS.index(group)

    last_wave: dict[str, int] = {}
    wave_of = []
    for f in group_fixtures:
        wave = 1 + max(last_wave.get(f.slot_a, -1), last_wave.get(f.slot_b, -1))
        last_wave[f.slot_a] = last_wave[f.slot_b] = wave
        wave_of.append(wave)

    return Bracket(
        teams=teams,
        models=ModelArrays.from_models([models[t] for t in teams]),
        ratings=np.array([float(ratings[t]) for t in teams]),
        members=np.array([[number[t] for t in by_group[g]] for g in GROUPS]),
        group_a=np.array([number[f.slot_a] for f in group_fixtures]),
        group_b=np.array([number[f.slot_b] for f in group_fixtures]),
        group_loc=np.array(
            [location_indicator(f.slot_a, f.slot_b, f.venue_country) for f in group_fixtures]
        ),
        group_k=np.array([k_table[f.match_type] for f in group_fixtures]),
        waves=tuple(np.flatnonzero(np.equal(wave_of, w)) for w in range(max(wave_of) + 1)),
        knockout=knockout,
        thirds=thirds,
    )


# ---------------------------------------------------------------------------
# the block engine
# ---------------------------------------------------------------------------

# Runs played together; bounds the engine's memory whatever n_runs is.
BLOCK_RUNS = 1024
MAX_WORKERS = 64  # largest accepted n_workers: at most the caller and 63 started processes
# Fewest runs a process plays.  A started process pays for itself only
# from about 1,024 runs: on a 2-CPU x86-64 machine 2 workers took
# 1.1-2.3 times as long as 1 on 256 and 512 runs, 0.9-1.2 times on 1,024
# and 0.7-0.8 times on 2,048 (EURO 2016 and 2020 brackets).  Acceptance
# criterion 6 plays 2,000 runs on 3 workers, so it starts processes only
# while this is at most 666.
MIN_RUNS_PER_PROCESS = 512
MAX_RUNS = 2**32  # largest accepted n_runs: the documented range of --n-runs


def _knockout_tie(
    models: ModelArrays,
    a: np.ndarray,
    b: np.ndarray,
    elo_a: np.ndarray,
    elo_b: np.ndarray,
    loc_a: np.ndarray,
    u: np.ndarray,
    k: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Play one knockout tie per row from its ``KNOCKOUT_DRAWS`` uniforms.

    Regular time takes ``u[:, 0:2]``.  A level tie goes to extra time on
    ``u[:, 2:4]``, sampled from the same model with both means scaled by
    ``EXTRA_TIME_MU_FACTOR``; a tie still level goes to a shootout that
    side A wins when ``u[:, 4]`` is below its Elo expected score.  Both
    ratings then update on the aggregate score, so a tie decided on
    penalties is a draw for rating purposes.

    Returns (a_wins, goals_a, goals_b, elo_a, elo_b, used): the
    aggregate score, the post-match ratings and the uniforms each row
    took (2, 4 or 5).
    """
    ga, gb = sample_match_block(models, a, b, elo_a, elo_b, loc_a, u)
    level = np.flatnonzero(ga == gb)
    xa, xb = sample_match_block(
        models, a[level], b[level], elo_a[level], elo_b[level], loc_a[level], u[level, 2:4],
        mu_factor=EXTRA_TIME_MU_FACTOR,
    )
    ga[level] += xa
    gb[level] += xb
    shootout = level[ga[level] == gb[level]]
    a_wins = ga > gb
    a_wins[shootout] = u[shootout, 4] < elo.expected_scores(elo_a[shootout], elo_b[shootout])
    used = np.full(len(a), 2)
    used[level] += 2
    used[shootout] += 1
    return (a_wins, ga, gb, *elo.update_pairs(elo_a, elo_b, ga, gb, k), used)


@dataclass(frozen=True)
class _PlayedBlock:
    """What a block of runs did, one row per run; teams and groups by number."""

    positions: np.ndarray  # (runs, groups, places): each group best-first
    qualified: np.ndarray  # (runs, 4): groups of the qualified thirds, best-first
    seats: np.ndarray  # (runs, seats): the seat table, see ``_Knockout``
    group_goals: np.ndarray  # (2, runs, group matches)
    knockout_goals: np.ndarray  # (2, runs, knockout matches), extra time included
    ratings: np.ndarray  # (runs, teams): live Elo after the final


def _play_block(bracket: Bracket, u: np.ndarray) -> _PlayedBlock:
    """Play one tournament per row of ``u``, a (runs, ``bracket.width``) array.

    Each row is read in the layout that :class:`Bracket` describes.
    Elo ratings update after every match and feed the next one's score
    model and the group and best-third tiebreaks.
    """
    n = len(u)
    n_teams = len(bracket.teams)
    rows = np.arange(n)
    live = np.tile(bracket.ratings, (n, 1))

    goals = np.empty((2, n, len(bracket.group_a)), dtype=np.int64)
    for wave in bracket.waves:
        # one row per (run, match of the wave), runs major
        a, b = bracket.group_a[wave], bracket.group_b[wave]
        elo_a, elo_b = live[:, a].ravel(), live[:, b].ravel()
        ga, gb = sample_match_block(
            bracket.models, np.tile(a, n), np.tile(b, n), elo_a, elo_b,
            np.tile(bracket.group_loc[wave], n),
            u[:, 2 * wave[:, None] + np.arange(2)].reshape(-1, 2),
        )
        elo_a, elo_b = elo.update_pairs(elo_a, elo_b, ga, gb, np.tile(bracket.group_k[wave], n))
        live[:, a], live[:, b] = elo_a.reshape(n, -1), elo_b.reshape(n, -1)
        goals[0][:, wave], goals[1][:, wave] = ga.reshape(n, -1), gb.reshape(n, -1)

    members = bracket.members
    overall, h2h = _standings(bracket.group_a, bracket.group_b, goals[0], goals[1], n_teams)
    lots = u[:, bracket.lots_start : bracket.thirds_start].reshape((n,) + members.shape)
    order = _tiebreak_order(overall[:, members], h2h[:, members], live[:, members], lots)
    positions = np.take_along_axis(members[None], order, axis=-1)

    third = positions[:, :, 2]
    qualified = _tiebreak_order(
        np.take_along_axis(overall, third[:, :, None], axis=1),
        None,
        np.take_along_axis(live, third, axis=1),
        u[:, bracket.thirds_start : bracket.knockout_start],
    )[:, :4]
    mask = (1 << qualified).sum(axis=1)
    assigned_third = np.take_along_axis(third, bracket.thirds[mask], axis=1)

    n_knockout = len(bracket.knockout)
    seats = np.concatenate(
        [positions.reshape(n, -1), assigned_third, np.empty((n, n_knockout), dtype=np.int64)],
        axis=1,
    )
    knockout_goals = np.empty((2, n, n_knockout), dtype=np.int64)
    cursor = np.full(n, bracket.knockout_start)
    for j, match in enumerate(bracket.knockout):
        a, b = seats[:, match.seat_a], seats[:, match.seat_b]
        a_wins, ga, gb, elo_a, elo_b, used = _knockout_tie(
            bracket.models, a, b, live[rows, a], live[rows, b],
            (a == match.venue) * 1.0 - (b == match.venue) * 1.0,
            u[rows[:, None], cursor[:, None] + np.arange(KNOCKOUT_DRAWS)],
            match.k,
        )
        knockout_goals[:, :, j] = ga, gb
        live[rows, a], live[rows, b] = elo_a, elo_b
        seats[:, match.seat_winner] = np.where(a_wins, a, b)
        cursor += used
    return _PlayedBlock(positions, qualified, seats, goals, knockout_goals, live)


def _stage_counts(bracket: Bracket, played: _PlayedBlock) -> np.ndarray:
    """Stage counts (stat x team) over the runs of ``played``."""
    n_teams = len(bracket.teams)
    counts = np.zeros((len(STAT_NAMES), n_teams), dtype=np.int64)

    def count(stat: str, team: np.ndarray) -> None:
        counts[STAT_NAMES.index(stat)] += np.bincount(team.ravel(), minlength=n_teams)

    positions, seats = played.positions, played.seats
    count("group_first", positions[:, :, 0])
    count("group_second", positions[:, :, 1])
    count("third_qualified", np.take_along_axis(positions[:, :, 2], played.qualified, axis=1))
    for match in bracket.knockout:
        count(match.stage.lower(), seats[:, [match.seat_a, match.seat_b]])
        if match.stage == "FINAL":
            count("champion", seats[:, match.seat_winner])
    counts[STAT_NAMES.index("eliminated_group")] = len(seats) - counts[STAT_NAMES.index("r16")]
    return counts


def _block_uniforms(master_seed: int, first_run: int, n_runs: int, width: int) -> np.ndarray:
    """Rows ``first_run`` to ``first_run + n_runs - 1`` of
    ``np.random.default_rng(master_seed).random((MAX_RUNS, width))``,
    reached by ``PCG64``'s O(log n) jump-ahead: row ``i`` depends only on
    the seed, ``i`` and ``width``.
    """
    bit_generator = np.random.PCG64(master_seed).advance(first_run * width)
    return np.random.Generator(bit_generator).random((n_runs, width))


def _run_chunk(bracket: Bracket, master_seed: int, runs: range, block_runs: int) -> np.ndarray:
    counts = np.zeros((len(STAT_NAMES), len(bracket.teams)), dtype=np.int64)
    for start in range(runs.start, runs.stop, block_runs):
        n = min(block_runs, runs.stop - start)
        u = _block_uniforms(master_seed, start, n, bracket.width)
        counts += _stage_counts(bracket, _play_block(bracket, u))
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

    At most ``n_workers`` processes play the runs, several only when each
    plays at least ``MIN_RUNS_PER_PROCESS`` of them, so a call of fewer
    than twice that many runs starts no process.  The calling process
    plays the first contiguous range of runs and a pool of the other
    processes plays the others, one range each.  Results are identical
    for any ``n_workers``: each run reads its own segment of one stream
    (:func:`_block_uniforms`), and the counts merge as integer sums.
    """
    if n_runs <= 0:
        raise ConfigError("n_runs must be positive")
    if n_runs > MAX_RUNS:
        raise ConfigError(f"n_runs must be at most {MAX_RUNS}, got {n_runs}")
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ConfigError(f"the master seed must be non-negative, got {master_seed}")
    if not 1 <= n_workers <= MAX_WORKERS:
        raise ConfigError(f"n_workers must lie in [1, {MAX_WORKERS}], got {n_workers}")
    n_workers = min(n_workers, max(1, n_runs // MIN_RUNS_PER_PROCESS))
    bracket = compile_bracket(models, ratings, fixtures, allocation, k_factors)
    bounds = [n_runs * w // n_workers for w in range(n_workers + 1)]
    first, *rest = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if not rest:
        counts = _run_chunk(bracket, master_seed, first, BLOCK_RUNS)
    else:
        # imported here: the pool's modules would add to every command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(rest)) as pool:
            futures = [
                pool.submit(_run_chunk, bracket, master_seed, chunk, BLOCK_RUNS)
                for chunk in rest
            ]
            counts = _run_chunk(bracket, master_seed, first, BLOCK_RUNS)
            counts += sum(fut.result() for fut in futures)
    return SimulationAggregate(n_runs=n_runs, teams=bracket.teams, table=counts)
