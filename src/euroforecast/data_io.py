"""File ingestion and export.

All tabular files are UTF-8, comma-separated, LF-terminated, with a
mandatory header row.  Lines starting with ``#`` are metadata comments
and are skipped on read; exports place their run manifest there.
Probabilities are written with 6 decimal places.  Model files are JSON
and round-trip losslessly.

Every malformed input raises :class:`DataError` with a ``file:line``
location; nothing is skipped silently.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .elo import DEFAULT_K_FACTORS, K_FACTOR_MAX, EloRating, check_rating
from .errors import ConfigError, DataError, FileAccessError, ParameterError
from .forecast import DEFAULT_GRID_CAP
from .regression import ALPHA_LENGTHS, FitConfig, FitDiagnostics, RegressionCoefficients, TeamModel
from .tournament import (
    Fixture,
    SimulationAggregate,
    validate_allocation,
    validate_fixtures,
)
from .weights import DEFAULT_HALF_PERIOD_DAYS, DEFAULT_IMPORTANCE, WeightConfig
from .zigp import HARD_CAP

if TYPE_CHECKING:
    from .forecast import MatchForecast
    from .metrics import MetricsReport

MODEL_FORMAT_VERSION = 1
NEUTRAL = "NEUTRAL"


@dataclass(frozen=True)
class MatchRecord:
    """One historical match as listed by the source (team_a first)."""

    date: dt.date
    team_a: str
    team_b: str
    goals_a: int
    goals_b: int
    match_type: str
    venue_country: str = NEUTRAL
    elo_a_before: float | None = None
    elo_b_before: float | None = None

    def __post_init__(self):
        if self.team_a == self.team_b:
            raise ParameterError(f"a team cannot play itself: {self.team_a}")
        if not (0 <= self.goals_a <= HARD_CAP and 0 <= self.goals_b <= HARD_CAP):
            raise ParameterError(
                f"goals must be non-negative and at most {HARD_CAP}, "
                f"got {self.goals_a}:{self.goals_b}"
            )


@dataclass(frozen=True)
class AppConfig:
    """Run configuration; JSON keys mirror the field names."""

    reference_date: dt.date
    half_period_days: int = DEFAULT_HALF_PERIOD_DAYS
    importance_table: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_IMPORTANCE)
    )
    k_factors: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_K_FACTORS)
    )
    min_nested_obs: int = FitConfig.min_nested_obs
    grid_cap: int = DEFAULT_GRID_CAP

    def weight_config(self) -> WeightConfig:
        return WeightConfig(
            reference_date=self.reference_date,
            half_period_days=self.half_period_days,
            importance_table=dict(self.importance_table),
        )


# ---------------------------------------------------------------------------
# CSV primitives
# ---------------------------------------------------------------------------


def _read_table(path: str | Path):
    """Yield (line_number, cells) for the header row, then for each data row.

    Comment and blank lines are skipped; every data row must have the
    header's number of fields.
    """
    spath = str(path)
    if not Path(path).exists():
        raise FileAccessError("file not found", path=spath)
    header = None
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                row = [cell.strip() for cell in row]
                if header is None:
                    header = row
                elif len(row) != len(header):
                    raise DataError(
                        f"expected {len(header)} fields, got {len(row)}",
                        path=spath,
                        line=reader.line_num,
                    )
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"unreadable as UTF-8 CSV: {exc}", path=spath) from None
    if header is None:
        raise DataError("missing header row", path=spath)


def _parse_table(path: str | Path, required: Sequence[str], optional: Sequence[str] = ()):
    """Parse a headed CSV into dict rows, validating the column set."""
    rows = _read_table(path)
    header_line, header = next(rows)
    missing = [c for c in required if c not in header]
    if missing:
        raise DataError(
            f"missing required columns: {', '.join(missing)}",
            path=str(path),
            line=header_line,
        )
    unknown = [c for c in header if c not in required and c not in optional]
    if unknown:
        raise DataError(
            f"unknown columns: {', '.join(unknown)}", path=str(path), line=header_line
        )
    for line, row in rows:
        yield line, dict(zip(header, row))


def _parse_date(value: str, path: str, line: int) -> dt.date:
    try:
        return dt.date.fromisoformat(value)
    except ValueError:
        raise DataError(
            f"malformed date {value!r} (expected YYYY-MM-DD)", path=path, line=line
        ) from None


def _parse_int(value: str, name: str, path: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise DataError(
            f"malformed integer {value!r} for {name}", path=path, line=line
        ) from None


def _parse_float(value: str, name: str, path: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise DataError(
            f"malformed number {value!r} for {name}", path=path, line=line
        ) from None
    if not math.isfinite(number):
        raise DataError(f"non-finite number {value!r} for {name}", path=path, line=line)
    return number


def _parse_elo(value: str, name: str, path: str, line: int) -> float:
    """A rating: a finite number inside ``elo.ELO_RANGE``."""
    try:
        return check_rating(_parse_float(value, name, path, line), name)
    except ParameterError as exc:
        raise DataError(str(exc), path=path, line=line) from None


def _write_csv(
    path: str | Path,
    columns: Sequence[str],
    rows: Iterable[Sequence[str]],
    metadata: Mapping[str, object] | None = None,
) -> None:
    path = Path(path)
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as f:
            for key, value in (metadata or {}).items():
                f.write(f"# {key}: {value}\n")
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
    except OSError as exc:
        raise FileAccessError(f"cannot write file: {exc}", path=str(path)) from exc


def _write_json(path: str | Path, doc: Mapping) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        raise FileAccessError(f"cannot write file: {exc}", path=str(path)) from exc


def _read_json(path: str | Path, error: type[Exception]):
    """The document in a UTF-8 JSON file; content that is not raises ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise FileAccessError("file not found", path=str(path)) from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None


def file_sha256(path: str | Path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise FileAccessError(f"cannot hash file: {exc}", path=str(path)) from exc


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

_MATCH_COLUMNS = (
    "date",
    "team_a",
    "team_b",
    "goals_a",
    "goals_b",
    "match_type",
    "venue_country",
)
_MATCH_OPTIONAL = ("elo_a_before", "elo_b_before")


def load_matches(
    path: str | Path,
    window: tuple[dt.date | None, dt.date | None] | None = None,
) -> list[MatchRecord]:
    """Historical matches, filtered to ``window`` and sorted by date.

    Duplicate (date, team_a, team_b) rows are rejected.  A window that
    excludes every row triggers a warning, not an error.
    """
    start, end = window if window is not None else (None, None)
    spath = str(path)
    matches: list[MatchRecord] = []
    seen: dict[tuple, int] = {}
    any_rows = False
    for line, row in _parse_table(path, _MATCH_COLUMNS, _MATCH_OPTIONAL):
        any_rows = True
        date = _parse_date(row["date"], spath, line)
        key = (date, row["team_a"], row["team_b"])
        if key in seen:
            raise DataError(
                f"duplicate match {key[1]} vs {key[2]} on {date} "
                f"(first seen at line {seen[key]})",
                path=spath,
                line=line,
            )
        seen[key] = line
        if (start is not None and date < start) or (end is not None and date > end):
            continue
        elo_a = row.get("elo_a_before", "")
        elo_b = row.get("elo_b_before", "")
        try:
            record = MatchRecord(
                date=date,
                team_a=row["team_a"],
                team_b=row["team_b"],
                goals_a=_parse_int(row["goals_a"], "goals_a", spath, line),
                goals_b=_parse_int(row["goals_b"], "goals_b", spath, line),
                match_type=row["match_type"],
                venue_country=row["venue_country"],
                elo_a_before=_parse_elo(elo_a, "elo_a_before", spath, line) if elo_a else None,
                elo_b_before=_parse_elo(elo_b, "elo_b_before", spath, line) if elo_b else None,
            )
        except ParameterError as exc:
            raise DataError(str(exc), path=spath, line=line) from None
        matches.append(record)
    if any_rows and not matches:
        warnings.warn(f"no matches from {spath} fall inside the window", stacklevel=2)
    matches.sort(key=lambda m: (m.date, m.team_a, m.team_b))
    return matches


def save_matches(
    path: str | Path,
    matches: Sequence[MatchRecord],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write matches (with any Elo annotations) in the ingestible format."""

    def fmt(m: MatchRecord):
        return (
            m.date.isoformat(),
            m.team_a,
            m.team_b,
            str(m.goals_a),
            str(m.goals_b),
            m.match_type,
            m.venue_country,
            "" if m.elo_a_before is None else f"{m.elo_a_before:.6f}",
            "" if m.elo_b_before is None else f"{m.elo_b_before:.6f}",
        )

    _write_csv(
        path,
        _MATCH_COLUMNS + _MATCH_OPTIONAL,
        (fmt(m) for m in matches),
        metadata,
    )


def load_ratings(path: str | Path) -> list[EloRating]:
    """Seed Elo ratings; columns team, elo, optional as_of date."""
    spath = str(path)
    ratings = []
    seen = set()
    for line, row in _parse_table(path, ("team", "elo"), ("as_of",)):
        team = row["team"]
        if team in seen:
            raise DataError(f"duplicate rating for team {team!r}", path=spath, line=line)
        seen.add(team)
        as_of = (
            _parse_date(row["as_of"], spath, line) if row.get("as_of") else dt.date.min
        )
        ratings.append(
            EloRating(team=team, points=_parse_elo(row["elo"], "elo", spath, line), as_of=as_of)
        )
    if not ratings:
        raise DataError("ratings file has no rows", path=spath)
    return ratings


def rating_table(ratings: Iterable[EloRating]) -> dict[str, float]:
    return {r.team: r.points for r in ratings}


def load_fixtures(path: str | Path) -> list[Fixture]:
    """Tournament fixtures, validated as a complete EURO bracket."""
    spath = str(path)
    fixtures = []
    for line, row in _parse_table(
        path,
        ("match_id", "stage", "group", "date", "venue_country", "slot_a", "slot_b"),
        ("match_type",),
    ):
        fixtures.append(
            Fixture(
                match_id=_parse_int(row["match_id"], "match_id", spath, line),
                stage=row["stage"],
                group=row["group"],
                date=_parse_date(row["date"], spath, line) if row["date"] else None,
                venue_country=row["venue_country"],
                slot_a=row["slot_a"],
                slot_b=row["slot_b"],
                match_type=row.get("match_type") or "CONT",
            )
        )
    if not fixtures:
        raise DataError("fixture file has no rows", path=spath)
    fixtures.sort(key=lambda f: f.match_id)
    try:
        validate_fixtures(fixtures)
    except DataError as exc:
        raise DataError(str(exc), path=spath) from None
    return fixtures


def load_allocation(path: str | Path) -> dict[str, dict[str, str]]:
    """Best-thirds allocation: combination of qualified groups -> slot map.

    The header names the receiving winner slots (e.g. 1B,1C,1E,1F);
    each row sends one qualified group's third to each slot.
    """
    spath = str(path)
    rows = _read_table(path)
    header_line, header = next(rows)
    if header[0] != "combination":
        raise DataError(
            "first column must be 'combination'", path=spath, line=header_line
        )
    slots = header[1:]
    table: dict[str, dict[str, str]] = {}
    for line, row in rows:
        combo = "".join(sorted(row[0]))
        if combo in table:
            raise DataError(f"duplicate combination {combo}", path=spath, line=line)
        table[combo] = dict(zip(slots, row[1:]))
    try:
        validate_allocation(table)
    except DataError as exc:
        raise DataError(str(exc), path=spath) from None
    return table


def load_realized_results(path: str | Path) -> dict[str, int]:
    """Realized tournament ranks (1..6 per team) for backtesting."""
    spath = str(path)
    ranks: dict[str, int] = {}
    for line, row in _parse_table(path, ("team", "rank"), ("stage",)):
        team = row["team"]
        if team in ranks:
            raise DataError(f"duplicate result for team {team!r}", path=spath, line=line)
        rank = _parse_int(row["rank"], "rank", spath, line)
        if not 1 <= rank <= 6:
            raise DataError(f"rank must be 1..6, got {rank}", path=spath, line=line)
        ranks[team] = rank
    if not ranks:
        raise DataError("results file has no rows", path=spath)
    if len(ranks) == 24:
        counts = [sum(1 for r in ranks.values() if r == i) for i in range(1, 7)]
        if counts != [1, 1, 2, 4, 8, 8]:
            raise DataError(
                f"rank counts {counts} do not match the 24-team bracket (1,1,2,4,8,8)",
                path=spath,
            )
    return ranks


def load_config(path: str | Path) -> AppConfig:
    """JSON run configuration; unknown keys are rejected."""
    spath = str(path)
    raw = _read_json(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{spath}: config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(AppConfig)}
    if unknown:
        raise ConfigError(f"{spath}: unknown config keys: {sorted(unknown)}")
    if "reference_date" not in raw:
        raise ConfigError(f"{spath}: missing required key 'reference_date'")
    try:
        reference_date = dt.date.fromisoformat(raw["reference_date"])
    except (TypeError, ValueError):
        raise ConfigError(
            f"{spath}: reference_date must be an ISO date string"
        ) from None
    # type() rather than isinstance(): JSON's true and false are not numbers here
    for key in ("importance_table", "k_factors"):
        if key in raw and not (
            isinstance(raw[key], dict)
            and all(
                type(v) is int or (type(v) is float and math.isfinite(v))
                for v in raw[key].values()
            )
        ):
            raise ConfigError(f"{spath}: {key} must map codes to finite numbers")
    for code, k in raw.get("k_factors", {}).items():
        if not 0 < k <= K_FACTOR_MAX:
            raise ConfigError(
                f"{spath}: K factor {code!r} must lie in (0, {K_FACTOR_MAX:g}], got {k}"
            )
    for key in ("half_period_days", "min_nested_obs", "grid_cap"):
        if key in raw and type(raw[key]) is not int:
            raise ConfigError(f"{spath}: {key} must be an integer")
    return AppConfig(**{**raw, "reference_date": reference_date})


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def _coeffs_to_json(c: RegressionCoefficients) -> dict:
    return {"alpha": list(c.alpha), "beta": c.beta, "gamma_log": c.gamma_log}


def _json_number(value, name: str) -> float:
    # type() rather than isinstance(): JSON's true and false are not numbers here
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_finite(value, name: str) -> float:
    number = _json_number(value, name)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _json_int(value, name: str) -> int:
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _coeffs_from_json(obj: dict, team: str, kind: str, path: str) -> RegressionCoefficients:
    """One coefficient block; out-of-range values (a ``ParameterError``) are malformed too."""
    try:
        if not isinstance(obj["alpha"], list):
            raise TypeError(f"alpha must be a list of numbers, got {obj['alpha']!r}")
        alpha = tuple(_json_number(a, "alpha") for a in obj["alpha"])
        if len(alpha) != ALPHA_LENGTHS[kind]:
            raise ValueError(f"{len(alpha)} alpha values, expected {ALPHA_LENGTHS[kind]}")
        return RegressionCoefficients(
            alpha, _json_number(obj["beta"], "beta"), _json_number(obj["gamma_log"], "gamma_log")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed coefficients at {team}.{kind}: {exc}", path=path) from None


def save_models(
    path: str | Path,
    models: Mapping[str, TeamModel],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write the fitted models as versioned JSON (lossless round-trip)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "metadata": dict(metadata or {}),
        "teams": {},
    }
    for team in sorted(models):
        m = models[team]
        doc["teams"][team] = {
            "attack": _coeffs_to_json(m.attack),
            "defense": _coeffs_to_json(m.defense),
            "nested": _coeffs_to_json(m.nested),
            "nested_fallback": m.nested_fallback,
            "diagnostics": {
                kind: asdict(d) for kind, d in sorted(m.diagnostics.items())
            },
        }
    _write_json(path, doc)


def load_models(path: str | Path) -> tuple[dict[str, TeamModel], dict]:
    """Read a model file; returns (models, metadata)."""
    spath = str(path)
    doc = _read_json(path, DataError)
    if not isinstance(doc, dict):
        raise DataError("a model file must hold a JSON object", path=spath)
    # type() rather than ==: JSON's true equals 1
    if type(doc.get("format_version")) is not int or doc["format_version"] != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {doc.get('format_version')!r}",
            path=spath,
        )
    teams = doc.get("teams", {})
    if not (isinstance(teams, dict) and all(isinstance(obj, dict) for obj in teams.values())):
        raise DataError("'teams' must map each team code to an object", path=spath)
    models = {}
    for team, obj in teams.items():
        try:
            diagnostics = {
                kind: FitDiagnostics(
                    statistic=_json_finite(d["statistic"], "statistic"),
                    df=_json_int(d["df"], "df"),
                    p_value=_json_finite(d["p_value"], "p_value"),
                    n_obs=_json_int(d["n_obs"], "n_obs"),
                )
                for kind, d in obj.get("diagnostics", {}).items()
            }
            fallback = obj.get("nested_fallback", False)
            if type(fallback) is not bool:
                raise TypeError(f"nested_fallback must be true or false, got {fallback!r}")
            models[team] = TeamModel(
                team=team,
                attack=_coeffs_from_json(obj["attack"], team, "attack", spath),
                defense=_coeffs_from_json(obj["defense"], team, "defense", spath),
                nested=_coeffs_from_json(obj["nested"], team, "nested", spath),
                diagnostics=diagnostics,
                nested_fallback=fallback,
            )
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model for team {team}: {exc}", path=spath) from None
    return models, doc.get("metadata", {})


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _prob(x: float) -> str:
    return f"{x:.6f}"


def export_group_table(
    path: str | Path,
    agg: SimulationAggregate,
    groups: Mapping[str, Sequence[str]],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Group-stage outcome probabilities, one row per team."""
    rows = []
    for g in sorted(groups):
        for team in groups[g]:
            rows.append(
                (
                    g,
                    team,
                    _prob(agg.probability("group_first", team)),
                    _prob(agg.probability("group_second", team)),
                    _prob(agg.probability("third_qualified", team)),
                    _prob(agg.probability("eliminated_group", team)),
                )
            )
    _write_csv(
        path,
        ("group", "team", "group_first", "group_second", "third_qualified", "eliminated"),
        rows,
        metadata,
    )


def _write_stage_table(path, agg, cell, metadata) -> None:
    """One row per team, champions first; ``cell`` maps a stage probability to its entry."""
    champion = agg.counts["champion"]
    order = sorted(agg.teams, key=lambda t: (-champion[t], t))
    stats = ("champion", "final", "sf", "qf", "r16")
    rows = [
        (team,) + tuple(_prob(cell(agg.probability(s, team))) for s in stats) for team in order
    ]
    _write_csv(
        path,
        ("team", "champion", "final", "semifinal", "quarterfinal", "last16"),
        rows,
        metadata,
    )


def export_stage_table(
    path: str | Path,
    agg: SimulationAggregate,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Stage-reaching probabilities, champions first."""
    _write_stage_table(path, agg, lambda p: p, metadata)


def export_stage_standard_errors(
    path: str | Path,
    agg: SimulationAggregate,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Monte Carlo standard errors matching the stage table's shape."""
    _write_stage_table(path, agg, lambda p: (p * (1.0 - p) / agg.n_runs) ** 0.5, metadata)


def export_score_grid(
    path: str | Path,
    forecast: "MatchForecast",
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Joint score grid as CSV; row i, column j is P(a scores i, b scores j)."""
    columns = ("goals_a",) + tuple(f"b{j}" for j in range(forecast.cap + 1))
    rows = [
        (str(i),) + tuple(_prob(forecast.grid[i, j]) for j in range(forecast.cap + 1))
        for i in range(forecast.cap + 1)
    ]
    meta = dict(metadata or {})
    meta.setdefault("team_a", forecast.team_a)
    meta.setdefault("team_b", forecast.team_b)
    meta.setdefault("stronger", forecast.stronger)
    _write_csv(path, columns, rows, meta)


def export_score_grid_json(
    path: str | Path,
    forecast: "MatchForecast",
    metadata: Mapping[str, object] | None = None,
) -> None:
    doc = {
        "metadata": dict(metadata or {}),
        "team_a": forecast.team_a,
        "team_b": forecast.team_b,
        "stronger": forecast.stronger,
        "cap": forecast.cap,
        "grid": [[round(float(p), 10) for p in row] for row in forecast.grid],
    }
    _write_json(path, doc)


def export_gof_report(
    path: str | Path,
    models: Mapping[str, TeamModel],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Chi-square fit diagnostics per team and regression."""
    rows = []
    for team in sorted(models):
        m = models[team]
        for kind in ("attack", "defense", "nested"):
            d = m.diagnostics.get(kind)
            if d is None:
                rows.append((team, kind, "", "", "", "", "fallback"))
            else:
                rows.append(
                    (
                        team,
                        kind,
                        f"{d.statistic:.6f}",
                        str(d.df),
                        f"{d.p_value:.6f}",
                        str(d.n_obs),
                        "fallback" if (kind == "nested" and m.nested_fallback) else "",
                    )
                )
    _write_csv(
        path,
        ("team", "regression", "statistic", "df", "p_value", "n_obs", "note"),
        rows,
        metadata,
    )


def export_metrics_report(
    path: str | Path,
    report: "MetricsReport",
    metadata: Mapping[str, object] | None = None,
) -> None:
    meta = dict(metadata or {})
    meta["total_mld"] = f"{report.total_mld:.6f}"
    meta["total_brier"] = f"{report.total_brier:.6f}"
    meta["total_rps"] = f"{report.total_rps:.6f}"
    rows = [
        (
            r.team,
            str(r.realized_rank),
            str(r.modal_rank),
            f"{r.mld:.6f}",
            f"{r.brier:.6f}",
            f"{r.rps:.6f}",
        )
        for r in report.teams
    ]
    _write_csv(
        path,
        ("team", "realized_rank", "modal_rank", "mld", "brier", "rps"),
        rows,
        meta,
    )
