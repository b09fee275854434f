"""Command-line pipeline: replay-elo, fit, forecast, simulate, validate, gof.

Every command is deterministic given its arguments; the argument
manifest is written into the metadata header of each output file.
Exit codes: 0 success, 2 configuration or schema error, 3 fit failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__, data_io, elo, metrics, tournament
from .errors import ConfigError, DataError, FileAccessError, FitError, ParameterError
from .forecast import score_grid
from .regression import FitConfig, fit_team_models

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4

CONFIG_DIR_ENV = "EUROFORECAST_CONFIG_DIR"
DEFAULT_N_RUNS = 100_000


def _load_config(args) -> data_io.AppConfig:
    """--config flag, then $EUROFORECAST_CONFIG_DIR/config.json, then packaged default."""
    if getattr(args, "config", None):
        return data_io.load_config(args.config)
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / "config.json"
        if candidate.exists():
            return data_io.load_config(candidate)
    packaged = resources.files("euroforecast").joinpath("data/default_config.json")
    with resources.as_file(packaged) as p:
        return data_io.load_config(p)


def _manifest(args, command: str, **extra) -> dict:
    """Flat key/value record of the invocation, embedded in outputs."""
    manifest = {"tool": f"euroforecast {__version__}", "command": command}
    for key in (
        "matches",
        "ratings",
        "model",
        "fixtures",
        "allocation",
        "results",
        "config",
        "start",
        "end",
        "seed",
        "n_runs",
        "workers",
        "team_a",
        "team_b",
        "elo_a",
        "elo_b",
        "venue",
        "cap",
    ):
        value = getattr(args, key, None)
        if value is not None:
            manifest[key] = value
    manifest.update(extra)
    return manifest


def _parse_window(args) -> tuple[dt.date | None, dt.date | None]:
    try:
        return tuple(dt.date.fromisoformat(d) if d else None for d in (args.start, args.end))
    except ValueError:
        raise ConfigError(f"not ISO dates: --start {args.start!r} --end {args.end!r}") from None


def _annotated_matches(args, cfg: data_io.AppConfig):
    """Load matches; replay Elo inline when a ratings file is given."""
    matches = data_io.load_matches(args.matches, _parse_window(args))
    if getattr(args, "ratings", None):
        ratings = data_io.load_ratings(args.ratings)
        matches, _ = elo.replay_history(ratings, matches, cfg.k_factors)
    return matches


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_replay_elo(args) -> int:
    cfg = _load_config(args)
    matches = data_io.load_matches(args.matches, _parse_window(args))
    ratings = data_io.load_ratings(args.ratings)
    annotated, final_table = elo.replay_history(ratings, matches, cfg.k_factors)
    data_io.save_matches(args.out, annotated, _manifest(args, "replay-elo"))
    top = sorted(final_table.items(), key=lambda kv: -kv[1])[:5]
    print(f"annotated {len(annotated)} matches -> {args.out}")
    for team, points in top:
        print(f"  {team}: {points:.1f}")
    return EXIT_OK


def _teams_for_fit(args) -> list[str]:
    if args.teams:
        teams = sorted({t.strip() for t in args.teams.split(",") if t.strip()})
        if not teams:
            raise ConfigError(f"--teams {args.teams!r} names no team")
        return teams
    if args.fixtures:
        fixtures = data_io.load_fixtures(args.fixtures)
        groups = tournament.group_teams(fixtures)
        return sorted(t for ts in groups.values() for t in ts)
    raise ConfigError("fit needs --teams or --fixtures to know which teams to model")


def cmd_fit(args) -> int:
    cfg = _load_config(args)
    teams = _teams_for_fit(args)
    matches = _annotated_matches(args, cfg)
    fit_cfg = FitConfig(
        weights=cfg.weight_config(), seed=args.seed, min_nested_obs=cfg.min_nested_obs
    )
    summary = fit_team_models(matches, teams, fit_cfg)
    manifest = _manifest(args, "fit", reference_date=cfg.reference_date.isoformat())
    data_io.save_models(args.out, summary.models, manifest)
    if args.gof_out:
        data_io.export_gof_report(args.gof_out, summary.models, manifest)
    for team in teams:
        if team in summary.models:
            note = " (nested fallback)" if summary.models[team].nested_fallback else ""
            print(f"  {team}: ok{note}")
    for team, reason in sorted(summary.failures.items()):
        print(f"  {team}: FAILED: {reason}", file=sys.stderr)
    print(f"fitted {len(summary.models)}/{len(teams)} teams -> {args.out}")
    if summary.failures:
        raise FitError(
            f"{len(summary.failures)} team(s) could not be fitted: "
            + ", ".join(sorted(summary.failures))
        )
    return EXIT_OK


def _elo_pair(args) -> tuple[float, float]:
    """Each team's Elo: its ``--elo-a``/``--elo-b`` override, else its ``--ratings`` row."""
    for flag, override in (("--elo-a", args.elo_a), ("--elo-b", args.elo_b)):
        if override is not None:
            elo.check_rating(override, flag)
    pair = [(args.team_a, args.elo_a), (args.team_b, args.elo_b)]
    needed = [t for t, override in pair if override is None]
    if needed and not args.ratings:
        raise ConfigError("forecast needs --ratings or both --elo-a and --elo-b")
    table = data_io.rating_table(data_io.load_ratings(args.ratings)) if needed else {}
    missing = [t for t in needed if t not in table]
    if missing:
        raise ConfigError(f"no rating for: {', '.join(missing)}")
    return tuple(table[t] if override is None else override for t, override in pair)


def cmd_forecast(args) -> int:
    if args.team_a == args.team_b:
        raise ConfigError(f"a team cannot play itself: {args.team_a}")
    cfg = _load_config(args)
    models, _ = data_io.load_models(args.model)
    for t in (args.team_a, args.team_b):
        if t not in models:
            raise ConfigError(f"model file has no team {t!r}")
    elo_a, elo_b = _elo_pair(args)
    cap = args.cap if args.cap is not None else cfg.grid_cap
    forecast = score_grid(
        models[args.team_a],
        models[args.team_b],
        elo_a,
        elo_b,
        venue_country=args.venue,
        cap=cap,
    )
    manifest = _manifest(
        args, "forecast", model_sha256=data_io.file_sha256(args.model)
    )
    data_io.export_score_grid(args.out, forecast, manifest)
    if args.json_out:
        data_io.export_score_grid_json(args.json_out, forecast, manifest)
    p_a, p_draw, p_b = forecast.outcome_probabilities()
    ma, mb = forecast.most_likely_score()
    print(f"{args.team_a} vs {args.team_b} (venue {args.venue})")
    print(f"  P(win/draw/win): {p_a:.4f} / {p_draw:.4f} / {p_b:.4f}")
    print(f"  most likely score: {ma}:{mb}")
    print(f"grid -> {args.out}")
    return EXIT_OK


def _simulate(args, realized=None):
    """Load the model, fixtures, allocation and ratings, and play ``--n-runs`` tournaments.

    ``realized`` ranks, when given, must cover the fixtures' teams; that
    is checked before anything is simulated.
    """
    cfg = _load_config(args)
    models, _ = data_io.load_models(args.model)
    fixtures = data_io.load_fixtures(args.fixtures)
    if realized is not None:
        groups = tournament.group_teams(fixtures).values()
        metrics.check_teams({t for teams in groups for t in teams}, realized)
    allocation = data_io.load_allocation(args.allocation)
    ratings = data_io.rating_table(data_io.load_ratings(args.ratings))
    agg = tournament.monte_carlo(
        models,
        ratings,
        fixtures,
        allocation,
        n_runs=args.n_runs,
        master_seed=args.seed,
        n_workers=args.workers,
        k_factors=cfg.k_factors,
    )
    return fixtures, agg


def cmd_simulate(args) -> int:
    fixtures, agg = _simulate(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(
        args, "simulate", model_sha256=data_io.file_sha256(args.model)
    )
    groups = tournament.group_teams(fixtures)
    data_io.export_group_table(out_dir / "group_probabilities.csv", agg, groups, manifest)
    data_io.export_stage_table(out_dir / "stage_probabilities.csv", agg, manifest)
    data_io.export_stage_standard_errors(
        out_dir / "stage_standard_errors.csv", agg, manifest
    )
    print(f"{agg.n_runs} runs -> {out_dir}")
    champion = agg.counts["champion"]
    top = sorted(agg.teams, key=lambda t: -champion[t])[:5]
    for team in top:
        print(f"  P(champion {team}) = {agg.probability('champion', team):.4f}")
    return EXIT_OK


def cmd_validate(args) -> int:
    realized = data_io.load_realized_results(args.results)  # fail before simulating
    _, agg = _simulate(args, realized)
    distributions = metrics.distributions_from_aggregate(agg)
    report = metrics.score_report(distributions, realized)
    manifest = _manifest(
        args, "validate", model_sha256=data_io.file_sha256(args.model)
    )
    data_io.export_metrics_report(args.out, report, manifest)
    print(f"MLD   = {report.total_mld:.6f}")
    print(f"Brier = {report.total_brier:.6f}")
    print(f"RPS   = {report.total_rps:.6f}")
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_gof(args) -> int:
    models, _ = data_io.load_models(args.model)
    manifest = _manifest(args, "gof", model_sha256=data_io.file_sha256(args.model))
    data_io.export_gof_report(args.out, models, manifest)
    width = max(len(t) for t in models) if models else 4
    print(f"{'team':<{width}}  regression  p_value")
    for team in sorted(models):
        for kind in ("attack", "defense", "nested"):
            d = models[team].diagnostics.get(kind)
            shown = f"{d.p_value:.4f}" if d else "fallback"
            print(f"{team:<{width}}  {kind:<10}  {shown}")
    print(f"report -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config(p):
    p.add_argument("--config", help="JSON config file (default: packaged config)")


def _add_simulation(p):
    p.add_argument("--model", required=True)
    p.add_argument("--fixtures", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--ratings", required=True)
    p.add_argument("--n-runs", type=int, default=DEFAULT_N_RUNS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_config(p)


def _add_window(p):
    p.add_argument("--start", help="ignore matches before this ISO date")
    p.add_argument("--end", help="ignore matches after this ISO date")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euroforecast",
        description="Fit goal models, forecast scores, and simulate a EURO tournament.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("replay-elo", help="annotate matches with pre-match Elo ratings")
    p.add_argument("--matches", required=True, help="historical match CSV")
    p.add_argument("--ratings", required=True, help="seed Elo ratings CSV")
    p.add_argument("--out", required=True, help="annotated match CSV to write")
    _add_window(p)
    _add_config(p)
    p.set_defaults(handler=cmd_replay_elo)

    p = sub.add_parser("fit", help="fit attack/defense/nested models per team")
    p.add_argument("--matches", required=True, help="match CSV (annotated, or use --ratings)")
    p.add_argument("--ratings", help="seed ratings; replays Elo before fitting")
    p.add_argument("--teams", help="comma-separated team codes")
    p.add_argument("--fixtures", help="fixture CSV; models every team in it")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--gof-out", help="also write a chi-square diagnostics CSV")
    p.add_argument("--seed", type=int, default=0, help="fit seed (default 0)")
    _add_window(p)
    _add_config(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("forecast", help="exact-score grid for one match")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--team-a", required=True)
    p.add_argument("--team-b", required=True)
    p.add_argument("--venue", default="NEUTRAL", help="host country code (default NEUTRAL)")
    p.add_argument("--ratings", help="Elo ratings CSV")
    p.add_argument("--elo-a", type=float, help="override team A's Elo")
    p.add_argument("--elo-b", type=float, help="override team B's Elo")
    p.add_argument("--cap", type=int, help="grid size (default from config)")
    p.add_argument("--out", required=True, help="grid CSV to write")
    p.add_argument("--json-out", help="also write the grid as JSON")
    _add_config(p)
    p.set_defaults(handler=cmd_forecast)

    p = sub.add_parser("simulate", help="Monte Carlo tournament simulation")
    _add_simulation(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("validate", help="backtest a simulated tournament against reality")
    _add_simulation(p)
    p.add_argument("--results", required=True, help="realized ranks CSV")
    p.add_argument("--out", required=True, help="metrics report CSV")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("gof", help="print/export fit diagnostics from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gof)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileAccessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, DataError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
