"""The measured process of one benchmark run.

``run.py`` generates the inputs and then starts this script, so the
process measured here starts cold, as a CLI call does.  It imports the
package and loads every input file (set-up), runs whole rounds of the
workload until ``--seconds`` have passed (one round is the work of one
CLI call, or of ``fit`` plus ``validate`` for the backtest), with
``--trace 1`` splits that time between untraced and traced rounds,
checks the outputs, and prints one JSON object as its last line of
output.

With ``--setup-only`` it stops after set-up and prints the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "euroforecast" / "data"

SIM_RUNS_PER_ROUND = 400
BACKTEST_RUNS_PER_ROUND = 400
BACKTEST_WORKERS = 2
PREFIX_RUNS = 24
GRID_CAP = 15

TOURNAMENT, FIT, GRID = "tournaments", "teams_fitted", "grids"


def _no_trace(name, fn):
    return fn


def _no_span(name):
    return nullcontext()


def _cpu_s() -> tuple[float, float]:
    """(own, children) user plus system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Workload:
    """Set-up, one round and the output checks of one workload."""

    primary = ""  # the operation ops_per_s counts

    def __init__(self, ef, inputs: Path, out: Path):
        self.ef = ef
        self.inputs = inputs
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.phases = defaultdict(list)  # operation -> [(completed, seconds)] per call
        self.worker_cpu_s = 0.0
        self.fallbacks = 0

    def load(self, wrap=_no_trace):
        """Read and validate every input file; the set-up a CLI call pays."""
        raise NotImplementedError

    def round(self, r, wrap=_no_trace, span=_no_span):
        """The timed work of one CLI call; returns what the checks need."""
        raise NotImplementedError

    def checks(self, results) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result):
        """The part of a round's result that tracing must leave unchanged."""
        return result

    def rate(self, op) -> float:
        calls = self.phases.get(op)
        return sum(n for n, _ in calls) / sum(s for _, s in calls) if calls else 0.0

    def keep(self, r, result):
        """What of round ``r``'s result the checks need; the rest is dropped
        so that memory does not grow with the number of rounds."""
        return result

    def _loader(self, wrap):
        return lambda fn: wrap("data_io.load", fn)

    def _teams(self, fixtures):
        groups = self.ef.tournament.group_teams(fixtures)
        return sorted(t for ts in groups.values() for t in ts)

    def _monte_carlo(self, wrap, models, ratings, n_runs, seed, workers):
        """``monte_carlo`` as the CLI calls it; None when it fails."""
        ef = self.ef
        self.attempted += n_runs
        _, kids0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            agg = wrap("tournament.monte_carlo", ef.tournament.monte_carlo)(
                models, ratings, self.fixtures, self.allocation, n_runs=n_runs,
                master_seed=seed, n_workers=workers, k_factors=self.cfg.k_factors,
            )
        except (ef.ParameterError, ef.ConfigError, ef.DataError, ArithmeticError) as exc:
            print(f"monte_carlo failed: {exc}", file=sys.stderr)
            self.failed += n_runs
            return None
        self.phases[TOURNAMENT].append((n_runs, time.perf_counter() - t0))
        self.worker_cpu_s += _cpu_s()[1] - kids0
        return agg


class SimulateEuro2020(Workload):
    primary = TOURNAMENT

    def load(self, wrap=_no_trace):
        io, load = self.ef.data_io, self._loader(wrap)
        self.cfg = load(io.load_config)(DATA / "default_config.json")
        self.model_path = self.inputs / "models.json"
        self.models, _ = load(io.load_models)(self.model_path)
        self.fixtures = load(io.load_fixtures)(DATA / "euro2020_fixtures.csv")
        self.allocation = load(io.load_allocation)(DATA / "euro2020_allocation.csv")
        self.ratings = io.rating_table(load(io.load_ratings)(self.inputs / "ratings.csv"))

    def round(self, r, wrap=_no_trace, span=_no_span):
        ef, io = self.ef, self.ef.data_io
        export = lambda fn: wrap("data_io.export", fn)  # noqa: E731
        with span("cli.simulate"):
            agg = self._monte_carlo(wrap, self.models, self.ratings, SIM_RUNS_PER_ROUND, r, 1)
            if agg is None:
                return None
            self.out.mkdir(parents=True, exist_ok=True)
            manifest = {
                "command": "simulate", "seed": r, "n_runs": SIM_RUNS_PER_ROUND,
                "model_sha256": export(io.file_sha256)(self.model_path),
            }
            groups = ef.tournament.group_teams(self.fixtures)
            export(io.export_group_table)(
                self.out / "group_probabilities.csv", agg, groups, manifest
            )
            export(io.export_stage_table)(self.out / "stage_probabilities.csv", agg, manifest)
            export(io.export_stage_standard_errors)(
                self.out / "stage_standard_errors.csv", agg, manifest
            )
        return agg

    def fingerprint(self, result):
        import oracles

        return None if result is None else oracles.counts(result)

    def checks(self, results):
        return simulation_checks(self, self.models, self.ratings, SIM_RUNS_PER_ROUND, results)


class BacktestEuro2016(Workload):
    primary = TOURNAMENT

    def load(self, wrap=_no_trace):
        io, load = self.ef.data_io, self._loader(wrap)
        self.cfg = load(io.load_config)(self.inputs / "config.json")
        self.matches = load(io.load_matches)(self.inputs / "matches.csv")
        self.seed_ratings = load(io.load_ratings)(self.inputs / "ratings.csv")
        self.fixtures = load(io.load_fixtures)(DATA / "euro2016_fixtures.csv")
        self.allocation = load(io.load_allocation)(DATA / "euro2016_allocation.csv")
        self.ratings = io.rating_table(load(io.load_ratings)(DATA / "euro2016_ratings.csv"))
        self.realized = load(io.load_realized_results)(DATA / "euro2016_results.csv")
        self.teams = self._teams(self.fixtures)

    def _fit(self, wrap, seed_ratings, matches):
        """Elo replay and per-team fits, as ``euroforecast fit`` runs them."""
        ef = self.ef
        self.attempted += len(self.teams)
        t0 = time.perf_counter()
        annotated, _ = wrap("elo.replay_history", ef.elo.replay_history)(
            seed_ratings, matches, self.cfg.k_factors
        )
        fit_cfg = ef.FitConfig(
            weights=self.cfg.weight_config(), seed=0, min_nested_obs=self.cfg.min_nested_obs
        )
        summary = wrap("regression.fit_team_models", ef.fit_team_models)(
            annotated, self.teams, fit_cfg
        )
        self.phases[FIT].append((len(summary.models), time.perf_counter() - t0))
        # a FitError or InsufficientDataError is one failed team fit
        self.failed += len(self.teams) - len(summary.models)
        for team, reason in sorted(summary.failures.items()):
            print(f"fit failed for {team}: {reason}", file=sys.stderr)
        self.fallbacks = sum(m.nested_fallback for m in summary.models.values())
        return annotated, summary

    def round(self, r, wrap=_no_trace, span=_no_span):
        ef, io = self.ef, self.ef.data_io
        export = lambda fn: wrap("data_io.export", fn)  # noqa: E731
        model_path = self.out / "models.json"
        with span("cli.fit"):
            annotated, summary = self._fit(wrap, self.seed_ratings, self.matches)
            self.out.mkdir(parents=True, exist_ok=True)
            manifest = {"command": "fit", "reference_date": self.cfg.reference_date.isoformat()}
            export(io.save_models)(model_path, summary.models, manifest)
        self.models = summary.models
        with span("cli.validate"):
            agg = self._monte_carlo(
                wrap, summary.models, self.ratings, BACKTEST_RUNS_PER_ROUND, r, BACKTEST_WORKERS
            )
            if agg is None:
                return None
            dists = wrap("metrics.distributions_from_aggregate", ef.distributions_from_aggregate)(
                agg
            )
            report = wrap("metrics.score_report", ef.metrics.score_report)(dists, self.realized)
            manifest = {
                "command": "validate", "seed": r, "n_runs": BACKTEST_RUNS_PER_ROUND,
                "model_sha256": export(io.file_sha256)(model_path),
            }
            export(io.export_metrics_report)(self.out / "metrics.csv", report, manifest)
        return agg, report, annotated, summary, model_path.read_bytes()

    def keep(self, r, result):
        if r == 0 or result is None:
            return result
        agg, report, _, _, model_bytes = result
        return agg, report, None, None, model_bytes

    def fingerprint(self, result):
        import oracles

        return None if result is None else (oracles.counts(result[0]), result[1])

    def checks(self, results):
        import oracles

        io = self.ef.data_io
        errors = []
        if results[0] is not None:
            _, _, annotated, summary, model_bytes = results[0]
            errors += oracles.check_fit(summary, self.teams, annotated, self.cfg)
            models, metadata = io.load_models(self.out / "models.json")
            io.save_models(self.out / "models_roundtrip.json", models, metadata)
            if (self.out / "models_roundtrip.json").read_bytes() != model_bytes:
                errors.append("model file changes under a load and save round trip")
        if len({res[4] for res in results if res is not None}) > 1:
            errors.append("model files differ between rounds on the same inputs")
        for result in results:
            if result is not None:
                errors += oracles.check_scores(result[0], self.realized, result[1])
        aggs = [None if res is None else res[0] for res in results]
        return errors + simulation_checks(
            self, self.models, self.ratings, BACKTEST_RUNS_PER_ROUND, aggs
        )


class ForecastGrid(Workload):
    primary = GRID

    def load(self, wrap=_no_trace):
        io, load = self.ef.data_io, self._loader(wrap)
        self.cfg = load(io.load_config)(DATA / "default_config.json")
        self.model_path = self.inputs / "models.json"
        self.models, _ = load(io.load_models)(self.model_path)
        self.ratings = io.rating_table(load(io.load_ratings)(self.inputs / "ratings.csv"))
        teams = self._teams(load(io.load_fixtures)(DATA / "euro2020_fixtures.csv"))
        # every ordered pair, at a neutral venue and at each side's home
        self.cases = [
            (a, b, venue)
            for a in teams for b in teams if a != b for venue in ("NEUTRAL", a, b)
        ]

    def round(self, r, wrap=_no_trace, span=_no_span):
        ef = self.ef
        score_grid = wrap("forecast.score_grid", ef.score_grid)
        models, ratings = self.models, self.ratings
        grids = []
        with span("cli.forecast"):
            t0 = time.perf_counter()
            for a, b, venue in self.cases:
                try:
                    forecast = score_grid(
                        models[a], models[b], ratings[a], ratings[b],
                        venue_country=venue, cap=GRID_CAP,
                    )
                except (ef.ParameterError, ArithmeticError) as exc:
                    print(f"score_grid {a}-{b} at {venue} failed: {exc}", file=sys.stderr)
                    grids.append(None)
                    continue
                grids.append(forecast.grid)
            done = sum(g is not None for g in grids)
            self.phases[GRID].append((done, time.perf_counter() - t0))
        self.attempted += len(grids)
        self.failed += len(grids) - done
        return grids

    def keep(self, r, result):
        return result if r == 0 else None

    def fingerprint(self, result):
        return None if result is None else [None if g is None else g.tobytes() for g in result]

    def checks(self, results):
        import oracles

        doc = json.loads(self.model_path.read_text(encoding="utf-8"))
        kept = [(c, g) for c, g in zip(self.cases, results[0]) if g is not None]
        return oracles.check_grids(
            doc, self.ratings, [c for c, _ in kept], [g for _, g in kept], GRID_CAP
        )


def simulation_checks(w, models, ratings, n_runs, aggs) -> list[str]:
    """Invariants of every round, determinism, and worker-count independence."""
    import oracles

    errors = []
    for r, agg in enumerate(aggs):
        if agg is not None:
            errors += oracles.check_aggregate(agg, n_runs, f"round {r}")
    mc = w.ef.tournament.monte_carlo
    first, repeat, fanned = (
        oracles.counts(
            mc(models, ratings, w.fixtures, w.allocation, n_runs=PREFIX_RUNS,
               master_seed=0, n_workers=workers, k_factors=w.cfg.k_factors)
        )
        for workers in (1, 1, 2)
    )
    if first != repeat:
        errors.append("counts differ between repeats of the same seed")
    if first != fanned:
        errors.append("counts differ between 1 and 2 workers")
    return errors


WORKLOADS = {
    "simulate-euro2020": SimulateEuro2020,
    "backtest-euro2016": BacktestEuro2016,
    "forecast-grid": ForecastGrid,
}


def run_rounds(w, seconds, wrap=_no_trace, span=_no_span, end_round=None):
    """Whole rounds until ``seconds`` have passed: per-round wall, CPU, result.

    Round ``r`` simulates under master seed ``r``, so no two rounds of
    one phase repeat the same tournaments.
    """
    walls, cpus, results = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        own0, kids0 = _cpu_s()
        t0 = time.perf_counter()
        r = len(results)
        results.append(w.keep(r, w.round(r, wrap, span)))
        walls.append(time.perf_counter() - t0)
        own1, kids1 = _cpu_s()
        cpus.append(own1 - own0 + kids1 - kids0)
        if end_round is not None:
            end_round()
        if time.perf_counter() >= deadline:
            return walls, cpus, results


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


SELF_TIMES = (
    "zigp.sample", "zigp.pmf_values", "forecast.sample_match", "forecast.params",
    "forecast.score_grid", "tournament.run_tournament", "tournament.run_rng",
    "tournament.rank_group", "tournament.select_best_thirds",
    "tournament.simulate_knockout_match", "elo.update_pair", "elo.replay_history",
    "regression.fit_zigp", "regression.loglik_and_grad", "regression.build_observations",
    "regression.chi_square_gof", "data_io.export", "metrics.score_report",
)
CALL_COUNTS = (
    "zigp.sample", "zigp.pmf_values", "forecast.sample_match", "forecast.score_grid",
    "tournament.run_tournament", "tournament.rank_group",
    "tournament.simulate_knockout_match", "elo.update_pair", "weights.match_weight",
    "regression.fit_zigp", "regression.loglik_and_grad",
)


def traced_metrics(w, seconds, untraced_walls, untraced_results):
    """Per-layer metrics from rounds run under tracing, per round.

    Rounds reuse the untraced rounds' seeds, so the traced outputs must
    equal the untraced ones and the overhead compares the same work.
    Throughputs and worker CPU come from the untraced rounds.
    """
    import euroforecast.zigp as zigp
    from tracing import LAYERS, Tracer

    worker_cpu_s = w.worker_cpu_s / len(untraced_walls)
    rates = {f"{op}_per_s": w.rate(op) for op in (TOURNAMENT, FIT, GRID)}
    tracer = Tracer()
    cache = getattr(zigp, "_truncated_table", None)
    tracer.install()
    try:
        w.load(tracer.wrap)
        load_s = tracer.self_times()[0].get("data_io.load", 0.0)
        tracer.spans.clear()
        info0 = cache.cache_info() if hasattr(cache, "cache_info") else None
        walls, _, results = run_rounds(w, seconds, tracer.wrap, tracer.span, tracer.end_round)
        info1 = cache.cache_info() if info0 is not None else None
    finally:
        tracer.uninstall()

    errors = [
        f"round {r}: tracing changed the outputs"
        for r, (a, b) in enumerate(zip(untraced_results, results))
        if w.fingerprint(a) != w.fingerprint(b)
    ]
    n = len(walls)
    self_s, calls = tracer.self_times()
    m = {f"{name}.calls": calls[name] / n for name in CALL_COUNTS}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) / n for name in SELF_TIMES})
    m["data_io.load.self_s"] = load_s
    m["zigp.sample.distinct_params"] = statistics.fmean(tracer.distinct_params_per_round)
    hits = misses = 0
    if info0 is not None:
        hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
    m["zigp.table_builds"] = misses / n
    m["zigp.table_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["tournament.extra_time_matches"] = tracer.counters["tournament.extra_time_matches"] / n
    m["tournament.shootouts"] = tracer.counters["tournament.shootouts"] / n
    fanned_out = isinstance(w, BacktestEuro2016)
    m["tournament.monte_carlo.wait_s"] = (
        self_s.get("tournament.monte_carlo", 0.0) / n if fanned_out else 0.0
    )
    m["tournament.monte_carlo.worker_cpu_s"] = worker_cpu_s
    m["regression.nested_fallbacks"] = float(w.fallbacks)
    m.update(rates)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, s in self_s.items():
        layer_s[name.split(".", 1)[0]] += s
    for layer, s in layer_s.items():
        m[f"layer.{layer}.self_s"] = s / n
    m["trace.run_s"] = statistics.fmean(walls)
    m["trace.untraced_run_s"] = statistics.fmean(untraced_walls)
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    m["trace.unattributed_s"] = m["trace.run_s"] - sum(layer_s.values()) / n
    m["trace.rounds"] = float(n)
    return m, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import euroforecast as ef
    import euroforecast.data_io  # noqa: F401  (not imported by the package itself)

    w = WORKLOADS[args.workload](ef, args.inputs, args.out)
    w.load()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    walls, cpus, results = run_rounds(w, seconds)
    print(f"round wall s: {' '.join(f'{x:.4f}' for x in walls)}", file=sys.stderr)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.fmean(walls),
        "ops_per_s": w.rate(w.primary),
        "cpu_s": statistics.fmean(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }
    errors = []
    if args.trace:
        metrics, errors = traced_metrics(w, seconds, walls, results)
    errors += w.checks(results)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
