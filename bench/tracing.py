"""In-memory span tracing for the benchmark's traced run.

Functions are wrapped at their call sites: the wrapper replaces the
name in the module that calls it (``euroforecast.tournament.sample_match``
wraps every ``sample_match`` call the tournament makes), so the package
itself is not edited.  Each call records a span (name, start, end,
parent); self times are derived once, after the run, as each span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = (
    "cli",
    "data_io",
    "elo",
    "weights",
    "regression",
    "zigp",
    "forecast",
    "tournament",
    "metrics",
)

# (span name, calling module, attribute patched in that module).
# A site whose attribute no longer exists is skipped, so the traced run
# keeps working when the package is refactored; its counts then read 0.
CALL_SITES = (
    ("zigp.sample", "euroforecast.forecast", "sample"),
    ("zigp.pmf_values", "euroforecast.forecast", "pmf_values"),
    ("zigp.pmf_values", "euroforecast.zigp", "pmf_values"),
    ("forecast.params", "euroforecast.forecast", "combined_params"),
    ("forecast.params", "euroforecast.forecast", "conditional_params"),
    ("forecast.sample_match", "euroforecast.tournament", "sample_match"),
    ("tournament.run_tournament", "euroforecast.tournament", "run_tournament"),
    ("tournament.run_rng", "euroforecast.tournament", "run_rng"),
    ("tournament.rank_group", "euroforecast.tournament", "rank_group"),
    ("tournament.select_best_thirds", "euroforecast.tournament", "select_best_thirds"),
    (
        "tournament.simulate_knockout_match",
        "euroforecast.tournament",
        "simulate_knockout_match",
    ),
    ("elo.update_pair", "euroforecast.elo", "update_pair"),
    ("weights.match_weight", "euroforecast.regression", "match_weight"),
    ("regression.fit_zigp", "euroforecast.regression", "fit_zigp"),
    ("regression.loglik_and_grad", "euroforecast.regression", "loglik_and_grad"),
    ("regression.build_observations", "euroforecast.regression", "build_attack_observations"),
    ("regression.build_observations", "euroforecast.regression", "build_defense_observations"),
    ("regression.build_observations", "euroforecast.regression", "build_nested_observations"),
    ("regression.chi_square_gof", "euroforecast.regression", "chi_square_gof"),
)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.sampled_params: set = set()
        self.distinct_params_per_round: list[int] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped so every call records a span named ``name``.

        ``observe(args, kwargs, result)`` runs after the span closes; its
        cost lands in the caller's self time, as tracing overhead.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- observers for the per-layer counters ----------------------------

    def _observe_sample(self, args, kwargs, result):
        params = args[0] if args else kwargs.get("params")
        self.sampled_params.add((params.mu, params.phi, params.omega))

    def _observe_sample_match(self, args, kwargs, result):
        mu_factor = kwargs.get("mu_factor", args[6] if len(args) > 6 else 1.0)
        if mu_factor != 1.0:
            self.counters["tournament.extra_time_matches"] += 1

    def _observe_knockout(self, args, kwargs, result):
        if result[2]:
            self.counters["tournament.shootouts"] += 1

    def end_round(self):
        self.distinct_params_per_round.append(len(self.sampled_params))
        self.sampled_params = set()

    # -- installation ----------------------------------------------------

    def install(self):
        observers = {
            "zigp.sample": self._observe_sample,
            "forecast.sample_match": self._observe_sample_match,
            "tournament.simulate_knockout_match": self._observe_knockout,
        }
        for name, module_name, attr in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observers.get(name)))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- report ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
            calls[name] += 1
        return self_s, calls
