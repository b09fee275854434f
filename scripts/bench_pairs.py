#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against a change.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 1-12 --seconds 25 --out BENCH_7.json

Exports both commits' files (``git archive``) into fresh temporary
directories and runs ``bench/run.py --trace 0`` of each on the same
workload and seed, one pair per seed, for every workload that
``BENCHMARK.json`` lists.  The order alternates: the parent goes first
in even pairs, the change in odd ones, so a drift in machine load
favours neither side.  It then runs the tier-1 suite once per side with
``pytest --durations=0`` and records the suite time and the times of
acceptance criteria 6 and 7.

The JSON file written to ``--out`` holds, per workload and end-to-end
metric, every pair's two values, both sides' medians and quartiles, in
how many pairs the change was better, the change/parent ratio of the
medians and ``beyond_bound``: whether the change is worse by more than
the metric's bound in ``BENCHMARK.json``; plus both commit ids, both
sides' ``src/**/*.py`` line counts, each side's cold start (the wall
time of a fresh interpreter running ``import euroforecast.cli``, 10
runs per side, alternating, after one run that writes the bytecode
caches) and the machine (CPUs, library versions, BLAS thread settings).
One line on stderr lists the metrics beyond their bounds.
"""

from __future__ import annotations

import argparse
import datetime as dt
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CRITERIA = ("test_criterion_6_simulation_invariants", "test_criterion_7_sampler_matches_grid")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export(commit: str, into: Path) -> Path:
    """The committed files of ``commit`` in a new directory under ``into``."""
    tree = Path(tempfile.mkdtemp(prefix=f"{commit[:10]}-", dir=into))
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, stdout=subprocess.PIPE
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def src_lines(tree: Path) -> int:
    """Lines of the package sources, ``src/**/*.py``."""
    return sum(len(p.read_bytes().splitlines()) for p in tree.glob("src/**/*.py"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench/run.py failed in {tree} ({workload}, seed {seed})")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def tier1_times(tree: Path) -> dict:
    """Wall time of the tier-1 suite and of criteria 6 and 7, from one run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
    )
    times = {"suite_s": round(time.perf_counter() - start, 2)}
    for name in CRITERIA:
        found = re.search(rf"^([\d.]+)s call .*::{name}$", proc.stdout, re.MULTILINE)
        times[name] = float(found.group(1)) if found else None
    summary = [line for line in proc.stdout.splitlines() if " passed" in line or " failed" in line]
    times["summary"] = summary[-1].strip("= ") if summary else f"exit code {proc.returncode}"
    return times


def cold_imports(trees: dict[str, Path], runs: int = 10) -> dict:
    """Each side's wall times of ``import euroforecast.cli`` in fresh interpreters."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    for i in range(runs + 1):
        for side in sorted(trees, reverse=i % 2 == 1):
            env = dict(os.environ, PYTHONPATH=str(trees[side] / "src"), OPENBLAS_NUM_THREADS="1")
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import euroforecast.cli"],
                           cwd=trees[side], env=env, check=True)
            if i:  # the first run writes the bytecode caches
                times[side].append(round(time.perf_counter() - start, 4))
    return {side: {"median_s": statistics.median(t), "runs_s": t} for side, t in times.items()}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratio = statistics.median(change) / statistics.median(parent)
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": f"{wins} of {len(pairs)}",
            "ratio": round(ratio, 4),
            "beyond_bound": (ratio - 1.0 if lower else 1.0 - ratio) > metric["bound"],
        }
    return out


def machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "processor": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "note": "bench/run.py sets OPENBLAS_NUM_THREADS=1 for every measured process",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD~1", help="parent ref (default HEAD~1)")
    parser.add_argument("--change", default="HEAD", help="change ref (default HEAD)")
    parser.add_argument("--seeds", default="1-10", help="one pair per seed, e.g. 1-10 or 3,12")
    parser.add_argument("--seconds", type=int, default=25, help="--seconds of each run")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)

    commits = {side: git("rev-parse", ref) for side, ref in
               (("parent", args.parent), ("change", args.change))}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = benchmark["end_to_end"]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("--seeds must give at least two pairs, to have quartiles")
    report = {
        "date": dt.datetime.now(dt.timezone.utc).isoformat(timespec="seconds"),
        "commits": commits,
        "machine": machine(),
        "seconds": args.seconds,
        "workloads": {},
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(commit, scratch) for side, commit in commits.items()}
        report["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        report["cold_import"] = cold_imports(trees)
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench_run(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
                pairs.append(pair)
            report["workloads"][workload] = {
                "summary": summarize(pairs, spec),
                "all_correct": all(p[s]["correct"] for p in pairs for s in commits),
                "failed": sum(p[s]["failed"] for p in pairs for s in commits),
                "pairs": pairs,
            }
        report["tier1"] = {side: tier1_times(tree) for side, tree in trees.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    beyond = [f"{workload} {name}" for workload, result in report["workloads"].items()
              for name, metric in result["summary"].items() if metric["beyond_bound"]]
    print(f"beyond bound: {', '.join(beyond) or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
