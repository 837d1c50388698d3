"""Benchmark of the eulerian library and CLI (standard library only).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each was chosen):

* verify-default: `eulerian verify <suite> --format json` at default budgets
  for chapter1, chapter2, series and chapter5, one fresh process per suite;
* series-deep: seven high-order exact queries through the CLI, one fresh
  process per query;
* word-queries: a seeded stream of single small-input library calls in one
  long-lived process.

A workload repeats whole passes for about --seconds (at least one pass) and
reports medians over passes. Every output is checked against the
benchmark's own oracles; wrong answers, crashes and nonzero exits count as
failed. --trace 1 instead runs the per-layer microbenchmarks and a traced and
an untraced run of each workload's reduced job, and reports the per-layer
metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PY = sys.executable

SUITES = ("chapter1", "chapter2", "series", "chapter5")
# checks per suite at the seed commit: a later commit may add checks, never drop them
SEED_CHECKS = {"chapter1": 192, "chapter2": 371, "series": 43, "chapter5": 33}
SETUP_SPAWNS = 31
# the whole run must end within 180 s; children get what is left of this
DEADLINE_S = 170.0
T0 = time.perf_counter()


class OutOfTime(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(HERE)))
    return env


def run_child(argv: list[str]) -> tuple[float, int, str]:
    """Run a child to completion; returns (wall seconds, exit code, stdout).
    A child that outlives the deadline is killed and reported as code -9."""
    remaining = DEADLINE_S - (time.perf_counter() - T0)
    if remaining < 1:
        raise OutOfTime(" ".join(argv))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -9, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def setup_samples(count: int) -> list[float]:
    """Wall times of fresh interpreters that import eulerian.cli and exit."""
    argv = [PY, "-c", "import eulerian.cli"]
    times = []
    for _ in range(count):
        wall, code, _ = run_child(argv)
        if code != 0:
            raise SystemExit("error: `import eulerian.cli` fails in this checkout")
        times.append(wall)
    return times


def passes(seconds: float):
    """Yield pass numbers while another pass of average length still ends
    within `seconds`; there is always at least one pass."""
    start = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - start) * (n + 1) / n <= seconds:
        yield n
        n += 1


# -- workloads ------------------------------------------------------------------


def verify_outcome(suite: str, code: int, out: str) -> tuple[int, int, float | None]:
    """(checks attempted, checks failed, the report's own elapsed time).

    A run that printed no report counts every seed check as failed; fewer
    checks than the seed had count the missing ones as failed."""
    try:
        payload = last_json(out)
        results = payload["results"]
    except (ValueError, TypeError, KeyError):
        return SEED_CHECKS[suite], SEED_CHECKS[suite], None
    bad = sum(1 for r in results if not r["ok"])
    if code != 0 and bad == 0:
        bad = 1
    short = max(0, SEED_CHECKS[suite] - len(results))
    return len(results) + short, bad + short, payload.get("elapsed")


def workload_verify(rng: random.Random, seconds: float, setup: float) -> dict:
    walls = {s: [] for s in SUITES}
    reported = {s: [] for s in SUITES}
    pass_walls = []
    attempted = failed = 0
    for _ in passes(seconds):
        order = list(SUITES)
        rng.shuffle(order)
        total = 0.0
        for suite in order:
            wall, code, out = run_child([PY, "-m", "eulerian.cli", "verify", suite, "--format", "json"])
            tried, bad, elapsed = verify_outcome(suite, code, out)
            attempted += tried
            failed += bad
            walls[suite].append(wall)
            if elapsed is not None:
                reported[suite].append(elapsed)
            total += wall
        pass_walls.append(total)
    samples = [w for ws in walls.values() for w in ws]
    detail = {f"verify.{s}_s": statistics.median(walls[s]) for s in SUITES}
    detail.update({f"verify.{s}_reported_s": statistics.median(reported[s]) for s in SUITES if reported[s]})
    if reported["series"]:
        # what the series report leaves out, besides interpreter start and import
        detail["verify.series_untimed_s"] = detail["verify.series_s"] - detail["verify.series_reported_s"] - setup
    detail["passes"] = len(pass_walls)
    detail["latency_samples"] = len(samples)
    return {
        "wall_s": statistics.median(pass_walls),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p99_ms": p99(samples) * 1e3,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
    }


def workload_deep(rng: random.Random, seconds: float, setup: float) -> dict:
    import deep

    for query in deep.QUERIES.values():
        deep.expected(query)  # fill the oracle caches before timing
    walls = {name: [] for name in deep.QUERIES}
    pass_walls = []
    attempted = failed = 0
    for _ in passes(seconds):
        order = list(deep.QUERIES.items())
        rng.shuffle(order)
        total = 0.0
        for name, query in order:
            wall, code, out = run_child([PY, "-m", "eulerian.cli", *query, "--format", "json"])
            attempted += 1
            failed += not (code == 0 and deep.check(query, out))
            walls[name].append(wall)
            total += wall
        pass_walls.append(total)
    samples = [w for ws in walls.values() for w in ws]

    def median_sum(*names):
        return statistics.median(map(sum, zip(*(walls[n] for n in names))))

    detail = {
        "deep.tan_sec_s": median_sum("tan", "sec"),
        "deep.closed_egf_s": median_sum("classical_egf", "derangement_egf"),
    }
    detail.update({f"deep.{name}_s": statistics.median(w) for name, w in walls.items()})
    detail["passes"] = len(pass_walls)
    detail["latency_samples"] = len(samples)
    return {
        "wall_s": statistics.median(pass_walls),
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p99_ms": p99(samples) * 1e3,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
    }


def workload_words(rng: random.Random, seconds: float, setup: float) -> dict:
    import stream

    seed = rng.randrange(2**31)
    by_group: dict[str, list[int]] = {group: [] for group in stream.GROUPS}
    pass_walls = []
    attempted = failed = 0
    repeat = None
    failures = []
    peak_kb = 0
    for _ in passes(seconds):
        _, code, out = run_child([PY, str(HERE / "stream.py"), "--seed", str(seed)])
        try:
            result = last_json(out)
            lat = result["latencies_ns"]
            calls = sum(map(len, lat.values()))
        except (ValueError, TypeError, KeyError, AttributeError):
            attempted += stream.STREAM_COUNT
            failed += stream.STREAM_COUNT
            continue
        attempted += calls
        failed += result["failed"] + (code != 0)
        failures += result["failures"]
        for group, values in lat.items():
            by_group[group] += values
        pass_walls.append(sum(map(sum, lat.values())) / 1e9)
        repeat = result["repeat_share"]
        peak_kb = max(peak_kb, result["peak_rss_kb"])
    latencies = [v for values in by_group.values() for v in values]
    if not latencies:
        raise SystemExit("error: the word-queries stream produced no result")
    detail = {
        "stream_seed": seed,
        "stream_calls": stream.STREAM_COUNT,
        "repeat_share": repeat,
        "latency_p50_us": statistics.median(latencies) / 1e3,
        "latency_p99_us": p99(latencies) / 1e3,
        "latency_samples": len(latencies),
        "passes": len(pass_walls),
    }
    for group, values in by_group.items():
        if values:
            detail[f"latency_p50_us.{group}"] = statistics.median(values) / 1e3
            detail[f"latency_p99_us.{group}"] = p99(values) / 1e3
            detail[f"latency_samples.{group}"] = len(values)
    if failures:
        detail["first_failures"] = failures[:5]
    return {
        "wall_s": statistics.median(pass_walls),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p99_ms": p99(latencies) / 1e6,
        # as the stream process measured it before serialising its latencies,
        # which would otherwise add a varying megabyte or two
        "peak_rss_mb": peak_kb / 1024,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
    }


WORKLOADS = {
    "verify-default": workload_verify,
    "series-deep": workload_deep,
    "word-queries": workload_words,
}


def run_timed(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    rng = random.Random(seed)
    setup_samples(3)  # untimed: writes the bytecode cache, wakes the CPU
    # half the set-up samples before the workload and half after, so that a
    # passing burst of load on the machine skews fewer of them
    before = setup_samples(SETUP_SPAWNS // 2)
    result = WORKLOADS[workload](rng, seconds, statistics.median(before))
    setup = statistics.median(before + setup_samples(SETUP_SPAWNS - len(before)))
    metrics = {
        "setup_s": setup,
        "wall_s": result["wall_s"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_p99_ms": result["latency_p99_ms"],
        "peak_rss_mb": result.get("peak_rss_mb") or peak_rss_mb(),
    }
    return metrics, result["attempted"], result["failed"], result["detail"]


# -- traced run -------------------------------------------------------------------


def run_traced(seed: int) -> tuple[dict, int, int, dict]:
    """Microbenchmarks of every layer, then each workload's reduced job once
    untraced and once traced, each in a fresh process."""
    import layers
    import tracer

    metrics: dict[str, float] = {}
    attempted = failed = 0
    detail: dict = {}
    for group in layers.GROUPS:
        _, code, out = run_child([PY, str(HERE / "layers.py"), group])
        try:
            result = last_json(out)
            metrics.update(result["metrics"])
            attempted += len(result["metrics"])
            failed += len(result["failed"]) + (code != 0)
            if result["failed"]:
                detail.setdefault("failed_layers", []).extend(result["failed"])
        except (ValueError, TypeError, KeyError):
            attempted += 1
            failed += 1
            detail.setdefault("failed_layers", []).append(group)
    for workload in WORKLOADS:
        runs = {}
        for traced in (0, 1):
            argv = [PY, str(HERE / "tracer.py"), "--job", workload, "--seed", str(seed), "--traced", str(traced)]
            _, code, out = run_child(argv)
            try:
                runs[traced] = last_json(out)
                attempted += runs[traced]["ops"]
                failed += runs[traced]["failed"] + (code != 0)
            except (ValueError, TypeError, KeyError):
                attempted += 1
                failed += 1
        if len(runs) < 2:
            continue
        base, traced_run = runs[0], runs[1]
        prefix = f"trace.{workload}"
        for module, values in traced_run["modules"].items():
            metrics[f"{prefix}.{module}.self_s"] = values["self_s"]
            metrics[f"{prefix}.{module}.calls"] = values["calls"]
        metrics[f"{prefix}.overhead_s"] = traced_run["wall_s"] - base["wall_s"]
        metrics[f"{prefix}.peak_rss_mb"] = traced_run["peak_rss_mb"]
        detail[f"{prefix}.untraced_wall_s"] = base["wall_s"]
        detail[f"{prefix}.traced_wall_s"] = traced_run["wall_s"]
        detail[f"{prefix}.spans"] = traced_run["spans"]
        detail[f"{prefix}.wrapped_functions"] = traced_run["wrapped"]
    detail["verify_budget"] = " ".join(tracer.VERIFY_BUDGET)
    detail["series_untimed_budget"] = layers.UNTIMED_BUDGET
    return metrics, attempted, failed, detail


# -- entry point --------------------------------------------------------------------


def environment() -> dict:
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src" / "eulerian").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the eulerian library and CLI.")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eulerian" / "cli.py").is_file():
        print("error: run from the root of an eulerian checkout (src/eulerian is missing)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        if args.trace:
            produced, attempted, failed, detail = run_traced(args.seed)
            wanted = spec["per_layer"]
        else:
            produced, attempted, failed, detail = run_timed(args.workload, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    except OutOfTime as exc:
        print(f"error: out of time before: {exc}", file=sys.stderr)
        return 3

    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        failed += len(missing)
        detail["missing_metrics"] = missing
    metrics = {
        m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in produced
    }
    detail.update(environment())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
