"""Span recording around the public functions of the ``eulerian`` modules,
installed from outside the package, and the traced jobs of each workload.

Every public function of a module, and every public method or arithmetic
operator of a class defined there, is replaced by a wrapper; every module
namespace that imported the original gets the wrapper too, and so does every
module-level dict that holds it as a value. Per-permutation
kernels run millions of times, so each wrapped function only adds to its
call count, total time and self time. Individual spans (name, start, end,
parent) are kept only down to the check level of a verify suite and the
call level of a stream query.

Run as a script it executes one job, traced or not, and prints a JSON
summary:

    PYTHONPATH=src python3 perfbench/tracer.py --job word-queries --seed 1 --traced 1
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import resource
import sys
import time
import types

MODULES = ("permutations", "transforms", "endofunctions", "polynomials", "series", "words", "cli")
OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__", "__truediv__")
)

# reduced sizes that keep a traced job within seconds
VERIFY_BUDGET = ("--max-n", "7", "--order", "7", "--fn-scan-max", "6")
DEEP_QUERIES = (
    ("series", "tan", "--order", "30"),
    ("series", "sec", "--order", "30"),
    ("series", "classical-egf", "--order", "24"),
    ("series", "derangement-egf", "--order", "24", "--t", "2"),
    ("poly", "eulerian", "-n", "400", "-r", "1"),
    ("poly", "eulerian", "-n", "300", "-r", "3"),
    ("tables", "euler-numbers"),
)
TRACED_STREAM_COUNT = 6000


class Recorder:
    """Aggregates per function: [calls, total_ns, self_ns]. Keeps individual
    spans only down to `keep_depth` below the job units opened with `unit`."""

    def __init__(self, keep_depth: int):
        self.keep_depth = keep_depth
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.stack: list[list] = []  # frames: [span id or 0, start_ns, child_ns]
        self.next_id = 1
        self.active = True

    def _push(self, keep: bool) -> list:
        frame = [0, time.perf_counter_ns(), 0]
        if keep and len(self.stack) <= self.keep_depth:
            frame[0] = self.next_id
            self.next_id += 1
        self.stack.append(frame)
        return frame

    def _pop(self, name: str, frame: list) -> int:
        end = time.perf_counter_ns()
        self.stack.pop()
        elapsed = end - frame[1]
        if self.stack:
            self.stack[-1][2] += elapsed
        if frame[0]:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((frame[0], name, frame[1], end, parent))
        return elapsed

    def wrap(self, name: str, fn):
        entry = self.stats.setdefault(name, [0, 0, 0])
        rec = self

        if inspect.isgeneratorfunction(fn):
            # time every resumption, so the work of producing each item is
            # charged to the generator and not to its consumer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                entry[0] += 1
                while True:
                    if not rec.active:
                        yield from gen
                        return
                    frame = rec._push(False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        elapsed = rec._pop(name, frame)
                        entry[1] += elapsed
                        entry[2] += elapsed - frame[2]
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            frame = rec._push(True)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = rec._pop(name, frame)
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[2]

        return wrapper

    @contextlib.contextmanager
    def unit(self, name: str):
        """A job unit: a kept root span."""
        frame = self._push(True)
        try:
            yield
        finally:
            self._pop(name, frame)

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def by_module(self) -> dict[str, dict[str, float]]:
        out = {m: {"self_s": 0.0, "calls": 0} for m in MODULES}
        for name, (calls, _total, self_ns) in self.stats.items():
            mod = out[name.split(".", 1)[0]]
            mod["calls"] += calls
            mod["self_s"] += self_ns / 1e9
        return out


def install(rec: Recorder) -> int:
    """Wrap the public functions and methods of every module; returns how
    many were wrapped."""
    mods = {m: importlib.import_module(f"eulerian.{m}") for m in MODULES}
    wrapped: dict[types.FunctionType, object] = {}
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                wrapped[obj] = rec.wrap(f"{short}.{name}", obj)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if isinstance(member, types.FunctionType) and (
                        not attr.startswith("_") or attr in OPERATORS
                    ):
                        setattr(obj, attr, rec.wrap(f"{short}.{name}.{attr}", member))
    for mod in list(mods.values()) + [importlib.import_module("eulerian")]:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                # dispatch tables, such as the CLI's statistics and maps
                for key, value in list(obj.items()):
                    if isinstance(value, types.FunctionType) and value in wrapped:
                        obj[key] = wrapped[value]
    return len(wrapped)


# -- jobs ---------------------------------------------------------------------


def _timed_cli(cli, rec: Recorder | None, argv: list[str]) -> tuple[int, int, str]:
    """(wall_ns, exit code, stdout) of one in-process CLI call, which is a
    job unit under a tracer."""
    buf = io.StringIO()
    start = time.perf_counter_ns()
    with rec.unit(" ".join(argv)) if rec else contextlib.nullcontext():
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # a crash counts as a failed unit
            code = -1
    return time.perf_counter_ns() - start, code, buf.getvalue()


def job_verify(rec: Recorder | None) -> tuple[int, int, int]:
    """The four suites at reduced budgets; returns (wall_ns, ops, failed)."""
    from eulerian import cli

    wall = ops = failed = 0
    for suite in ("chapter1", "chapter2", "series", "chapter5"):
        ns, code, text = _timed_cli(cli, rec, ["verify", suite, *VERIFY_BUDGET, "--format", "json"])
        wall += ns
        try:
            results = json.loads(text)["results"]
        except (ValueError, KeyError):
            ops += 1
            failed += 1
            continue
        bad = sum(1 for r in results if not r["ok"])
        ops += len(results)
        failed += bad or code != 0
    return wall, ops, failed


def job_deep(rec: Recorder | None) -> tuple[int, int, int]:
    """The series-deep queries at reduced orders, in one process."""
    from eulerian import cli

    import deep

    wall = failed = 0
    for query in DEEP_QUERIES:
        ns, code, text = _timed_cli(cli, rec, [*query, "--format", "json"])
        wall += ns
        failed += not (code == 0 and deep.check(query, text))
    return wall, len(DEEP_QUERIES), failed


def job_stream(rec: Recorder | None, seed: int) -> tuple[int, int, int]:
    import stream

    queries = stream.make_stream(seed, TRACED_STREAM_COUNT)
    library = stream.Library()
    if rec is None:
        out = stream.run_stream(queries, library)
    else:
        out = stream.run_stream(queries, library, unit=rec.unit, pause=rec.paused)
    return sum(map(sum, out["latencies_ns"].values())), len(queries), out["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one job, traced or not.")
    parser.add_argument("--job", choices=("verify-default", "series-deep", "word-queries"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # keep spans down to the checks of a suite (unit, main, run_verification,
    # check) and to the library calls of a query
    keep = {"verify-default": 3, "series-deep": 2, "word-queries": 1}[args.job]
    rec = Recorder(keep) if args.traced else None
    wrapped = install(rec) if rec else 0
    if args.job == "verify-default":
        wall, ops, failed = job_verify(rec)
    elif args.job == "series-deep":
        wall, ops, failed = job_deep(rec)
    else:
        wall, ops, failed = job_stream(rec, args.seed)
    out = {
        "wall_s": wall / 1e9,
        "ops": ops,
        "failed": failed,
        "wrapped": wrapped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec:
        out["modules"] = rec.by_module()
        out["spans"] = len(rec.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
