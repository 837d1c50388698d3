"""The word-queries stream: single small-input calls into the library
functions behind the ``stat``, ``map``, ``poly``, ``series`` and ``tables``
subcommands, made one after another in one process.

Run as a script it executes one stream and prints a JSON summary:

    PYTHONPATH=src python3 perfbench/stream.py --seed 1
"""
from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from fractions import Fraction

import oracles

STREAM_COUNT = 12000
MAP_NAMES = ("fundamental", "fundamental-inverse", "tilde", "check", "bar", "prime", "double-prime", "rotate")
POLY_ARGS = {
    "eulerian": [(n, r) for n in range(1, 61) for r in range(1, min(n, 4) + 1)],
    "roselle": [(n, 1) for n in range(1, 8)],
    "injection": [(n, r) for n in range(1, 8) for r in range(1, min(n, 3) + 1)],
}
SERIES_KINDS = ("tan", "sec", "classical-egf", "derangement-egf")
SERIES_ARGS = [(order, t) for order in range(2, 15) for t in (-1, 2, 3)]
# No record of how the CLI is used exists to weight the mix by, so every
# command form the stream stands for is equally likely: each statistic of
# `stat`, each map of `map`, each family of `poly`, each kind of `series`,
# `tables euler-numbers`, and valley_word, which no subcommand calls.
FORMS = (
    [("stat", name) for name in oracles.STATS]
    + [("map", name) for name in MAP_NAMES]
    + [("valley", None)]
    + [("poly", family) for family in POLY_ARGS]
    + [("series", which) for which in SERIES_KINDS]
    + [("tables", "euler-numbers")]
)
GROUPS = ("stat", "map", "valley", "poly", "series", "tables")


def _word(rng: random.Random, n: int, first=None, last=None) -> str:
    rest = [v for v in range(1, n + 1) if v not in (first, last)]
    rng.shuffle(rest)
    word = ([first] if first else []) + rest + ([last] if last else [])
    return " ".join(map(str, word))


def make_stream(seed: int, count: int = STREAM_COUNT) -> list[tuple]:
    """The seeded list of queries; each is a tuple (group, *arguments).

    Options and arguments cycle through their whole range in a fixed order,
    so the multiset of costly queries does not depend on the seed; the seed
    picks the words and the order in which the queries arrive.
    """
    rng = random.Random(seed)
    out = []
    for f, (group, option) in enumerate(FORMS):
        share = count // len(FORMS) + (f < count % len(FORMS))
        for i in range(share):
            n = 4 + i % 9  # word sizes 4..12
            if group == "stat":
                out.append((group, option, _word(rng, n)))
            elif group == "map":
                word = _word(rng, n, last=1) if option == "prime" else _word(rng, n)
                out.append((group, option, word, 1 + i % (n - 1)))
            elif group == "valley":
                out.append((group, _word(rng, n, first=n)))
            elif group == "poly":
                grid = POLY_ARGS[option]
                out.append((group, option) + grid[i % len(grid)])
            elif group == "series":
                out.append((group, option) + SERIES_ARGS[i % len(SERIES_ARGS)])
            else:
                out.append((group, option))
    rng.shuffle(out)
    return out


def repeat_share(stream: list[tuple]) -> float:
    """Share of queries that repeat an earlier (function, arguments) pair."""
    return 1 - len(set(stream)) / len(stream)


class Library:
    """Calls the library as the CLI subcommands do: statistics and maps
    through the CLI's own dispatch tables, polynomials through its
    ``_poly_for``. Everything is looked up at call time, so a tracer
    installed after import sees every call."""

    def __init__(self):
        from eulerian import cli, series, transforms, words

        self.cli, self.ser, self.tr, self.words = cli, series, transforms, words

    def call(self, q: tuple):
        kind, cli = q[0], self.cli
        if kind == "stat":
            return cli._STATS[q[1]](cli.parse_permutation(q[2]))
        if kind == "map":
            p = cli.parse_permutation(q[2])
            if q[1] == "rotate":
                return self.tr.word_rotate(p, q[3])
            return cli._MAPS[q[1]](p)
        if kind == "valley":
            return self.words.valley_word(cli.parse_permutation(q[1]))
        if kind == "poly":
            return cli._poly_for(*q[1:])
        if kind == "series":
            which, order, t = q[1:]
            if which == "tan":
                return self.ser.tangent_secant_series(order)[0]
            if which == "sec":
                return self.ser.tangent_secant_series(order)[1]
            if which == "classical-egf":
                return self.ser.classical_egf_closed_form(order).substitute(Fraction(t))
            return self.ser.roselle_egf_closed_form(order).substitute(Fraction(t))
        return self.words.euler_numbers(14)

    def check(self, q: tuple, result) -> bool:
        """Compare a result with the oracles."""
        kind = q[0]
        if kind in ("stat", "map", "valley"):
            p = tuple(int(x) for x in q[2 if kind != "valley" else 1].split())
        if kind == "stat":
            want = oracles.STATS[q[1]](p)
            return (tuple(result) if isinstance(want, tuple) else result) == want
        if kind == "map":
            return self._check_map(q[1], p, tuple(result), q[3])
        if kind == "valley":
            return tuple(int(x) for x in result) == oracles.valley_letters(p)
        if kind == "poly":
            family, n, r = q[1:]
            coeffs = tuple(result.coeffs)
            while coeffs and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            if family == "eulerian":
                return coeffs == oracles.eulerian_row(n, r)
            if family == "roselle":
                return coeffs == oracles.derangement_row(n)
            return coeffs == oracles.injection_row(n, r)
        if kind == "series":
            which, order, t = q[1:]
            want = {
                "tan": lambda: oracles.tan_coeffs(order),
                "sec": lambda: oracles.sec_coeffs(order),
                "classical-egf": lambda: oracles.classical_egf_at(order, t),
                "derangement-egf": lambda: oracles.derangement_egf_at(order, t),
            }[which]()
            return [result.coefficient(k) for k in range(order + 1)] == want
        return tuple(result) == oracles.zigzag(14)[1:]

    def _check_map(self, name: str, p: tuple, image: tuple, r: int) -> bool:
        n = len(p)
        if name == "fundamental":
            # a bijection, and it carries cycles onto left-to-right maxima
            return (
                tuple(self.tr.fundamental_inverse(image)) == p
                and oracles.cycles(p) == len(oracles.record_positions(image))
            )
        if name == "fundamental-inverse":
            return (
                tuple(self.tr.fundamental(image)) == p
                and oracles.cycles(image) == len(oracles.record_positions(p))
            )
        if name == "tilde":
            return image == oracles.reverse(p)
        if name == "check":
            return image == oracles.complement_reverse(p)
        if name == "rotate":
            return image == oracles.rotate_left(p, r)
        if name == "bar":
            return sorted(image) == sorted(p) and oracles.rise(image) == oracles.excedance(p)
        if name == "prime":
            return (
                sorted(image) == sorted(p)
                and image[0] == n
                and oracles.lower_drop_last(oracles.descent(image))
                == oracles.lower_drop_last(oracles.excedance(p))
            )
        return (
            sorted(image) == list(range(1, n + 2))
            and oracles.is_circular(image)
            and oracles.lower_drop_last(oracles.excedance(image)) == oracles.excedance(p)
        )


def run_stream(stream: list[tuple], library: Library, unit=None, pause=None) -> dict:
    """Time each call alone, keeping the latencies of each group apart;
    check each result outside the timed region. A tracer passes `unit`, which opens a span per query, and `pause`, which
    stops recording while a result is checked."""
    clock = time.perf_counter_ns
    unit = unit or (lambda name: contextlib.nullcontext())
    pause = pause or contextlib.nullcontext
    latencies: dict[str, list[int]] = {group: [] for group in GROUPS}
    failed = 0
    failures = []
    for q in stream:
        with unit(q[0]):
            start = clock()
            try:
                result = library.call(q)
                error = None
            except Exception as exc:  # a crash counts as a failed query
                error = exc
            latencies[q[0]].append(clock() - start)
        if error is not None:
            failed += 1
            failures.append(f"{q!r}: {error!r}")
            continue
        try:
            with pause():
                ok = library.check(q, result)
        except Exception as exc:
            ok = False
            failures.append(f"{q!r}: check raised {exc!r}")
        if not ok:
            failed += 1
            failures.append(f"{q!r}: wrong result {result!r}")
    return {"latencies_ns": latencies, "failed": failed, "failures": failures[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    stream = make_stream(args.seed)
    out = run_stream(stream, Library())
    out["repeat_share"] = repeat_share(stream)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
