"""Per-layer microbenchmarks: each times one layer through the public
functions of its module and checks the answer against an oracle.

Benchmarks are grouped by module; each group runs in a fresh process, so a
memoized function (the row caches of ``polynomials``) is always timed cold.
Run one group as a script; it prints a JSON object of metric values plus the
list of benchmarks whose check failed:

    PYTHONPATH=src python3 perfbench/layers.py permutations
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction
from math import factorial

import oracles


def timed(fn, repeat: int = 1):
    """Median seconds over `repeat` calls, and the last result."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def rate(seconds: float, items: int) -> float:
    """Millions of items per second."""
    return items / seconds / 1e6


def sweep(fn, items) -> None:
    for p in items:
        fn(p)


def group_permutations(out, check):
    from eulerian import permutations as perms

    words9 = list(perms.enumerate_class(9))
    sample = words9[::997]
    t, count = timed(lambda: sum(1 for _ in perms.enumerate_class(9)))
    out["permutations.enumerate_n9_mps"] = rate(t, count)
    check("permutations.enumerate_n9_mps", count == factorial(9))
    kernels = {
        "excedance_vector": (perms.excedance_vector, oracles.excedance),
        "descent_vector": (perms.descent_vector, oracles.descent),
        "rise_vector": (perms.rise_vector, oracles.rise),
        "orbits": (perms.orbits, lambda p: oracles.cycles(p)),
    }
    for name, (fn, ref) in kernels.items():
        t, _ = timed(lambda: sweep(fn, words9))
        key = f"permutations.{name}_n9_mps"
        out[key] = rate(t, len(words9))
        if name == "orbits":
            check(key, all(len(fn(p)) == ref(p) for p in sample))
        else:
            check(key, all(tuple(fn(p)) == ref(p) for p in sample))
    t_all, count = timed(lambda: sum(1 for _ in perms.enumerate_class(10)))
    check("permutations.circular_n10_cost_ratio", count == factorial(10))
    t, count = timed(lambda: perms.class_size(10, perms.CIRCULAR))
    out["permutations.class_circular_n10_s"] = t
    out["permutations.circular_n10_cost_ratio"] = t / t_all
    check("permutations.class_circular_n10_s", count == factorial(9))
    t, count = timed(lambda: perms.class_size(10, perms.ALTERNATING))
    out["permutations.class_alternating_n10_s"] = t
    check("permutations.class_alternating_n10_s", count == oracles.zigzag(10)[10])
    t, count = timed(lambda: perms.class_size(9, perms.SUCCESSION_FREE))
    out["permutations.class_succession_free_n9_s"] = t
    check("permutations.class_succession_free_n9_s", count == oracles.derangements(9))


def group_transforms(out, check):
    from eulerian import permutations as perms
    from eulerian import transforms as tr

    words9 = list(perms.enumerate_class(9))
    sample = words9[::997]
    maps = {
        # a bijection, and it carries cycles onto left-to-right maxima
        "fundamental": (
            tr.fundamental,
            lambda p, q: tr.fundamental_inverse(q) == p and oracles.cycles(p) == len(oracles.record_positions(q)),
        ),
        "fundamental_inverse": (
            tr.fundamental_inverse,
            lambda p, q: tr.fundamental(q) == p and oracles.cycles(q) == len(oracles.record_positions(p)),
        ),
        "excedance_to_rise": (tr.excedance_to_rise, lambda p, q: oracles.rise(q) == oracles.excedance(p)),
    }
    for name, (fn, ok) in maps.items():
        t, _ = timed(lambda: sweep(fn, words9))
        key = f"transforms.{name}_n9_mps"
        out[key] = rate(t, len(words9))
        check(key, all(ok(p, fn(p)) for p in sample))
    words8 = list(perms.enumerate_class(8))
    t, _ = timed(lambda: sweep(tr.to_circular, words8))
    out["transforms.to_circular_n8_mps"] = rate(t, len(words8))
    check("transforms.to_circular_n8_mps", all(oracles.is_circular(tr.to_circular(p)) for p in words8[::97]))


def group_endofunctions(out, check):
    from eulerian import endofunctions as endo
    from eulerian import permutations as perms

    maps9 = [endo.trusted_map(p) for p in perms.enumerate_class(9)]
    t, _ = timed(lambda: sweep(endo.canonical_factorization, maps9))
    out["endofunctions.canonical_factorization_n9_mps"] = rate(t, len(maps9))
    check(
        "endofunctions.canonical_factorization_n9_mps",
        all(len(endo.canonical_factorization(f)) == oracles.cycles(f) for f in maps9[::997]),
    )
    # maps whose every cycle is a loop are the rooted forests: (n+1)^(n-1)
    t, count = timed(lambda: endo.count_class_functions(7, "ultimately_idempotent"))
    out["endofunctions.count_class_functions_n7_s"] = t
    check("endofunctions.count_class_functions_n7_s", count == 8**6)


def _rational(series, order: int, t) -> list:
    at = series.substitute(Fraction(t))
    return [at.coefficient(k) for k in range(order + 1)]


def _bell(n: int) -> list[int]:
    row, out = [1], [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
        out.append(row[0])
    return out


def group_series(out, check):
    from eulerian import polynomials as poly
    from eulerian import series as ser

    weights = {
        "cycle-indicator": ser.cycle_indicator_weight(list(range(1, 10))),
        "biexcedent": ser.biexcedent_weight,
        "matrix-entries": ser.matrix_entry_weight(2, 1, 3),
    }
    t, bundle = timed(lambda: ser.exponential_formula_bundle(weights, 9, max_n=9))
    out["series.exponential_formula_bundle_order9_s"] = t
    check("series.exponential_formula_bundle_order9_s", all(a.ok and b.ok for a, b in bundle.values()))

    # a = exp((t - 1) u) over polynomials in t; checked at t = 3, where
    # a^2 = exp(4u), 1/a = exp(-2u) and exp(a - 1) = exp(exp(2u) - 1)
    order = 40
    a = ser.exp_of_linear(poly.T - 1, order)
    one = ser.constant_series(1, order)
    scale = [Fraction(1, factorial(n)) for n in range(order + 1)]
    bell = _bell(order)
    cases = {
        "mul": (lambda: a * a, [4**n * s for n, s in enumerate(scale)]),
        "exp": (lambda: (a - one).exp(), [2**n * bell[n] * s for n, s in enumerate(scale)]),
        "reciprocal": (lambda: a.reciprocal(), [(-2) ** n * s for n, s in enumerate(scale)]),
    }
    for name, (fn, want) in cases.items():
        t, result = timed(fn, repeat=3)
        key = f"series.{name}_order40_s"
        out[key] = t
        check(key, _rational(result, order, 3) == want)
    t, result = timed(lambda: ser.classical_egf_closed_form(40))
    out["series.classical_egf_order40_s"] = t
    check("series.classical_egf_order40_s", _rational(result, 40, -1) == oracles.classical_egf_at(40, -1))
    t, (tan, sec) = timed(lambda: ser.tangent_secant_series(60))
    out["series.tangent_secant_order60_s"] = t
    check(
        "series.tangent_secant_order60_s",
        [tan.coefficient(k) for k in range(61)] == oracles.tan_coeffs(60)
        and [sec.coefficient(k) for k in range(61)] == oracles.sec_coeffs(60),
    )
    # the banded matrices of the verify suite carry Fraction entries
    mat = ser.SquareMatrix.banded(12, Fraction(2), Fraction(5), Fraction(2))
    t, value = timed(lambda: ser.permanent(mat, max_n=12), repeat=5)
    out["series.permanent_banded_n12_s"] = t
    check("series.permanent_banded_n12_s", value == oracles.banded_permanent(12, 2, 5))
    t, value = timed(lambda: ser.determinant(mat), repeat=5)
    out["series.determinant_banded_n12_s"] = t
    check("series.determinant_banded_n12_s", value == oracles.banded_determinant(12, 2, 5))


def group_polynomials(out, check):
    from eulerian import polynomials as poly

    t, result = timed(lambda: poly.eulerian_by_enumeration(9, 1))
    out["polynomials.eulerian_by_enumeration_n9_s"] = t
    check("polynomials.eulerian_by_enumeration_n9_s", tuple(result.coeffs) == oracles.eulerian_row(9, 1))
    t, result = timed(lambda: poly.q_polynomial(9))
    out["polynomials.q_polynomial_n9_s"] = t
    # outer coefficient k summed over t counts the permutations with k
    # cycles; summing the outer variable out leaves the Eulerian polynomial
    rows = [list(c.coeffs) if hasattr(c, "coeffs") else [c] for c in result.coeffs]
    by_cycles = [sum(r) for r in rows]
    by_exc = [sum(r[j] for r in rows if j < len(r)) for j in range(max(map(len, rows)))]
    while by_exc and by_exc[-1] == 0:
        by_exc.pop()
    check(
        "polynomials.q_polynomial_n9_s",
        by_cycles == oracles.stirling_first_row(9)[: len(by_cycles)]
        and tuple(by_exc) == oracles.eulerian_row(9, 1),
    )


def group_triangle(out, check):
    from eulerian import polynomials as poly

    t, result = timed(lambda: poly.eulerian_triangle_recurrence(400, 1))
    out["polynomials.triangle_n400_cold_s"] = t
    check("polynomials.triangle_n400_cold_s", tuple(result.coeffs) == oracles.eulerian_row(400, 1))


def group_words(out, check):
    from eulerian import words

    # first, while the derangement-count cache is still cold
    t, identity = timed(lambda: words.check_secant_alternating_sum(5))
    out["words.secant_alternating_sum_p5_s"] = t
    check("words.secant_alternating_sum_p5_s", identity.ok)
    t, multiset = timed(lambda: words.word_multiset(9))
    out["words.word_multiset_n9_s"] = t
    check("words.word_multiset_n9_s", sum(multiset.values()) == factorial(8))
    t, values = timed(lambda: words.euler_numbers(10, "enumeration"))
    out["words.euler_numbers_enumeration_n10_s"] = t
    check("words.euler_numbers_enumeration_n10_s", tuple(values) == oracles.zigzag(10)[1:])


# budgets of the series suite for the untimed-share measurement: the
# default order, with sweeps capped at size 9 to keep the run short
UNTIMED_BUDGET = {"max_n": 9, "order": 10, "fn_scan_max": 7}


def group_cli(out, check):
    from eulerian import cli

    # Report.elapsed starts after the suite's check list is built, and that
    # build already evaluates several series identities
    start = time.perf_counter()
    report = cli.run_verification("series", **UNTIMED_BUDGET)
    wall = time.perf_counter() - start
    out["cli.series_untimed_s"] = wall - report.elapsed
    check("cli.series_untimed_s", report.ok)


GROUPS = {
    "permutations": group_permutations,
    "transforms": group_transforms,
    "endofunctions": group_endofunctions,
    "series": group_series,
    "polynomials": group_polynomials,
    "triangle": group_triangle,
    "words": group_words,
    "cli": group_cli,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in GROUPS:
        print(f"usage: layers.py {{{','.join(GROUPS)}}}", file=sys.stderr)
        return 2
    out: dict[str, float] = {}
    failed: list[str] = []

    def check(name: str, ok: bool) -> None:
        if not ok:
            failed.append(name)

    GROUPS[argv[0]](out, check)
    print(json.dumps({"metrics": out, "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
