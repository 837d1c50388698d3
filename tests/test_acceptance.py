"""Acceptance suite: every criterion at its full stated scale, exact
arithmetic throughout, one printed pass/fail line per criterion.

Criteria 3, 5, 6 and 7 run the verification suites of the CLI's check
registry (chapter1, series, chapter2, chapter5) at default budgets, so each
identity's grid is declared once, in ``eulerian.registry``; the other criteria
check literal tables, the worked example and counts that the CLI does not.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. These tests are heavier than the unit suites (full
symmetric groups up to size 10, truncation order 10); the whole module
stays within a few minutes.
"""
import json
import time
from math import factorial

from eulerian import polynomials as poly
from eulerian import series as ser
from eulerian import transforms as tr
from eulerian import words
from eulerian.cli import main
from eulerian.permutations import (
    ALTERNATING,
    BIEXCEDENT,
    FIRST_IS_N,
    class_size,
    delta,
    delta_prime,
    delta_second,
    descent_vector,
    enumerate_class,
    excedance_vector,
    is_in_class,
    rise_vector,
)
from eulerian.polynomials import Poly

EULER_TABLE = (1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256, 199360981)

REDUCED_TABLE = {
    1: {
        1: (1,),
        2: (1, 1),
        3: (1, 4, 1),
        4: (1, 11, 11, 1),
        5: (1, 26, 66, 26, 1),
        6: (1, 57, 302, 302, 57, 1),
        7: (1, 120, 1191, 2416, 1191, 120, 1),
        8: (1, 247, 4293, 15619, 15619, 4293, 247, 1),
    },
    2: {
        2: (1,),
        3: (2, 1),
        4: (4, 7, 1),
        5: (8, 33, 18, 1),
        6: (16, 131, 171, 41, 1),
        7: (32, 473, 1208, 718, 88, 1),
        8: (64, 1611, 7197, 8422, 2682, 183, 1),
    },
    3: {
        3: (1,),
        4: (3, 1),
        5: (9, 10, 1),
        6: (27, 67, 25, 1),
        7: (81, 376, 326, 56, 1),
        8: (243, 1909, 3134, 1314, 119, 1),
    },
    4: {
        4: (1,),
        5: (4, 1),
        6: (16, 13, 1),
        7: (64, 113, 32, 1),
        8: (256, 821, 531, 71, 1),
    },
    5: {
        5: (1,),
        6: (5, 1),
        7: (25, 16, 1),
        8: (125, 171, 39, 1),
    },
}


# what `eulerian verify <suite>` reports at default budgets: the exact check
# count, and every identity name the suite has reported so far, so that the
# registry cannot shrink unnoticed
SUITE_CHECKS = {"chapter1": 202, "chapter2": 379, "series": 43, "chapter5": 33}
SUITE_IDENTITIES = {
    "chapter1": {
        "biexcedent-alternating", "circular-embedding", "complement-count", "descent-transport",
        "fixed-point-split", "fundamental-bijection", "fundamental-roundtrip", "fundamental-statistics",
        "multiset-transport", "record-orbit-lemma", "reverse-rise", "rise-transport", "rotation-shift",
        "valley-position-lemma",
    },
    "chapter2": {
        "cross-method-tables", "cycle-weight-reciprocal", "cycle-weight-shift", "divisibility-mass",
        "frobenius", "injection-interpretation", "mixed-specializations", "newcomb-specialization",
        "reciprocal-descent", "riordan-stirling", "roselle-two-routes", "stirling-modes", "symmetry",
        "worpitzky", "worpitzky-generalized",
    },
    "series": {
        "bernoulli-ode", "closed-form-classical-direct", "closed-form-derangement-direct",
        "closed-form-zero-shift-direct", "convolution-recurrence", "cycle-weighted-egf-power",
        "determinant-closed-form", "exponential-formula-biexcedent", "exponential-formula-cycle-indicator",
        "exponential-formula-fixed-point-split", "exponential-formula-matrix-entries",
        "mixed-egf-closed-form", "mixed-egf-exponential-form", "mixed-permanent",
        "permanent-determinant-inversion", "reciprocal-exponential-closed-form",
        "secant-exp-integral-tangent", "shifted-egf-powers", "specialize-classical",
        "specialize-derangement", "specialize-zero-shift", "staircase-geometric", "staircase-inversion",
        "staircase-values", "tangent-secant-table", "tree-equation", "zero-column-degenerate",
        "zero-shift-affine-relation", "zero-shift-exp-relation",
    },
    "chapter5": {
        "c-triangle-modes", "euler-number-modes", "euler-number-table", "reversal-bridge",
        "secant-alternating-sum", "tangent-alternating-sum", "valley-expansion", "word-derivation-step",
    },
}


def _verify_suite(suite: str, capsys) -> None:
    """Run the suite through the CLI at default budgets and check its report."""
    code = main(["verify", suite, "--format", "json"])
    results = json.loads(capsys.readouterr().out)["results"]
    failed = [r for r in results if r["status"] != "pass"]
    assert code == 0 and not failed, failed
    assert len(results) == SUITE_CHECKS[suite]
    assert SUITE_IDENTITIES[suite] <= {r["identity"] for r in results}


def _report(criterion: str, started: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({time.perf_counter() - started:.1f}s)", flush=True)


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    for r, rows in REDUCED_TABLE.items():
        for n, reduced in rows.items():
            expected = Poly(tuple(factorial(r) * c for c in reduced))
            assert poly.eulerian_triangle_recurrence(n, r) == expected, (r, n, "triangle")
            assert poly.eulerian_shift_recurrence(n, r) == expected, (r, n, "shift")
            assert poly.eulerian_explicit(n, r) == expected, (r, n, "explicit")
            assert ser.eulerian_from_egf(n, r) == expected, (r, n, "egf")
            assert poly.eulerian_by_enumeration(n, r) == expected, (r, n, "enumeration")
    # the sample coefficients called out by name
    assert REDUCED_TABLE[1][8][3] == 15619
    assert REDUCED_TABLE[2][8][3] == 8422
    assert REDUCED_TABLE[3][8][2] == 3134
    assert REDUCED_TABLE[4][8][2] == 531
    assert REDUCED_TABLE[5][8][2] == 39
    _report("1-table-reproduction", started)


def test_criterion_2_euler_number_table():
    started = time.perf_counter()
    assert words.euler_numbers(14) == EULER_TABLE
    assert words.euler_numbers(14, "series") == EULER_TABLE
    assert words.euler_numbers(10, "enumeration") == EULER_TABLE[:10]
    assert EULER_TABLE[9] == 50521 and EULER_TABLE[13] == 199360981
    _report("2-euler-number-table", started)


def test_criterion_3_bijection_certification(capsys):
    started = time.perf_counter()
    _verify_suite("chapter1", capsys)
    _report("3-bijection-certification", started)


def test_criterion_4_worked_example_fidelity():
    started = time.perf_counter()
    p = (6, 4, 1, 2, 5, 3)
    e = excedance_vector(p)
    assert e == (6, 3, 0, 0, 1, 0)
    assert delta(e) == (5, 2, 0, 0, 0)
    assert delta_prime(e) == (3, 0, 0, 1, 0)
    assert delta_second(e) == (6, 3, 0, 0, 1)
    assert delta(delta(e)) == (4, 1, 0, 0)
    assert delta(delta_prime(e)) == delta_prime(delta(e)) == (2, 0, 0, 0)
    assert delta_prime(delta_prime(e)) == (0, 0, 1, 0)
    assert descent_vector(p) == (4, 0, 3, 3, 0, 0)
    assert delta(descent_vector(p)) == (3, 0, 2, 2, 0)
    assert rise_vector(p) == (6, 1, 3, 0, 0, 0)
    assert tr.fundamental(p) == (4, 2, 5, 6, 1, 3)
    assert tr.reverse(p) == (3, 5, 2, 1, 4, 6)
    assert rise_vector(tr.reverse(p)) == (3, 3, 0, 2, 2, 0)
    s1, s2, bar = tr.excedance_to_rise_steps(p)
    assert s1 == (4, 1, 2, 5, 3, 6)
    assert s2 == (5, 4, 1, 2, 3, 6)
    assert bar == (6, 3, 2, 1, 4, 5)
    # byte-exact rendering through the CLI surface
    import contextlib
    import io

    from eulerian.cli import render_eulerian_table

    def cli_lines(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0
        return buf.getvalue().splitlines()

    assert cli_lines("stat", "6 4 1 2 5 3", "--stats", "E,dE,dpE,dsE,D,M,dD") == [
        "E: 6 3 0 0 1 0",
        "dE: 5 2 0 0 0",
        "dpE: 3 0 0 1 0",
        "dsE: 6 3 0 0 1",
        "D: 4 0 3 3 0 0",
        "M: 6 1 3 0 0 0",
        "dD: 3 0 2 2 0",
    ]
    assert cli_lines("map", "fundamental", "6 4 1 2 5 3") == ["4 2 5 6 1 3"]
    assert cli_lines("map", "tilde", "6 4 1 2 5 3") == ["3 5 2 1 4 6"]
    assert cli_lines("map", "bar", "6 4 1 2 5 3", "--verbose") == [
        "step1: 4 1 2 5 3 6",
        "step2: 5 4 1 2 3 6",
        "6 3 2 1 4 5",
    ]
    assert render_eulerian_table("text", 5).splitlines()[-1] == "n=8: 125 171 39 1"
    # the printed size-4 biexcedent/alternating pairing, row by row
    table = {
        (2, 1, 4, 3): (2, 1, 4, 3),
        (3, 4, 1, 2): (3, 1, 4, 2),
        (4, 3, 2, 1): (3, 2, 4, 1),
        (4, 3, 1, 2): (4, 1, 3, 2),
        (3, 4, 2, 1): (4, 2, 3, 1),
    }
    members = {tuple(q): tuple(tr.fundamental(q)) for q in enumerate_class(4, BIEXCEDENT)}
    assert members == table
    _report("4-worked-example-fidelity", started)


def test_criterion_5_series_identities(capsys):
    started = time.perf_counter()
    _verify_suite("series", capsys)
    _report("5-series-identities", started)


def test_criterion_6_finite_identities(capsys):
    # chapter2 also holds the cross-method tables, r = 0 column included
    started = time.perf_counter()
    _verify_suite("chapter2", capsys)
    _report("6-finite-identities", started)


def test_criterion_7_word_calculus(capsys):
    started = time.perf_counter()
    _verify_suite("chapter5", capsys)
    # the counts carried by the word calculus: alternating words of even size
    # starting at the top value match the next size down
    for p in range(1, 6):
        n = 2 * p
        t_first = sum(1 for q in enumerate_class(n, FIRST_IS_N) if is_in_class(q, ALTERNATING))
        assert t_first == class_size(n - 1, ALTERNATING)
    _report("7-word-calculus", started)
