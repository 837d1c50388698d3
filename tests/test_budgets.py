"""Budgets: the library's exhaustive scans stop at fixed limits (S_n sweeps
to n = 10, self-map scans to n = 7, the quasi-permutation scan to p = 8),
and only the CLI budgets and four sweep primitives take a limit as a
parameter. Only two functions still pick a route by a string argument.
"""
import ast
from pathlib import Path

import pytest

from eulerian import permutations as perms
from eulerian import polynomials as poly
from eulerian import registry
from eulerian import series as ser
from eulerian import words
from eulerian.permutations import BudgetError

SRC = Path(__file__).resolve().parents[1] / "src" / "eulerian"
BUDGET_PARAMETERS = {"max_n", "max_size", "max_scan", "max_p"}
ROUTE_SELECTORS = {"mode", "via", "stat", "kind"}


@pytest.mark.parametrize(
    "call, sweep",
    [
        pytest.param(lambda: poly.roselle_polynomial(11), None, id="roselle"),
        pytest.param(lambda: poly.roselle_by_rises(11), None, id="roselle-by-rises"),
        pytest.param(lambda: poly.abar_polynomial(11), None, id="abar"),
        pytest.param(lambda: poly.q_polynomial(11), None, id="q"),
        pytest.param(lambda: poly.eulerian_by_enumeration(11, 1), None, id="enumeration"),
        pytest.param(lambda: poly.injection_polynomial(11, 1), None, id="injection"),
        pytest.param(lambda: poly.stirling2_by_quasi_permutations(9, 3), None, id="quasi-permutation"),
        pytest.param(lambda: words.word_multiset(11), None, id="word-multiset"),
        pytest.param(
            lambda: next(d.run for d in registry._registry() if d.name == "fundamental-statistics")(n=11),
            None,
            id="fundamental-statistics",
        ),
        pytest.param(
            lambda: ser.mixed_egf_by_enumeration(11), (ser, "abar_polynomial"), id="mixed-egf-exponential-form"
        ),
        pytest.param(lambda: ser.check_mixed_egf_closed_form(11), None, id="mixed-egf-closed-form"),
        # these sweep every size up to n, so the guard must fire before the smallest
        pytest.param(
            lambda: next(d.run for d in registry._registry() if d.name == "mixed-permanent")(n_max=11),
            (poly, "abar_polynomial"),
            id="mixed-permanent",
        ),
        pytest.param(
            lambda: words.c_triangle_by_abelianization(11), (words, "word_multiset"), id="c-triangle-abelianization"
        ),
        pytest.param(lambda: words.euler_numbers(11, "enumeration"), (perms, "class_size"), id="euler-enumeration"),
    ],
)
def test_fixed_guard_stops_before_sweeping(call, sweep, monkeypatch):
    if sweep:
        monkeypatch.setattr(*sweep, lambda *args: pytest.fail(f"{sweep[1]}{args} ran before the guard"))
    with pytest.raises(BudgetError):
        call()


def test_permanent_determinant_is_bounded_by_its_order():
    results = ser.check_permanent_determinant(2, 1, 3, 10)
    assert [name for name, _ in results] == [
        "permanent-determinant-inversion",
        "determinant-closed-form",
        "reciprocal-exponential-closed-form",
    ]
    assert all(ident.ok for _, ident in results)


def _functions_taking(parameters: set[str]) -> set[str]:
    holders = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if parameters & {a.arg for a in args}:
                    holders.add(f"{path.stem}.{node.name}")
    return holders


def test_only_the_sweep_primitives_take_a_budget():
    assert _functions_taking(BUDGET_PARAMETERS) == {
        "permutations.enumerate_class",
        "permutations.check_budget",
        "series.weighted_permutation_sums",
        "series.exponential_formula_bundle",
        "series.permanent",
        "cli.run_verification",
    }


def test_each_route_is_its_own_function():
    # a second route is a function of its own, not a string passed to the
    # first; the two selectors left are called by the benchmark:
    # perfbench/layers.py:231 calls euler_numbers(10, "enumeration") and
    # perfbench/layers.py:120 count_class_functions(7, "ultimately_idempotent")
    assert _functions_taking(ROUTE_SELECTORS) == {"words.euler_numbers", "endofunctions.count_class_functions"}
