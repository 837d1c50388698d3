"""Budgets: the library's exhaustive scans stop at fixed limits (S_n sweeps
to n = 10, self-map scans to n = 7, the quasi-permutation scan to p = 8),
and only the CLI budgets and four sweep primitives take a limit as a
parameter.
"""
import ast
from pathlib import Path

import pytest

from eulerian import polynomials as poly
from eulerian import series as ser
from eulerian import transforms as tr
from eulerian import words
from eulerian.permutations import BudgetError

SRC = Path(__file__).resolve().parents[1] / "src" / "eulerian"
BUDGET_PARAMETERS = {"max_n", "max_size", "max_scan", "max_p"}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: poly.roselle_polynomial(11), id="roselle"),
        pytest.param(lambda: poly.abar_polynomial(11), id="abar"),
        pytest.param(lambda: poly.q_polynomial(11), id="q"),
        pytest.param(lambda: poly.eulerian_by_enumeration(11, 1), id="enumeration"),
        pytest.param(lambda: poly.injection_polynomial(11, 1), id="injection"),
        pytest.param(lambda: poly.stirling2(9, 3, "quasi_permutation"), id="quasi-permutation"),
        pytest.param(lambda: words.word_multiset(11), id="word-multiset"),
        pytest.param(lambda: tr.check_fundamental_statistics(11), id="fundamental-statistics"),
        pytest.param(lambda: ser.check_mixed_egf_exponential_form(11), id="mixed-egf-exponential-form"),
        pytest.param(lambda: ser.check_mixed_egf_closed_form(11), id="mixed-egf-closed-form"),
    ],
)
def test_fixed_guard_stops_before_sweeping(call):
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


def test_only_the_sweep_primitives_take_a_budget():
    holders = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if BUDGET_PARAMETERS & {a.arg for a in args}:
                    holders.add(f"{path.stem}.{node.name}")
    assert holders == {
        "permutations.enumerate_class",
        "permutations.check_budget",
        "series.weighted_permutation_sums",
        "series.exponential_formula_bundle",
        "series.permanent",
        "cli.run_verification",
    }
