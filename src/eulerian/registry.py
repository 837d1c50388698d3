"""
The check registry of the verification suites: every identity check is
declared once, with its parameter grid at its stated scale and the budgets
each point uses. ``cli.run_verification`` imports this module when it runs,
so the other subcommands never load it.
"""
from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import polynomials as poly
from . import series as ser
from . import transforms as tr
from . import words
from .polynomials import Identity

Outcome = Identity | list[tuple[str, Identity]]


class Declaration(NamedTuple):
    """One identity check of a verification suite, declared once.

    ``run(**point)`` is called at each point of ``grid``, the check's stated
    scale. ``uses`` maps each budget the check consumes (``max_n``,
    ``order``, ``fn_scan_max``) to the size a point needs of it, and a point
    that needs more than a budget allows is left out. A parameter given as a
    range is a bound instead: it shrinks to the largest value in the range
    at which the point fits. ``label`` formats a point for the report
    (default ``k=v`` pairs). A check returns one identity, or a list of
    labelled identities that are reported under their own labels.
    """

    suite: str
    name: str
    run: Callable[..., Outcome]
    grid: Sequence[dict[str, int | range]] = ({},)
    uses: Mapping[str, Callable[[dict[str, int]], int]] = MappingProxyType({})
    label: str = ""

    def points(self, budgets: dict[str, int]) -> Iterator[dict[str, int]]:
        """The points that fit the budgets, with bounds shrunk to fit."""
        for point in self.grid:
            bounds = [k for k, v in point.items() if isinstance(v, range)]
            options = [{**point, k: v} for k in bounds for v in reversed(point[k])] or [point]
            for option in options:
                if all(size(option) <= budgets[b] for b, size in self.uses.items()):
                    yield option
                    break


def _agree(first: Callable[..., object], **routes: Callable[..., object]) -> Callable[..., Identity]:
    # every named route that applies at a point (returns a value, not None)
    # must give the first route's value there
    def run(**point) -> Identity:
        want = first(**point)
        for name, route in routes.items():
            got = route(**point)
            if got is not None and got != want:
                return Identity(False, got, want, f"route {name}")
        return Identity(True, want, want)

    return run


def _both_identities(pair: tuple[Identity, Identity]) -> Identity:
    eq_exp, eq_inv = pair
    return eq_exp if not eq_exp.ok else eq_inv


def _exponential_formulas(order: int) -> list[tuple[str, Identity]]:
    # one sweep of S_n serves the three weights
    weights = {
        "cycle-indicator": ser.cycle_indicator_weight(list(range(1, order + 1))),
        "biexcedent": ser.biexcedent_weight,
        "matrix-entries": ser.matrix_entry_weight(2, 1, 3),
    }
    bundle = ser.exponential_formula_bundle(weights, order)
    return [(f"exponential-formula-{label}", _both_identities(pair)) for label, pair in bundle.items()]


def _sizes(first: int, last: int) -> list[dict[str, int]]:
    return [{"n": n} for n in range(first, last + 1)]


_EULER_NUMBERS = (1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256, 199360981)
_SWEEP = {"max_n": itemgetter("n")}
_SERIES = {"order": itemgetter("order")}
_SERIES_SWEEP = {"order": itemgetter("order"), "max_n": itemgetter("order")}
_ORDER_10 = [{"order": range(11)}]


def _registry() -> tuple[Declaration, ...]:
    """Every check of the four suites. The tuple is built at each run, so a
    check is whatever function its module holds at that moment."""
    return (
        Declaration("chapter1", "fundamental-statistics", tr.check_fundamental_statistics, _sizes(0, 8), _SWEEP),
        Declaration("chapter1", "fundamental-bijection", tr.check_fundamental_bijection, _sizes(0, 8), _SWEEP),
        Declaration("chapter1", "fundamental-roundtrip", tr.check_fundamental_roundtrip, _sizes(0, 8), _SWEEP),
        Declaration("chapter1", "record-orbit-lemma", tr.check_record_orbit_lemma, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "valley-position-lemma", tr.check_valley_position_lemma, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "biexcedent-alternating", tr.check_biexcedent_alternating, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "rise-transport", tr.check_rise_transport, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "descent-transport", tr.check_descent_transport, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "circular-embedding", tr.check_circular_embedding, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "reverse-rise", tr.check_reverse_rise, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "complement-count", tr.check_complement_count, _sizes(1, 8), _SWEEP),
        Declaration("chapter1", "fixed-point-split", tr.check_fixed_point_split, _sizes(1, 8), _SWEEP),
        Declaration(
            "chapter1", "rotation-shift", tr.check_rotation_shift,
            [{"n": n, "r": r} for n in range(1, 9) for r in range(n + 1)], _SWEEP,
        ),
        Declaration(
            "chapter1", "multiset-transport", poly.check_multiset_transport,
            [
                {"n": n, "n_delta": a, "n_prime": b}
                for n in range(1, 8) for a in range(4) for b in range(4 - a) if a + b <= n
            ],
            {"max_n": lambda p: p["n"] + 1},  # two of its classes have size n + 1
            "n={n} d={n_delta} d'={n_prime}",
        ),
        Declaration(
            "chapter2", "cross-method-tables",
            _agree(
                poly.eulerian_triangle_recurrence,
                enumeration=poly.eulerian_by_enumeration,
                shift_recurrence=poly.eulerian_shift_recurrence,
                # the EGF extraction and the explicit sum start at shift 1
                egf_extraction=lambda n, r: ser.eulerian_from_egf(n, r) if r else None,
                explicit_sum=lambda n, r: poly.eulerian_explicit(n, r) if r else None,
            ),
            [{"n": n, "r": r} for n in range(1, 9) for r in range(n + 1)], _SWEEP,
        ),
        Declaration("chapter2", "symmetry", poly.check_symmetry, _sizes(1, 8)),
        Declaration("chapter2", "frobenius", poly.frobenius_identity, _sizes(1, 8)),
        Declaration(
            "chapter2", "riordan-stirling", poly.riordan_stirling_identity,
            [{"n": n, "r": r} for n in range(1, 9) for r in range(1, n + 1)],
        ),
        Declaration(
            "chapter2", "worpitzky", poly.worpitzky, [{"m": m, "n": n} for m in range(1, 9) for n in range(1, 9)]
        ),
        Declaration(
            "chapter2", "divisibility-mass", poly.check_divisibility_and_mass, [{"n_max": 8}], label="n<={n_max}"
        ),
        Declaration(
            "chapter2", "worpitzky-generalized", poly.worpitzky_generalized,
            [{"m": m, "n": n, "r": r} for m in range(1, 7) for n in range(1, 7) for r in range(1, min(m, n) + 1)],
        ),
        Declaration(
            "chapter2", "reciprocal-descent", poly.check_reciprocal_descent_interpretation,
            [{"n": n, "r": r} for n in range(1, 8) for r in range(1, min(n, 3) + 1)], _SWEEP,
        ),
        Declaration(
            "chapter2", "newcomb-specialization", poly.newcomb_specialization,
            [{"n": n, "r": r} for n in range(2, 8) for r in range(2, min(n, 3) + 1)], _SWEEP,
        ),
        Declaration(
            "chapter2", "injection-interpretation",
            _agree(
                poly.eulerian_triangle_recurrence,
                injections=lambda n, r: poly.factorial(r) * poly.injection_polynomial(n, r),
            ),
            [{"n": n, "r": r} for n in range(1, 8) for r in range(min(n, 3) + 1)], _SWEEP,
        ),
        Declaration("chapter2", "mixed-specializations", poly.check_mixed_specializations, _sizes(1, 7), _SWEEP),
        Declaration(
            "chapter2", "roselle-two-routes",
            _agree(poly.roselle_polynomial, succession_free=poly.roselle_by_rises),
            _sizes(1, 7), _SWEEP,
        ),
        Declaration(
            "chapter2", "cycle-weight-shift", poly.q_identity_integer_shift,
            [{"n": n, "r": r} for n in range(1, 7) for r in (1, 2, 3)], _SWEEP,
        ),
        Declaration("chapter2", "cycle-weight-reciprocal", poly.q_identity_reciprocal, _sizes(1, 6), _SWEEP),
        Declaration(
            "chapter2", "stirling-modes",
            _agree(poly.stirling2, quasi_permutation=poly.stirling2_by_quasi_permutations),
            [{"p": p, "q": q} for p in range(2, 9) for q in range(1, p + 1)], {"max_n": itemgetter("p")},
        ),
        Declaration("series", "mixed-egf-exponential-form", ser.check_mixed_egf_exponential_form, _ORDER_10, _SERIES_SWEEP),
        Declaration("series", "bernoulli-ode", ser.check_bernoulli_ode, _ORDER_10, _SERIES),
        Declaration(
            "series", "convolution-recurrence", ser.check_convolution_recurrence, [{"n_max": range(11)}],
            {"order": itemgetter("n_max")}, "n<={n_max}",
        ),
        Declaration(
            "series", "tree-equation", ser.check_tree_equation, [{"order": range(8)}],
            {"order": itemgetter("order"), "fn_scan_max": itemgetter("order")},
        ),
        Declaration("series", "secant-exp-integral-tangent", ser.check_secant_is_exp_integral_tangent, _ORDER_10, _SERIES),
        Declaration(
            "series", "mixed-permanent", ser.check_mixed_permanent, [{"n_max": range(7)}],
            {"max_n": itemgetter("n_max")}, "n<={n_max}",
        ),
        Declaration("series", "mixed-egf-closed-form", ser.check_mixed_egf_closed_form, _ORDER_10, _SERIES_SWEEP),
        Declaration("series", "zero-shift-relations", ser.check_fixed_point_split_relations, _ORDER_10, _SERIES),
        Declaration(
            "series", "shifted-egf-powers", ser.check_shifted_egf_powers,
            [{"r": r, "order": range(11)} for r in range(1, 6)], _SERIES,
        ),
        Declaration("series", "exponential-formula", _exponential_formulas, _ORDER_10, _SERIES_SWEEP),
        Declaration(
            "series", "exponential-formula-fixed-point-split",
            lambda order: _both_identities(
                ser.exponential_formula_bundle({"weight": ser.fixed_point_split_weight}, order)["weight"]
            ),
            [{"order": range(8)}], _SERIES_SWEEP,
        ),
        Declaration(
            "series", "cycle-weighted-egf-power", ser.check_cycle_weighted_power,
            [{"r": r, "order": range(7)} for r in (1, 2, 3)], _SERIES_SWEEP,
        ),
        Declaration(
            "series", "permanent-determinant", ser.check_permanent_determinant,
            [{"a": a, "b": b, "c": c, "order": range(11)} for a, b, c in ((2, 1, 3), (1, 1, 1), (2, 5, 2), (0, 3, 1))],
            _SERIES,
        ),
        Declaration("series", "staircase-examples", ser.check_staircase_examples, _ORDER_10, _SERIES),
        Declaration(
            "series", "tangent-secant-table",
            _agree(lambda order: _EULER_NUMBERS[:order], series=lambda order: words.euler_numbers(order, "series")),
            [{"order": 14}],
        ),
        Declaration("chapter5", "word-derivation-step", words.check_derivation_step, _sizes(3, 8), _SWEEP),
        Declaration(
            "chapter5", "c-triangle-modes",
            _agree(words.c_triangle, abelianization=words.c_triangle_by_abelianization),
            [{"n": range(2, 9)}], _SWEEP, "n<={n}",
        ),
        Declaration("chapter5", "valley-expansion", words.check_valley_expansion, _sizes(2, 9)),
        Declaration(
            "chapter5", "tangent-alternating-sum", words.check_tangent_alternating_sum, [{"p": p} for p in range(1, 6)],
            {"max_n": lambda pt: 2 * pt["p"]},
        ),
        Declaration(
            "chapter5", "secant-alternating-sum", words.check_secant_alternating_sum, [{"p": p} for p in range(1, 6)],
            {"max_n": lambda pt: 2 * pt["p"]},
        ),
        Declaration("chapter5", "reversal-bridge", words.check_reversal_bridge, _sizes(2, 7), _SWEEP),
        Declaration(
            "chapter5", "euler-number-modes",
            _agree(
                lambda n: words.euler_numbers(n),
                enumeration=lambda n: words.euler_numbers(n, "enumeration"),
                series=lambda n: words.euler_numbers(n, "series"),
            ),
            [{"n": range(11)}], _SWEEP, "n<={n}",
        ),
        Declaration(
            "chapter5", "euler-number-table",
            _agree(
                lambda n: _EULER_NUMBERS[:n],
                c_triangle=lambda n: words.euler_numbers(n),
                series=lambda n: words.euler_numbers(n, "series"),
            ),
            [{"n": 14}], label="n<={n}",
        ),
    )




def suite_points(suite: str, budgets: dict[str, int]) -> Iterator[tuple[Declaration, dict[str, int], str]]:
    """Each point of the suite (of every suite for ``all``) that fits the
    budgets, in registry order: its declaration, the point and its label."""
    for decl in _registry():
        if suite not in (decl.suite, "all"):
            continue
        for point in decl.points(budgets):
            params = decl.label.format(**point) if decl.label else " ".join(f"{k}={v}" for k, v in point.items())
            yield decl, point, params
