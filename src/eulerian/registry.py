"""
The check registry of the verification suites: every identity check is
declared once, with its parameter grid at its stated scale and the budgets
each point uses. A check that computes one value two ways declares each way
as a named route with ``_agree``, and ``tests/test_routes.py`` audits that
the routes share only the common arithmetic. The bijection checks are
statistic transports, declared with ``_transport``. The other checks stay
functions of their modules, where a pair of routes would not fit: a check
of one property, an equation between values of one route, a check that
reports labelled identities, ``word-derivation-step`` (its witness names
the word that differs) and ``secant-alternating-sum`` (the benchmark times
its function). ``cli.run_verification`` imports this module when it runs,
so the other subcommands never load it.
"""
from __future__ import annotations

from itertools import islice, repeat
from operator import eq, itemgetter, lt
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import polynomials as poly
from . import series as ser
from . import transforms as tr
from . import words
from .permutations import (
    ALL,
    ALTERNATING,
    BIEXCEDENT,
    CIRCULAR,
    DERANGEMENT,
    FIRST_IS_N,
    LAST_IS_1,
    SUCCESSION_FREE,
    ClassTag,
    class_size,
    delta,
    delta_power,
    descent_plus_certificate,
    descent_vector,
    dprime_vector,
    enumerate_class,
    excedance_vector,
    fixed_point_vector,
    is_in_class,
    left_to_right_maxima,
    orbits,
    positive_count,
    rise_vector,
)
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


def _first_failure(identities: Iterable[Identity]) -> Identity:
    # the first identity that fails, else the last one
    for ident in identities:
        if not ident.ok:
            break
    return ident


def _all_of(*checks: Callable[..., Identity]) -> Callable[..., Identity]:
    return lambda **point: _first_failure(check(**point) for check in checks)


_CHUNK = 1024


def _transport(
    bij: Callable[[tuple[int, ...]], tuple[int, ...]],
    source: ClassTag,
    *pairs: tuple[str, Callable, Callable],
    onto: ClassTag | None = None,
    size: Callable[[int], int] = lambda n: n,
) -> Callable[[int], Identity]:
    """A statistic transport at size n: ``bij`` carries each word p of the
    class ``source`` of size ``size(n)`` to q = bij(p), and f(p) == g(q) for
    each named pair ``(name, f, g)``. With ``onto``, bij is also one-to-one
    onto that class of size n: every image is a word of {1..n} in it, no two
    words share an image, and there are as many images as the class has
    members. Without ``onto``, bij may be any map, the statistic both sides
    read, say. A failure names the pair or clause at fault and its first
    word.

    The words are swept in chunks: bij runs once per word, each pair
    compares the f-values of a chunk with the g-values of its images, and
    the witness is looked for only after a mismatch. Only the chunk is held
    as words. Each image that passes its chunk's membership check is kept
    as one int key, its letters read as base-256 digits, which is one-to-one
    on words of {1..n}; after the sweep the keys are sorted, and two equal
    neighbours are two words that share an image."""

    def run(n: int) -> Identity:
        sweep = enumerate_class(size(n), source)
        letters = list(range(1, n + 1))

        def member(q: tuple[int, ...]) -> bool:
            # a word of {1..n} first: a class holds permutations only, and
            # its predicate reads its input as one
            return sorted(q) == letters and is_in_class(q, onto)

        keys: list[int] = []
        swept = 0
        while chunk := list(islice(sweep, _CHUNK)):
            out = list(map(bij, chunk))
            for name, f, g in pairs:
                if list(map(f, chunk)) != list(map(g, out)):
                    p, q = next((p, q) for p, q in zip(chunk, out) if f(p) != g(q))
                    return Identity(False, f(p), g(q), f"{name} at {p}")
            if onto is not None:
                if not all(map(member, out)):
                    p, q = next((p, q) for p, q in zip(chunk, out) if not member(q))
                    return Identity(False, q, onto.kind, f"image outside the class at {p}")
                keys += map(int.from_bytes, map(bytes, out), repeat("big"))
            swept += len(chunk)
        if onto is None:
            return Identity(True, swept, swept)
        keys.sort()
        shared = sum(map(eq, keys, islice(keys, 1, None)))
        if shared:
            return Identity(False, swept - shared, swept, "two words share an image")
        target = class_size(n, onto)
        return Identity(swept == target, swept, target, "image count")

    return run


def _word(p: tuple[int, ...]) -> tuple[int, ...]:
    return p


def _in(tag: ClassTag) -> Callable[[tuple[int, ...]], bool]:
    return lambda p: is_in_class(p, tag)


def _last(p: tuple[int, ...]) -> tuple[int, ...]:
    return p[-1:]


def _lowered(vector: Callable[[tuple[int, ...]], tuple[int, ...]]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # delta of the statistic vector; the empty word has the empty vector
    return lambda p: delta(vector(p)) if p else ()


def _orbit_maxima(p: tuple[int, ...]) -> set[int]:
    return {max(orb) for orb in orbits(p)}


def _record_values(q: tuple[int, ...]) -> set[int]:
    return {q[j - 1] for j in left_to_right_maxima(q)}


def _cyclic_valleys(p: tuple[int, ...]) -> set[int]:
    # the points k below both p(k) and their preimage i, read along each arrow i -> k
    return {k for i, k in enumerate(p, start=1) if k < i and k < p[k - 1]}


def _word_valleys(q: tuple[int, ...]) -> set[int]:
    # the letters below both neighbours, from the second position on; the
    # last letter has only its left neighbour
    ext = q + (len(q) + 1,)
    return {ext[j] for j in range(1, len(q)) if ext[j - 1] > ext[j] < ext[j + 1]}


def _odd_cycles(p: tuple[int, ...]) -> int:
    return sum(len(orb) % 2 for orb in orbits(p))


def _top_then_complement(q: tuple[int, ...]) -> tuple[int, ...]:
    # complement a size-(n-1) word into {1..n-1} and prepend n
    n = len(q) + 1
    return (n,) + tuple([n - v for v in q])


def _descent_letters(w: tuple[int, ...]) -> int:
    letters = words.valley_word(w)
    return letters.count(words.Letter.DESCENT) + letters.count(words.Letter.MARKED_DESCENT)


def _exponential_formulas(order: int) -> list[tuple[str, Identity]]:
    # one sweep of S_n serves the three weights
    weights = {
        "cycle-indicator": ser.cycle_indicator_weight(list(range(1, order + 1))),
        "biexcedent": ser.biexcedent_weight,
        "matrix-entries": ser.matrix_entry_weight(2, 1, 3),
    }
    bundle = ser.exponential_formula_bundle(weights, order)
    return [(f"exponential-formula-{label}", _first_failure(pair)) for label, pair in bundle.items()]


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
        Declaration(
            "chapter1", "fundamental-statistics",
            _transport(
                tr.fundamental, ALL,
                ("excedances to descents plus certificate", excedance_vector, descent_plus_certificate),
                ("lowered excedances to lowered descents", _lowered(excedance_vector), _lowered(descent_vector)),
            ),
            _sizes(0, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "fundamental-bijection",
            _all_of(
                _transport(tr.fundamental, ALL, ("last letter", _last, _last), onto=ALL),
                _transport(tr.fundamental, CIRCULAR, onto=FIRST_IS_N),
            ),
            _sizes(0, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "fundamental-roundtrip",
            _all_of(
                _transport(tr.fundamental, ALL, ("inverse after fundamental", _word, tr.fundamental_inverse)),
                _transport(tr.fundamental_inverse, ALL, ("fundamental after inverse", _word, tr.fundamental)),
            ),
            _sizes(0, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "record-orbit-lemma",
            _transport(
                tr.fundamental, ALL,
                ("orbit maxima to record values", _orbit_maxima, _record_values),
                # k is fixed iff it is a record value that sits last or before another record
                ("fixed points to the certificate", fixed_point_vector, dprime_vector),
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "valley-position-lemma",
            _transport(tr.fundamental, ALL, ("cyclic valleys to word valleys", _cyclic_valleys, _word_valleys)),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "biexcedent-alternating",
            # in odd size every word has an odd cycle, so the class must be empty
            lambda n: _transport(
                tr.fundamental, BIEXCEDENT, ("odd cycles", _odd_cycles, lambda q: 0),
                onto=None if n % 2 else ALTERNATING,
            )(n),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "rise-transport",
            _transport(
                tr.excedance_to_rise, ALL,
                ("excedances to rises", excedance_vector, rise_vector),
                ("derangements to succession-free words", _in(DERANGEMENT), _in(SUCCESSION_FREE)),
                onto=ALL,
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "descent-transport",
            _transport(
                tr.excedance_to_descent, LAST_IS_1,
                ("lowered excedances to lowered descents", _lowered(excedance_vector), _lowered(descent_vector)),
                onto=FIRST_IS_N,
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "circular-embedding",
            _transport(
                tr.to_circular, ALL, ("excedances to lowered excedances", excedance_vector, _lowered(excedance_vector)),
                onto=CIRCULAR, size=lambda n: n - 1,
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "reverse-rise",
            _transport(
                tr.reverse, ALL,
                ("last letter and lowered descents to rises", lambda p: p[-1:] + delta(descent_vector(p)), rise_vector),
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "complement-count",
            _transport(
                tr.complement_reverse, ALL,
                (
                    "n minus positive lowered excedances to positive excedances",
                    lambda p: len(p) - positive_count(delta(excedance_vector(p))),
                    lambda q: positive_count(excedance_vector(q)),
                ),
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "fixed-point-split",
            _transport(
                excedance_vector, ALL,
                (
                    "fixed points to the positive entries that lowering loses",
                    lambda p: positive_count(fixed_point_vector(p)),
                    lambda e: positive_count(e) - positive_count(delta(e)),
                ),
            ),
            _sizes(1, 8), _SWEEP,
        ),
        Declaration(
            "chapter1", "rotation-shift",
            lambda n, r: _transport(
                lambda p: tr.word_rotate(p, r), ALL,
                (
                    "cropped excedances to lowered excedances of the rotation",
                    lambda p: excedance_vector(p)[r:],
                    lambda q: delta_power(excedance_vector(q), r),
                ),
                ("first r letters to the last r letters", lambda p: p[:r], lambda q: q[len(q) - r :]),
            )(n),
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
        Declaration(
            "chapter2", "frobenius", _agree(poly.eulerian_polynomial, stirling=poly.frobenius_expansion), _sizes(1, 8)
        ),
        Declaration(
            "chapter2", "riordan-stirling",
            _agree(
                lambda n, r: poly.eulerian_triangle_recurrence(n, r).eval(poly.Poly((1, 1))),
                stirling=poly.riordan_expansion,
            ),
            [{"n": n, "r": r} for n in range(1, 9) for r in range(1, n + 1)],
        ),
        Declaration(
            "chapter2", "worpitzky", _agree(lambda m, n: m**n, eulerian=poly.worpitzky_sum),
            [{"m": m, "n": n} for m in range(1, 9) for n in range(1, 9)],
        ),
        Declaration(
            "chapter2", "divisibility-mass", poly.check_divisibility_and_mass, [{"n_max": 8}], label="n<={n_max}"
        ),
        Declaration(
            "chapter2", "worpitzky-generalized",
            _agree(
                lambda m, n, r: m ** (n - r) * poly.factorial(m) // poly.factorial(m - r),
                eulerian=poly.worpitzky_generalized_sum,
            ),
            [{"m": m, "n": n, "r": r} for m in range(1, 7) for n in range(1, 7) for r in range(1, min(m, n) + 1)],
        ),
        Declaration(
            "chapter2", "reciprocal-descent",
            _agree(
                poly.reversed_shifted_polynomial,
                cropped_descents=poly.cropped_descent_polynomial,
                cropped_excedances=poly.cropped_excedance_polynomial,
            ),
            [{"n": n, "r": r} for n in range(1, 8) for r in range(1, min(n, 3) + 1)], _SWEEP,
        ),
        Declaration(
            "chapter2", "newcomb-specialization",
            _agree(poly.reversed_shifted_polynomial, tail_ordered=poly.newcomb_polynomial),
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
        Declaration(
            "chapter2", "mixed-specializations",
            # the joint polynomial at t' = t, 1, 0; at 0 it shares roselle's position-sum sweep, not its weights
            _agree(
                lambda n: (
                    poly.eulerian_shift_recurrence(n, 0), poly.eulerian_polynomial(n), poly.roselle_polynomial(n)
                ),
                joint=lambda n: tuple(map(poly.abar_polynomial(n).eval, (poly.T, 1, 0))),
            ),
            _sizes(1, 7), _SWEEP,
        ),
        Declaration(
            "chapter2", "roselle-two-routes",
            _agree(poly.roselle_polynomial, succession_free=poly.roselle_by_rises),
            _sizes(1, 7), _SWEEP,
        ),
        Declaration(
            "chapter2", "cycle-weight-shift",
            # at an integer r >= 1 the cycle weight gives the shifted polynomial of size n + r - 1 over (r - 1)!
            _agree(
                lambda n, r: poly.eulerian_triangle_recurrence(n + r - 1, r),
                cycles=lambda n, r: poly.factorial(r - 1) * poly.q_polynomial(n).eval(r),
            ),
            [{"n": n, "r": r} for n in range(1, 7) for r in (1, 2, 3)], _SWEEP,
        ),
        Declaration(
            "chapter2", "cycle-weight-reciprocal",
            # rises and records against the cycle/excedance polynomial reversed in t to degree n
            _agree(
                poly.rise_record_polynomial,
                cycles=lambda n: poly.Poly(tuple(poly.reciprocal_poly(c, n) for c in poly.q_polynomial(n).coeffs)),
            ),
            _sizes(1, 6), _SWEEP,
        ),
        Declaration(
            "chapter2", "stirling-modes",
            _agree(poly.stirling2, quasi_permutation=poly.stirling2_by_quasi_permutations),
            [{"p": p, "q": q} for p in range(2, 9) for q in range(1, p + 1)], {"max_n": itemgetter("p")},
        ),
        Declaration(
            "series", "mixed-egf-exponential-form",
            _agree(ser.mixed_egf_by_enumeration, exponential=ser.mixed_egf_exponential_form),
            _ORDER_10, _SERIES_SWEEP,
        ),
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
            "series", "mixed-permanent",
            # the permanents first: their guard stops n_max >= 10 before any sweep of S_n
            _agree(ser.mixed_permanents, joint=lambda n_max: [poly.abar_polynomial(n) for n in range(1, n_max + 1)]),
            [{"n_max": range(7)}], {"max_n": itemgetter("n_max")}, "n<={n_max}",
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
            lambda order: _first_failure(
                ser.exponential_formula_bundle({"weight": ser.fixed_point_split_weight}, order)["weight"]
            ),
            [{"order": range(8)}], _SERIES_SWEEP,
        ),
        Declaration(
            "series", "cycle-weighted-egf-power",
            _agree(lambda r, order: ser.mixed_egf_closed_form(order) ** r, weighted=ser.cycle_weighted_egf),
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
        Declaration(
            "chapter5", "valley-expansion",
            _agree(lambda n: poly.T * poly.eulerian_polynomial(n - 1), c_triangle=words.valley_expansion),
            _sizes(2, 9),
        ),
        Declaration(
            "chapter5", "tangent-alternating-sum",
            # at -1 the classical polynomial is 0 in size 2p, and in size 2p - 1 counts alternating words
            _agree(
                lambda p: (0, class_size(2 * p - 1, ALTERNATING)),
                at_minus_one=lambda p: (
                    poly.eulerian_at_minus_one(2 * p), (-1) ** (p - 1) * poly.eulerian_at_minus_one(2 * p - 1)
                ),
            ),
            [{"p": p} for p in range(1, 6)], {"max_n": lambda pt: 2 * pt["p"]},
        ),
        Declaration(
            "chapter5", "secant-alternating-sum", words.check_secant_alternating_sum, [{"p": p} for p in range(1, 6)],
            {"max_n": lambda pt: 2 * pt["p"]},
        ),
        Declaration(
            "chapter5", "reversal-bridge",
            _transport(
                _top_then_complement, ALL,
                ("ascents to descent letters", lambda q: sum(map(lt, q, q[1:])) + 1, _descent_letters),
                (
                    "valleys to marked pairs",
                    lambda q: sum(a > b < c for a, b, c in zip(q, q[1:], q[2:])) + 1,
                    lambda w: words.valley_word(w).count(words.Letter.MARKED_DESCENT),
                ),
                onto=FIRST_IS_N, size=lambda n: n - 1,
            ),
            _sizes(2, 7), _SWEEP,
        ),
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
