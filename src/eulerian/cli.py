"""
Command-line front end: renders the coefficient tables, evaluates statistics
and bijections on a given word, prints polynomials and series, and drives
the verification suites.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from . import permutations as perms
from . import polynomials as poly
from . import series as ser
from . import transforms as tr
from . import words
from .permutations import BudgetError
from .polynomials import Identity, Poly, as_int


@dataclass
class CheckResult:
    identity: str
    params: str
    status: str  # "pass", "fail", or "skip" when a budget ruled the check out
    witness: str = ""
    elapsed: float = 0.0  # seconds of the point, shared by all its identities
    swept: dict[str, int] = field(default_factory=dict)  # each budget the point uses, from the registry

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass
class Report:
    suite: str
    results: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0
    points: list[tuple[float, str]] = field(default_factory=list)  # (seconds, "name [params]")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


# ---------------------------------------------------------------------------
# the check registry


Outcome = Identity | list[tuple[str, Identity]]


@dataclass(frozen=True)
class Declaration:
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
    uses: dict[str, Callable[[dict[str, int]], int]] = field(default_factory=dict)
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
                # at r = 1 < n the climb starts from, and so returns, the
                # first route's own column: no comparison would be made
                shift_recurrence=lambda n, r: None if r == 1 < n else poly.eulerian_shift_recurrence(n, r),
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


_SUITES = ("chapter1", "chapter2", "series", "chapter5", "all")


def run_verification(suite: str, max_n: int, order: int, fn_scan_max: int) -> Report:
    budgets = {"max_n": max_n, "order": order, "fn_scan_max": fn_scan_max}
    start = time.perf_counter()
    results = []
    points = []
    for decl in _registry():
        if suite not in (decl.suite, "all"):
            continue
        prefix = f"{decl.suite}/" if suite == "all" else ""
        for point in decl.points(budgets):
            params = decl.label.format(**point) if decl.label else " ".join(f"{k}={v}" for k, v in point.items())
            tick = time.perf_counter()
            try:
                outcome = decl.run(**point)
            except BudgetError as exc:  # out of budget: skipped, with the reason
                checked = [(decl.name, "skip", str(exc))]
            except Exception as exc:  # a crash fails this check only, with the reason
                checked = [(decl.name, "fail", f"error: {exc}")]
            else:
                checked = []
                for ident, res in [(decl.name, outcome)] if isinstance(outcome, Identity) else outcome:
                    witness = "" if res.ok else f"lhs={res.lhs!r} rhs={res.rhs!r} {res.note}".strip()
                    checked.append((ident, "pass" if res.ok else "fail", witness))
            took = time.perf_counter() - tick
            points.append((took, f"{prefix}{decl.name} [{params}]"))
            swept = {b: size(point) for b, size in decl.uses.items()}
            results.extend(CheckResult(prefix + ident, params, status, witness, took, swept) for ident, status, witness in checked)
    results.sort(key=lambda r: (r.identity, r.params))
    return Report(suite, results, time.perf_counter() - start, points)


# ---------------------------------------------------------------------------
# tables


def shifted_coefficient_table() -> list[tuple[int, int, tuple[int, ...]]]:
    """Rows (r, n, reduced coefficients) for shifts 1..5 and sizes up to 8;
    the reduced coefficients are the polynomial coefficients divided by r!."""
    rows = []
    for r in range(1, 6):
        for n in range(r, 9):
            cs = poly.eulerian_triangle_recurrence(n, r).coeffs
            rows.append((r, n, tuple(as_int(c) // poly.factorial(r) for c in cs)))
    return rows


def render_eulerian_table(fmt: str, only_r: int | None = None) -> str:
    rows = [row for row in shifted_coefficient_table() if only_r in (None, row[0])]
    if fmt == "csv":
        return "\n".join(",".join(str(x) for x in (r, n) + cs) for r, n, cs in rows)
    if fmt == "json":
        entries = [{"r": r, "n": n, "coeffs": [str(c) for c in cs]} for r, n, cs in rows]
        return json.dumps({"table": "eulerian", "entries": entries}, indent=None, sort_keys=True)
    lines = []
    last_r = None
    for r, n, cs in rows:
        if r != last_r:
            if last_r is not None:
                lines.append("")
            lines.append(f"r={r}")
            last_r = r
        lines.append(f"n={n}: " + " ".join(str(c) for c in cs))
    return "\n".join(lines)


def render_euler_number_table(fmt: str) -> str:
    values = words.euler_numbers(14)
    if fmt == "csv":
        return "\n".join(f"{n},{v}" for n, v in enumerate(values, start=1))
    if fmt == "json":
        entries = [{"n": n, "value": str(v)} for n, v in enumerate(values, start=1)]
        return json.dumps({"table": "euler-numbers", "entries": entries}, indent=None, sort_keys=True)
    return "\n".join(f"n={n}: {v}" for n, v in enumerate(values, start=1))


# ---------------------------------------------------------------------------
# word parsing and the small commands


def parse_permutation(text: str) -> tuple[int, ...]:
    pieces = text.replace(",", " ").split()
    values = []
    for i, piece in enumerate(pieces, start=1):
        try:
            values.append(int(piece))
        except ValueError:
            raise ValueError(f"position {i}: {piece!r} is not an integer") from None
    n = len(values)
    seen = set()
    for i, v in enumerate(values, start=1):
        if not 1 <= v <= n:
            raise ValueError(f"position {i}: value {v} outside 1..{n}")
        if v in seen:
            raise ValueError(f"position {i}: value {v} repeated")
        seen.add(v)
    return tuple(values)


_STATS: dict[str, Callable[[tuple[int, ...]], object]] = {
    "E": perms.excedance_vector,
    "D": perms.descent_vector,
    "M": perms.rise_vector,
    "Dp": perms.dprime_vector,
    "Ep": perms.fixed_point_vector,
    "DDp": perms.descent_plus_certificate,
    "dE": lambda p: perms.delta(perms.excedance_vector(p)),
    "dpE": lambda p: perms.delta_prime(perms.excedance_vector(p)),
    "dsE": lambda p: perms.delta_second(perms.excedance_vector(p)),
    "dD": lambda p: perms.delta(perms.descent_vector(p)),
    "z": perms.cycle_count,
    "s": perms.ltr_maximum_count,
    "eps": perms.signature,
}

_MAPS: dict[str, Callable[[tuple[int, ...]], tuple[int, ...]]] = {
    "fundamental": tr.fundamental,
    "fundamental-inverse": tr.fundamental_inverse,
    "tilde": tr.reverse,
    "check": tr.complement_reverse,
    "bar": tr.excedance_to_rise,
    "prime": tr.excedance_to_descent,
    "double-prime": tr.to_circular,
}


def _cmd_tables(args) -> int:
    if args.r is not None and args.table != "eulerian":
        raise ValueError(f"--r applies to the eulerian table only, not {args.table}")
    if args.r is not None and not 1 <= args.r <= 5:
        raise ValueError(f"--r must be a shift in 1..5, got {args.r}")
    if args.table == "eulerian":
        print(render_eulerian_table(args.format, args.r))
    else:
        print(render_euler_number_table(args.format))
    return 0


def _cmd_stat(args) -> int:
    p = parse_permutation(args.word)
    names = args.stats.split(",") if args.stats else list(_STATS)
    records = []
    for name in names:
        if name not in _STATS:
            raise ValueError(f"unknown statistic {name!r} (choose from {', '.join(_STATS)})")
        try:
            value = _STATS[name](p)
        except ValueError as exc:  # the delta statistics drop a letter
            if p:
                raise
            raise ValueError(f"statistic {name} is undefined on the empty word") from exc
        records.append((name, value))
    if args.format == "json":
        print(json.dumps({
            "word": list(p),
            "stats": {
                name: (list(v) if isinstance(v, tuple) else v) for name, v in records
            },
        }, sort_keys=True))
    else:
        for name, value in records:
            if isinstance(value, tuple):
                print(f"{name}: " + " ".join(str(x) for x in value))
            else:
                print(f"{name}: {value}")
    return 0


def _cmd_map(args) -> int:
    if args.r is not None and args.map != "rotate":
        raise ValueError(f"--r applies to the rotate map only, not {args.map}")
    p = parse_permutation(args.word)
    if args.map == "rotate":
        image = tr.word_rotate(p, args.r if args.r is not None else 1)
    else:
        image = _MAPS[args.map](p)
    if args.verbose and args.map == "bar":
        s1, s2, _ = tr.excedance_to_rise_steps(p)
        print("step1: " + " ".join(map(str, s1)))
        print("step2: " + " ".join(map(str, s2)))
    if args.verbose and args.map == "double-prime":
        s1, s2, _ = tr.to_circular_steps(p)
        print("step1: " + " ".join(map(str, s1)))
        print("step2: " + " ".join(map(str, s2)))
    print(" ".join(str(v) for v in image))
    return 0


def _poly_for(family: str, n: int, r: int) -> Poly:
    if family == "eulerian":
        return poly.eulerian_triangle_recurrence(n, r)
    if family == "roselle":
        return poly.roselle_polynomial(n)
    if family == "injection":
        return poly.injection_polynomial(n, r)
    raise ValueError(f"unknown family {family!r}")


def _lift_digit_limit() -> None:
    # a valid poly or series query may print integers longer than CPython's
    # int-to-str digit limit (3.11+); commands that parse a word keep it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _cmd_poly(args) -> int:
    _lift_digit_limit()
    p = _poly_for(args.family, args.n, args.r)
    coeffs = [str(c) for c in p.coeffs]
    if args.format == "json":
        print(json.dumps({"n": args.n, "r": args.r, "coeffs": coeffs}, sort_keys=True))
    elif args.format == "csv":
        print(",".join(coeffs))
    else:
        print(" ".join(coeffs) if coeffs else "0")
    return 0


def _cmd_series(args) -> int:
    _lift_digit_limit()
    if args.t is not None and args.which in ("tan", "sec"):
        raise ValueError(f"--t applies to the EGF series only, not {args.which}")
    order = args.order
    t = -1 if args.t is None else args.t
    if args.which == "tan":
        s = ser.tangent_secant_series(order)[0]
    elif args.which == "sec":
        s = ser.tangent_secant_series(order)[1]
    elif args.which == "classical-egf":
        s = ser.classical_egf_closed_form(order, at=t)
    else:  # derangement-egf
        s = ser.roselle_egf_closed_form(order, at=t)
    coeffs = [str(s.coefficient(k)) for k in range(order + 1)]
    if args.format == "json":
        print(json.dumps({"order": order, "coeffs": coeffs}, sort_keys=True))
    elif args.format == "csv":
        print(",".join(coeffs))
    else:
        print(" ".join(coeffs))
    return 0


def _cmd_verify(args) -> int:
    budgets = (("--max-n", args.max_n), ("--order", args.order), ("--fn-scan-max", args.fn_scan_max))
    for flag, value in budgets:
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    report = run_verification(args.suite, args.max_n, args.order, args.fn_scan_max)
    if args.format == "json":
        payload = {
            "suite": report.suite,
            "elapsed": round(report.elapsed, 3),
            "ok": report.ok,
            "results": [{**asdict(r), "elapsed": round(r.elapsed, 3), "ok": r.ok} for r in report.results],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in report.results:
            line = f"{r.status.upper()} {r.identity} [{r.params}]"
            if r.witness:
                line += f" {r.witness}"
            print(line)
        counts = Counter(r.status for r in report.results)
        skipped = f", {counts['skip']} skipped" if counts["skip"] else ""
        print(f"{report.suite}: {counts['pass']}/{len(report.results)} passed{skipped} in {report.elapsed:.1f}s")
        if report.points:
            print("slowest points:")
            for took, point in sorted(report.points, key=itemgetter(0), reverse=True)[:5]:
                print(f"  {took:.2f}s {point}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerian",
        description="Permutation statistics, Eulerian polynomials, and exact series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="render the coefficient tables")
    t.add_argument("table", choices=("eulerian", "euler-numbers"))
    t.add_argument("--format", choices=("text", "csv", "json"), default="text")
    t.add_argument("--r", type=int, default=None, help="restrict the eulerian table to one shift")
    t.set_defaults(fn=_cmd_tables)

    s = sub.add_parser("stat", help="statistic vectors and scalars of a word")
    s.add_argument("word", help="permutation word, e.g. '6 4 1 2 5 3'")
    s.add_argument("--stats", default="", help="comma list: " + ",".join(_STATS))
    s.add_argument("--format", choices=("text", "json"), default="text")
    s.set_defaults(fn=_cmd_stat)

    m = sub.add_parser("map", help="apply a bijection to a word")
    m.add_argument("map", choices=tuple(_MAPS) + ("rotate",))
    m.add_argument("word")
    m.add_argument("--r", type=int, default=None, help="rotation amount")
    m.add_argument("--verbose", action="store_true", help="print intermediate words")
    m.set_defaults(fn=_cmd_map)

    p = sub.add_parser("poly", help="print a polynomial's coefficients")
    p.add_argument("family", choices=("eulerian", "roselle", "injection"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, default=1)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(fn=_cmd_poly)

    q = sub.add_parser("series", help="print truncated series coefficients")
    q.add_argument("which", choices=("tan", "sec", "classical-egf", "derangement-egf"))
    q.add_argument("--order", type=int, default=10)
    q.add_argument("--t", type=int, default=None, help="evaluation point for the EGFs (default -1)")
    q.add_argument("--format", choices=("text", "csv", "json"), default="text")
    q.set_defaults(fn=_cmd_series)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=_SUITES)
    v.add_argument("--max-n", type=int, default=perms.DEFAULT_PERM_BUDGET, dest="max_n")
    v.add_argument("--order", type=int, default=10)
    v.add_argument(
        "--fn-scan-max", type=int, default=perms.DEFAULT_MAP_SCAN_BUDGET, dest="fn_scan_max"
    )
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
