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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import permutations as perms
from . import polynomials as poly
from . import series as ser
from . import transforms as tr
from . import words
from .permutations import BudgetError, Permutation
from .polynomials import Identity, Poly, as_int


@dataclass
class CheckResult:
    identity: str
    params: str
    ok: bool
    witness: str = ""


@dataclass
class Report:
    suite: str
    results: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


Check = tuple[str, str, Callable[[], object]]


def _run_suite(name: str, build: Callable[[], Sequence[Check]]) -> Report:
    # the clock covers building the checks too: some builders compute
    # their identities eagerly
    start = time.perf_counter()
    try:
        checks = build()
    except Exception as exc:  # a builder crash is one failure, not a traceback
        failed = CheckResult("build", "", False, f"error: {exc}")
        return Report(name, [failed], time.perf_counter() - start)
    results = []
    for ident, params, fn in checks:
        try:
            res = fn()
        except Exception as exc:  # a crash counts as a failure, with the reason
            results.append(CheckResult(ident, params, False, f"error: {exc}"))
            continue
        if isinstance(res, Identity):
            witness = "" if res.ok else f"lhs={res.lhs!r} rhs={res.rhs!r} {res.note}".strip()
            results.append(CheckResult(ident, params, res.ok, witness))
        else:
            results.append(CheckResult(ident, params, bool(res)))
    results.sort(key=lambda r: (r.identity, r.params))
    return Report(name, results, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# verification suites


def _chapter1_checks(max_n: int) -> list[Check]:
    # the exhaustive bijection certifications run at their stated scale
    # (size 8); --max-n below that shrinks them, above only raises the budget
    top = min(max_n, 8)
    out: list[Check] = []
    for n in range(top + 1):
        out.append(("fundamental-statistics", f"n={n}", lambda n=n: tr.check_fundamental_statistics(n, max_n=max_n)))
        out.append(("fundamental-bijection", f"n={n}", lambda n=n: tr.check_fundamental_bijection(n, max_n=max_n)))
        out.append(("fundamental-roundtrip", f"n={n}", lambda n=n: tr.check_fundamental_roundtrip(n, max_n=max_n)))
    for n in range(1, top + 1):
        out.append(("record-orbit-lemma", f"n={n}", lambda n=n: tr.check_record_orbit_lemma(n, max_n=max_n)))
        out.append(("valley-position-lemma", f"n={n}", lambda n=n: tr.check_valley_position_lemma(n, max_n=max_n)))
        out.append(("biexcedent-alternating", f"n={n}", lambda n=n: tr.check_biexcedent_alternating(n, max_n=max_n)))
        out.append(("rise-transport", f"n={n}", lambda n=n: tr.check_rise_transport(n, max_n=max_n)))
        out.append(("descent-transport", f"n={n}", lambda n=n: tr.check_descent_transport(n, max_n=max_n)))
        out.append(("circular-embedding", f"n={n}", lambda n=n: tr.check_circular_embedding(n, max_n=max_n)))
        out.append(("reverse-rise", f"n={n}", lambda n=n: tr.check_reverse_rise(n, max_n=max_n)))
        out.append(("complement-count", f"n={n}", lambda n=n: tr.check_complement_count(n, max_n=max_n)))
        out.append(("fixed-point-split", f"n={n}", lambda n=n: tr.check_fixed_point_split(n, max_n=max_n)))
        for r in range(n + 1):
            out.append(("rotation-shift", f"n={n} r={r}", lambda n=n, r=r: tr.check_rotation_shift(n, r, max_n=max_n)))
    # the transport check sweeps classes one size larger, so it stops one
    # size short of the budget
    for n in range(1, min(max_n - 1, 6) + 1):
        for a in range(4):
            for b in range(4 - a):
                if a + b <= n:
                    out.append((
                        "multiset-transport",
                        f"n={n} d={a} d'={b}",
                        lambda n=n, a=a, b=b: poly.check_multiset_transport(n, a, b, max_n=max_n),
                    ))
    return out


def _chapter2_checks(max_n: int) -> list[Check]:
    out: list[Check] = []
    top = min(max_n, 8)
    for n in range(1, top + 1):
        for r in range(1, n + 1):
            out.append((
                "cross-method-tables",
                f"n={n} r={r}",
                lambda n=n, r=r: _cross_method(n, r, max_n),
            ))
        out.append(("symmetry", f"n={n}", lambda n=n: poly.check_symmetry(n)))
        out.append(("frobenius", f"n={n}", lambda n=n: poly.frobenius_identity(n)))
        for r in range(1, n + 1):
            out.append(("riordan-stirling", f"n={n} r={r}", lambda n=n, r=r: poly.riordan_stirling_identity(n, r)))
        for m in range(1, top + 1):
            out.append(("worpitzky", f"m={m} n={n}", lambda m=m, n=n: poly.worpitzky(m, n)))
    out.append(("divisibility-mass", f"n<={top}", lambda: poly.check_divisibility_and_mass(top)))
    for n in range(1, min(max_n, 6) + 1):
        for m in range(1, min(max_n, 6) + 1):
            for r in range(1, min(m, n) + 1):
                out.append((
                    "worpitzky-generalized",
                    f"m={m} n={n} r={r}",
                    lambda m=m, n=n, r=r: poly.worpitzky_generalized(m, n, r),
                ))
    small = min(max_n, 7)
    for n in range(1, small + 1):
        for r in range(1, min(n, 3) + 1):
            out.append((
                "reciprocal-descent",
                f"n={n} r={r}",
                lambda n=n, r=r: poly.check_reciprocal_descent_interpretation(n, r, max_n=max_n),
            ))
        for r in range(2, min(n, 3) + 1):
            out.append((
                "newcomb-specialization",
                f"n={n} r={r}",
                lambda n=n, r=r: poly.newcomb_specialization(n, r, max_n=max_n),
            ))
        for r in range(min(n, 3) + 1):
            out.append((
                "injection-interpretation",
                f"n={n} r={r}",
                lambda n=n, r=r: Identity(
                    poly.injection_polynomial(n, r, max_n=max_n)
                    == poly.eulerian_triangle_recurrence(n, r) * Fraction(1, poly.factorial(r)),
                    poly.injection_polynomial(n, r, max_n=max_n),
                    poly.eulerian_triangle_recurrence(n, r),
                ),
            ))
        out.append(("mixed-specializations", f"n={n}", lambda n=n: poly.check_mixed_specializations(n, max_n=max_n)))
        out.append((
            "roselle-two-routes",
            f"n={n}",
            lambda n=n: Identity(
                poly.roselle_polynomial(n, max_n=max_n)
                == poly.roselle_polynomial(n, "rises_succession_free", max_n=max_n),
                poly.roselle_polynomial(n, max_n=max_n),
                poly.roselle_polynomial(n, "rises_succession_free", max_n=max_n),
            ),
        ))
    for n in range(1, min(max_n, 6) + 1):
        for r in (1, 2, 3):
            out.append((
                "cycle-weight-shift",
                f"n={n} r={r}",
                lambda n=n, r=r: poly.q_identity_integer_shift(n, r, max_n=max_n),
            ))
        out.append(("cycle-weight-reciprocal", f"n={n}", lambda n=n: poly.q_identity_reciprocal(n, max_n=max_n)))
    for p in range(2, min(max_n, 8) + 1):
        for q in range(1, p + 1):
            out.append((
                "stirling-modes",
                f"p={p} q={q}",
                lambda p=p, q=q: Identity(
                    poly.stirling2(p, q) == poly.stirling2(p, q, "quasi_permutation"),
                    poly.stirling2(p, q),
                    poly.stirling2(p, q, "quasi_permutation"),
                ),
            ))
    return out


def _cross_method(n: int, r: int, max_n: int) -> Identity:
    base = poly.eulerian_triangle_recurrence(n, r)
    routes = {
        "enumeration": poly.eulerian_by_enumeration(n, r, max_n=max_n),
        "shift-recurrence": poly.eulerian_shift_recurrence(n, r),
        "egf-extraction": ser.eulerian_from_egf(n, r),
    }
    if r >= 1:
        routes["explicit-sum"] = poly.eulerian_explicit(n, r)
    for name, candidate in routes.items():
        if candidate != base:
            return Identity(False, candidate, base, f"route {name}")
    return Identity(True, base, base)


def _series_checks(order: int, max_n: int, fn_scan_max: int) -> list[Check]:
    enum_order = min(order, max_n)
    perm_top = min(5, max_n)
    out: list[Check] = [
        ("mixed-egf-exponential-form", f"order={enum_order}", lambda: ser.check_mixed_egf_exponential_form(enum_order, max_n=max_n)),
        ("bernoulli-ode", f"order={order}", lambda: ser.check_bernoulli_ode(order)),
        ("convolution-recurrence", f"n<={order}", lambda: ser.check_convolution_recurrence(order)),
        ("tree-equation", f"order={min(order, fn_scan_max)}", lambda: ser.check_tree_equation(min(order, fn_scan_max), max_scan=fn_scan_max)),
        ("secant-exp-integral-tangent", f"order={order}", lambda: ser.check_secant_is_exp_integral_tangent(order)),
        ("mixed-permanent", f"n<={perm_top}", lambda: ser.check_mixed_permanent(perm_top, max_n=max_n)),
    ]
    for label, check in ser.check_mixed_egf_closed_form(order, max_n=max_n):
        out.append((label, f"order={order}", lambda check=check: check))
    for label, check in ser.check_fixed_point_split_relations(order):
        out.append((label, f"order={order}", lambda check=check: check))
    for r in range(1, 6):
        out.append(("shifted-egf-powers", f"r={r} order={order}", lambda r=r: ser.check_shifted_egf_powers(r, order)))
    weights = {
        "cycle-indicator": ser.cycle_indicator_weight(list(range(1, enum_order + 1))),
        "biexcedent": ser.biexcedent_weight,
        "matrix-entries": ser.matrix_entry_weight(2, 1, 3),
    }
    bundle_cache: dict = {}

    def bundled(label: str) -> Identity:
        if not bundle_cache:
            bundle_cache.update(ser.exponential_formula_bundle(weights, enum_order, max_n=max_n))
        return _both_identities(bundle_cache[label])

    for label in weights:
        out.append((f"exponential-formula-{label}", f"order={enum_order}", lambda label=label: bundled(label)))
    theta_order = min(enum_order, 7)
    out.append((
        "exponential-formula-fixed-point-split",
        f"order={theta_order}",
        lambda: _both_identities(ser.check_exponential_formula(ser.fixed_point_split_weight, theta_order, max_n=max_n)),
    ))
    for r in (1, 2, 3):
        out.append((
            "cycle-weighted-egf-power",
            f"r={r} order=6",
            lambda r=r: ser.check_cycle_weighted_power(r, min(6, enum_order), max_n=max_n),
        ))
    for a, b, c in ((2, 1, 3), (1, 1, 1), (2, 5, 2), (0, 3, 1)):
        for label, check in ser.check_permanent_determinant(a, b, c, order, max_size=max(order, 9)):
            out.append((f"{label}", f"a={a} b={b} c={c} order={order}", lambda check=check: check))
    for label, check in ser.check_staircase_examples(order):
        out.append((label, f"order={order}", lambda check=check: check))
    out.append(("tangent-secant-table", "order=14", _tan_sec_table_check))
    return out


def _both_identities(pair: tuple[Identity, Identity]) -> Identity:
    eq_exp, eq_inv = pair
    return eq_exp if not eq_exp.ok else eq_inv


_EULER_NUMBERS = (1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256, 199360981)


def _tan_sec_table_check() -> Identity:
    tan, sec = ser.tangent_secant_series(14)
    got = tuple(
        as_int((tan if m % 2 else sec).coefficient(m) * poly.factorial(m)) for m in range(1, 15)
    )
    return Identity(got == _EULER_NUMBERS, got, _EULER_NUMBERS)


def _chapter5_checks(max_n: int) -> list[Check]:
    # word sweeps run at their stated scale (size 8) within the budget
    top = min(max_n, 8)
    out: list[Check] = []
    for n in range(3, top + 1):
        out.append(("word-derivation-step", f"n={n}", lambda n=n: words.check_derivation_step(n, max_n=max_n)))
    if top >= 2:
        out.append((
            "c-triangle-modes",
            f"n<={top}",
            lambda: Identity(
                words.c_triangle(top) == words.c_triangle(top, "abelianization", max_n=max_n),
                words.c_triangle(top),
                words.c_triangle(top, "abelianization", max_n=max_n),
            ),
        ))
    for n in range(2, max(top, 9) + 1):
        out.append(("valley-expansion", f"n={n}", lambda n=n: words.check_valley_expansion(n)))
    for p in range(1, min(max_n, 10) // 2 + 1):
        out.append(("tangent-alternating-sum", f"p={p}", lambda p=p: words.check_tangent_alternating_sum(p, max_n=max_n)))
        out.append(("secant-alternating-sum", f"p={p}", lambda p=p: words.check_secant_alternating_sum(p, max_n=max_n)))
    for n in range(2, min(max_n, 7) + 1):
        out.append(("reversal-bridge", f"n={n}", lambda n=n: words.check_reversal_bridge(n, max_n=max_n)))
    limit = min(max_n, 10)
    out.append((
        "euler-number-modes",
        f"n<={limit}",
        lambda: Identity(
            words.euler_numbers(limit, "enumeration", max_n=max_n)
            == words.euler_numbers(limit)
            == words.euler_numbers(limit, "series"),
            words.euler_numbers(limit, "enumeration", max_n=max_n),
            words.euler_numbers(limit),
        ),
    ))
    out.append((
        "euler-number-table",
        "n<=14",
        lambda: Identity(
            words.euler_numbers(14) == _EULER_NUMBERS and words.euler_numbers(14, "series") == _EULER_NUMBERS,
            words.euler_numbers(14),
            _EULER_NUMBERS,
        ),
    ))
    return out


_SUITES = ("chapter1", "chapter2", "series", "chapter5", "all")


def run_verification(suite: str, max_n: int, order: int, fn_scan_max: int) -> Report:
    if suite == "chapter1":
        return _run_suite(suite, lambda: _chapter1_checks(max_n))
    if suite == "chapter2":
        return _run_suite(suite, lambda: _chapter2_checks(max_n))
    if suite == "series":
        return _run_suite(suite, lambda: _series_checks(order, max_n, fn_scan_max))
    if suite == "chapter5":
        return _run_suite(suite, lambda: _chapter5_checks(max_n))
    report = Report("all")
    for name in _SUITES[:-1]:
        sub = run_verification(name, max_n, order, fn_scan_max)
        report.results.extend(
            CheckResult(f"{sub.suite}/{r.identity}", r.params, r.ok, r.witness) for r in sub.results
        )
        report.elapsed += sub.elapsed
    report.results.sort(key=lambda r: (r.identity, r.params))
    return report


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


def parse_permutation(text: str) -> Permutation:
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
    return perms.trusted_perm(values)


_STATS: dict[str, Callable[[Permutation], object]] = {
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

_MAPS: dict[str, Callable[[Permutation], Permutation]] = {
    "fundamental": tr.fundamental,
    "fundamental-inverse": tr.fundamental_inverse,
    "tilde": tr.reverse,
    "check": tr.complement_reverse,
    "bar": tr.excedance_to_rise,
    "prime": tr.excedance_to_descent,
    "double-prime": tr.to_circular,
}


def _cmd_tables(args) -> int:
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
        value = _STATS[name](p)
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


def _cmd_poly(args) -> int:
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
    order = args.order
    if args.which == "tan":
        s = ser.tangent_secant_series(order)[0]
    elif args.which == "sec":
        s = ser.tangent_secant_series(order)[1]
    elif args.which == "classical-egf":
        s = ser.classical_egf_closed_form(order, at=Fraction(args.t))
    else:  # derangement-egf
        s = ser.roselle_egf_closed_form(order, at=Fraction(args.t))
    coeffs = [str(Fraction(c)) for c in s.coeffs]
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
            "results": [
                {"identity": r.identity, "params": r.params, "ok": r.ok, "witness": r.witness}
                for r in report.results
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in report.results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.identity} [{r.params}]"
            if r.witness:
                line += f" {r.witness}"
            print(line)
        passed = sum(1 for r in report.results if r.ok)
        print(f"{report.suite}: {passed}/{len(report.results)} passed in {report.elapsed:.1f}s")
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
    q.add_argument("--t", type=int, default=-1, help="evaluation point for the EGFs")
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
