"""
Command-line front end: renders the coefficient tables, evaluates statistics
and bijections on a given word, prints polynomials and series, and drives
the verification suites.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors,
and 141 when the reader of the output goes away before it is written (as
for a process that SIGPIPE ends, e.g. in `eulerian verify --list | head -1`).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from . import permutations as perms
from . import polynomials as poly
from . import transforms as tr
from .permutations import BudgetError
from .polynomials import Identity, Poly, as_int


class CheckResult(NamedTuple):
    identity: str
    params: str
    status: str  # "pass", "fail", or "skip" when a budget ruled the check out
    witness: str
    elapsed: float  # seconds of the point, shared by all its identities
    swept: dict[str, int]  # each budget the point uses, from the registry
    point: int  # index of the point in registry order, shared by all its identities

    @property
    def ok(self) -> bool:
        return self.status != "fail"


class Report(NamedTuple):
    suite: str
    results: list[CheckResult]
    elapsed: float
    points: list[tuple[float, str]]  # (seconds, "name [params]")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


_SUITES = ("chapter1", "chapter2", "series", "chapter5", "all")


def run_verification(suite: str, max_n: int, order: int, fn_scan_max: int) -> Report:
    from . import registry

    budgets = {"max_n": max_n, "order": order, "fn_scan_max": fn_scan_max}
    start = time.perf_counter()
    results = []
    points = []
    for index, (decl, point, params) in enumerate(registry.suite_points(suite, budgets)):
        prefix = f"{decl.suite}/" if suite == "all" else ""
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
        results.extend(
            CheckResult(prefix + ident, params, status, witness, took, swept, index) for ident, status, witness in checked
        )
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
    from . import words

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


# `series tan --order 1000` takes 6-7 s and order 2000 over a minute
# (2 cores), so larger orders are refused before any work
_MAX_SERIES_ORDER = 1000


def _cmd_series(args) -> int:
    if args.order > _MAX_SERIES_ORDER:
        raise ValueError(f"--order must be at most {_MAX_SERIES_ORDER}, got {args.order}")
    if args.t is not None and args.which in ("tan", "sec"):
        raise ValueError(f"--t applies to the EGF series only, not {args.which}")
    from . import series as ser

    _lift_digit_limit()
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
    budgets = {"max_n": args.max_n, "order": args.order, "fn_scan_max": args.fn_scan_max}
    for name, value in budgets.items():
        if value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")
    if args.list:
        if args.format != "text":
            raise ValueError("--list prints text only")
        from . import registry

        for decl, _, params in registry.suite_points(args.suite or "all", budgets):
            print(f"{decl.suite}/{decl.name} [{params}]")
        return 0
    if args.suite is None:
        raise ValueError(f"verify needs a suite: {', '.join(_SUITES)}")
    report = run_verification(args.suite, **budgets)
    if args.format == "json":
        payload = {
            "suite": report.suite,
            "elapsed": round(report.elapsed, 3),
            "ok": report.ok,
            "results": [{**r._asdict(), "elapsed": round(r.elapsed, 3), "ok": r.ok} for r in report.results],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in report.results:
            line = f"{r.status.upper()} {r.identity} [{r.params}]"
            if r.swept:
                line += " swept " + ", ".join(f"{b}={size}" for b, size in r.swept.items())
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
    v.add_argument("suite", nargs="?", choices=_SUITES, help="required unless --list (which defaults to all)")
    v.add_argument("--list", action="store_true", help="print the points the budgets allow, without checking")
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
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed the pipe; what is still buffered goes to devnull,
        # so the flush at exit cannot raise again (the "Note on SIGPIPE" of
        # the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ends
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
