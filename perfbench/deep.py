"""The series-deep queries and the check of their JSON output."""
from __future__ import annotations

import json
from fractions import Fraction

import oracles

# `poly eulerian` stays at n <= 400: at n = 600 the recursive row cache of
# the program overflows the interpreter stack (a known defect), and this
# workload measures speed, not that limit
QUERIES = {
    "tan": ("series", "tan", "--order", "60"),
    "sec": ("series", "sec", "--order", "60"),
    "classical_egf": ("series", "classical-egf", "--order", "40"),
    "derangement_egf": ("series", "derangement-egf", "--order", "40", "--t", "2"),
    "eulerian_n400": ("poly", "eulerian", "-n", "400", "-r", "1"),
    "eulerian_n300_r3": ("poly", "eulerian", "-n", "300", "-r", "3"),
    "euler_table": ("tables", "euler-numbers"),
}


def _option(query, flag: str, default: int) -> int:
    return int(query[query.index(flag) + 1]) if flag in query else default


def expected(query) -> list:
    """The oracle's answer, in the shape the JSON output is parsed into."""
    if query[0] == "series":
        order = _option(query, "--order", 10)
        t = _option(query, "--t", -1)
        return {
            "tan": lambda: oracles.tan_coeffs(order),
            "sec": lambda: oracles.sec_coeffs(order),
            "classical-egf": lambda: oracles.classical_egf_at(order, t),
            "derangement-egf": lambda: oracles.derangement_egf_at(order, t),
        }[query[1]]()
    if query[0] == "poly":
        return list(oracles.eulerian_row(_option(query, "-n", 0), _option(query, "-r", 1)))
    return list(oracles.zigzag(14)[1:])


def parse(query, text: str) -> list:
    payload = json.loads(text)
    if query[0] == "series":
        return [Fraction(c) for c in payload["coeffs"]]
    if query[0] == "poly":
        return [int(c) for c in payload["coeffs"]]
    return [int(e["value"]) for e in payload["entries"]]


def check(query, text: str) -> bool:
    try:
        return parse(query, text) == expected(query)
    except (ValueError, KeyError, TypeError):
        return False
