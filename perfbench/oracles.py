"""Reference values the benchmark checks the program against.

Nothing here imports ``eulerian``: every value is recomputed from its
textbook definition, so a check never compares a route with itself.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


# -- Euler zigzag numbers -----------------------------------------------------


@lru_cache(maxsize=None)
def zigzag(limit: int) -> tuple[int, ...]:
    """E_0..E_limit by the Seidel-Entringer boustrophedon:
    E(n, 0) = 0 and E(n, k) = E(n, k-1) + E(n-1, n-k), with E_n = E(n, n)."""
    row = [1]
    out = [1]
    for n in range(1, limit + 1):
        new = [0]
        for k in range(1, n + 1):
            new.append(new[k - 1] + row[n - k])
        row = new
        out.append(new[n])
    return tuple(out)


def tan_coeffs(order: int) -> list[Fraction]:
    e = zigzag(order)
    return [Fraction(e[k], factorial(k)) if k % 2 else Fraction(0) for k in range(order + 1)]


def sec_coeffs(order: int) -> list[Fraction]:
    e = zigzag(order)
    return [Fraction(0) if k % 2 else Fraction(e[k], factorial(k)) for k in range(order + 1)]


# -- shifted Eulerian polynomials ---------------------------------------------
#
# A_{n,r}(t) counts permutations of size n by the number of positions i with
# sigma(i) - i >= r. From the row recurrence one gets
#   A_{n,r}(t) / (1 - t)^(n+1) = r! sum_{x >= 0} C(x + r, r) (x + r)^(n-r) t^x,
# hence the explicit alternating sum used below.


@lru_cache(maxsize=None)
def eulerian_row(n: int, r: int) -> tuple[int, ...]:
    """Coefficients of A_{n,r} (r >= 1); the constant n! once r >= n."""
    if r < 1:
        raise ValueError("the explicit sum needs r >= 1")
    if r >= n:
        return (factorial(n),)
    d = n - r
    powers = [comb(x + r, r) * (x + r) ** d for x in range(d + 1)]
    signed = [(-1) ** i * comb(n + 1, i) for i in range(d + 1)]
    fr = factorial(r)
    return tuple(
        fr * sum(signed[i] * powers[k - i] for i in range(k + 1)) for k in range(d + 1)
    )


def eval_row(row, t) -> Fraction:
    return sum((Fraction(c) * Fraction(t) ** k for k, c in enumerate(row)), Fraction(0))


def classical_egf_at(order: int, t) -> list[Fraction]:
    """[u^n] of the classical EGF at t: A_n(t) / n!, with A_0 = 1."""
    return [Fraction(1)] + [
        eval_row(eulerian_row(n, 1), t) / factorial(n) for n in range(1, order + 1)
    ]


@lru_cache(maxsize=None)
def derangement_row(n: int) -> tuple[int, ...]:
    """Excedances over derangements, by binomial inversion of the excedance
    polynomials: A_n = sum_k C(n, k) d_k, since fixed points never exceed."""
    out = [0] * (n + 1)
    for k in range(n + 1):
        row = eulerian_row(k, 1) if k else (1,)
        sign = (-1) ** (n - k)
        for j, c in enumerate(row):
            out[j] += sign * comb(n, k) * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def derangement_egf_at(order: int, t) -> list[Fraction]:
    return [eval_row(derangement_row(n), t) / factorial(n) for n in range(order + 1)]


def injection_row(n: int, r: int) -> tuple[int, ...]:
    """A_{n,r} / r!, for 1 <= r <= n."""
    fr = factorial(r)
    return tuple(c // fr for c in eulerian_row(n, r))


# -- permutation statistics, straight from their definitions ------------------


def positions(p) -> list[int]:
    pos = [0] * (len(p) + 1)
    for j, v in enumerate(p, start=1):
        pos[v] = j
    return pos


def clamp(xs) -> tuple[int, ...]:
    return tuple(x if x > 0 else 0 for x in xs)


def excedance(p) -> tuple[int, ...]:
    return clamp(p[k - 1] - (k - 1) for k in range(1, len(p) + 1))


def descent(p) -> tuple[int, ...]:
    pos = positions(p)
    ext = (0,) + tuple(p)
    return clamp(ext[pos[k] - 1] - (k - 1) for k in range(1, len(p) + 1))


def rise(p) -> tuple[int, ...]:
    n = len(p)
    pos = positions(p)
    ext = tuple(p) + (0,)
    return clamp(ext[(pos[k - 1] if k >= 2 else 0)] - (k - 1) for k in range(1, n + 1))


def fixed_points(p) -> tuple[int, ...]:
    return tuple(1 if v == k else 0 for k, v in enumerate(p, start=1))


def record_positions(p) -> list[int]:
    out, best = [], 0
    for j, v in enumerate(p, start=1):
        if v > best:
            out.append(j)
            best = v
    return out


def record_certificate(p) -> tuple[int, ...]:
    n = len(p)
    records = set(record_positions(p))
    pos = positions(p)
    return tuple(
        1 if pos[v] in records and (pos[v] == n or pos[v] + 1 in records) else 0
        for v in range(1, n + 1)
    )


def cycles(p) -> int:
    seen = set()
    count = 0
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        count += 1
        k = start
        while k not in seen:
            seen.add(k)
            k = p[k - 1]
    return count


def lower_drop_last(v) -> tuple[int, ...]:
    return clamp(x - 1 for x in v[:-1])


STATS = {
    "E": excedance,
    "D": descent,
    "M": rise,
    "Dp": record_certificate,
    "Ep": fixed_points,
    "DDp": lambda p: tuple(a + b for a, b in zip(descent(p), record_certificate(p))),
    "dE": lambda p: lower_drop_last(excedance(p)),
    "dpE": lambda p: excedance(p)[1:],
    "dsE": lambda p: excedance(p)[:-1],
    "dD": lambda p: lower_drop_last(descent(p)),
    "z": cycles,
    "s": lambda p: len(record_positions(p)),
    "eps": lambda p: -1 if (cycles(p) + len(p)) % 2 else 1,
}


def is_circular(p) -> bool:
    return len(p) > 0 and cycles(p) == 1


def valley_letters(p) -> tuple[int, ...]:
    """Letters of the valley word as integers: 0 plain descent, 1 marked
    descent, 2 plain rise, 3 marked rise. The word is read cyclically, so the
    last letter compares against the first."""
    n = len(p)
    ext = tuple(p) + (p[0],)
    down = [ext[j] > ext[j + 1] for j in range(n)]
    out = []
    for j in range(n):
        if down[j]:
            out.append(0 if down[(j + 1) % n] else 1)
        else:
            out.append(3 if down[j - 1] else 2)
    return tuple(out)


# -- counts with closed forms ---------------------------------------------------


def derangements(n: int) -> int:
    return sum((-1) ** k * factorial(n) // factorial(k) for k in range(n + 1))


def stirling_first_row(n: int) -> list[int]:
    """Unsigned Stirling numbers of the first kind [n, k], k = 0..n."""
    row = [1]
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = (row[k - 1] if k - 1 < len(row) else 0) + (m - 1) * (row[k] if k < len(row) else 0)
        row = new
    return row


def banded_permanent(n: int, off: int, diag: int) -> int:
    """Permanent with `diag` on the diagonal and `off` everywhere else:
    choose the fixed points, derange the rest."""
    return sum(comb(n, k) * diag**k * derangements(n - k) * off ** (n - k) for k in range(n + 1))


def banded_determinant(n: int, off: int, diag: int) -> int:
    """Determinant of (diag - off) I + off J."""
    return (diag - off) ** (n - 1) * (diag + (n - 1) * off)


# -- word symmetries -------------------------------------------------------------


def reverse(p) -> tuple[int, ...]:
    return tuple(reversed(p))


def complement_reverse(p) -> tuple[int, ...]:
    n = len(p)
    return tuple(n + 1 - v for v in reversed(p))


def rotate_left(p, r: int) -> tuple[int, ...]:
    r %= len(p)
    return tuple(p[r:]) + tuple(p[:r])
