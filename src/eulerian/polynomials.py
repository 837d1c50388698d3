"""
Exact polynomial arithmetic and the finite identities of the Eulerian family:
the shifted Eulerian polynomials by several independent routes, Stirling
numbers, Worpitzky-type summations, the Newcomb specialization, and the fixed
evaluation points used by the alternating-sum results.

Polynomials are dense ascending coefficient lists over exact arithmetic.
Every family here has integer coefficients, and no ring operation divides,
so coefficients stay ints unless a caller brings in a Fraction. A
two-variable polynomial is a Poly whose coefficients are themselves Poly
values; by convention the main variable t sits innermost and the auxiliary
variable (t' or r) outermost. Bivariate values are only ever constructed
through that convention, and generic arithmetic preserves it.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import gt
from typing import Callable, Iterable, Iterator, NamedTuple

from . import permutations as perms
from .permutations import DEFAULT_PERM_BUDGET, check_budget


class Poly:
    """Dense polynomial in one variable; trailing zeros are stripped and the
    zero polynomial has an empty coefficient list.

    >>> Poly((1, 11, 11, 1)).eval(1)
    24
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            return len(a) == len(b) and all(x == y for x, y in zip(a, b))
        if not self.coeffs:
            return other == 0
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- calculus -----------------------------------------------------------

    def eval(self, x):
        """Horner evaluation; x may be a scalar or another Poly. At a
        Fraction p/q an integer polynomial of degree d is evaluated on
        integers, as the sum of c_i p^i q^(d-i), and divided once by q^d."""
        cs = self.coeffs
        if isinstance(x, Fraction) and cs and all(isinstance(c, int) for c in cs):
            p, q = x.numerator, x.denominator
            num, scale = cs[-1], 1
            for i in range(len(cs) - 2, -1, -1):
                scale *= q
                num = num * p + cs[i] * scale
            return Fraction(num, scale)
        out = 0
        for c in reversed(cs):
            out = out * x + c
        return out

    @classmethod
    def from_balanced_digits(cls, value: int, k: int) -> "Poly":
        """The integer polynomial whose value at 2**k is `value` and whose
        coefficients all lie in [-2**(k-1), 2**(k-1)): the balanced base-2**k
        digits of `value`, least significant first. It inverts eval(1 << k)
        on the polynomials with coefficients in that range. Width 1 is
        refused: its digits -1 and 0 cannot write a positive value."""
        if k < 2:
            raise ValueError(f"balanced digits need width k >= 2, got {k}")
        return cls(balanced_digits(value, k))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    def shift_down(self, k: int = 1) -> "Poly":
        """Exact division by the k-th power of the variable."""
        if any(self.coeffs[:k]):
            raise ArithmeticError(f"{self!r} is not divisible by the variable")
        return Poly(self.coeffs[k:])


def balanced_digits(value: int, k: int) -> Iterator[int]:
    """The balanced base-2**k digits of `value`, least significant first,
    each in [-2**(k-1), 2**(k-1)); needs k >= 2 (see
    :meth:`Poly.from_balanced_digits`)."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    while value:
        digit = value & mask
        value >>= k
        if digit >= half:
            digit -= 1 << k
            value += 1
        yield digit


#: the polynomial variable (t at the base level)
T = Poly((0, 1))


def reciprocal_poly(p: Poly, degree: int) -> Poly:
    """Coefficient reversal t**degree * p(1/t); needs degree >= deg p."""
    cs = p.coeffs
    if len(cs) - 1 > degree:
        raise ValueError(f"degree {degree} below deg {p!r}")
    out = [0] * (degree + 1)
    for i, c in enumerate(cs):
        out[degree - i] = c
    return Poly(out)


def as_int(x) -> int:
    """Exact conversion of an int or integral Fraction."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return x.numerator
    return int(x)


def comb0(a: int, b: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= b <= a."""
    return comb(a, b) if 0 <= b <= a else 0


class Identity(NamedTuple):
    """Outcome of an identity check, carrying both sides for reporting."""

    ok: bool
    lhs: object
    rhs: object
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# shifted Eulerian polynomials: four independent finite routes
#
# Conventions throughout: the r-shifted polynomial of size n is n! once
# r >= n, and the size-0 polynomial is 1.


_TRIANGLE_ROWS: dict[tuple[int, int], tuple[int, ...]] = {}


def _triangle_row(n: int, r: int) -> tuple[int, ...]:
    # two-term coefficient recurrence
    #   a(n, k) = (k + r) a(n-1, k) + (n + 1 - k - r) a(n-1, k-1)
    # started from the single value r! at n = r; the missing rows are built
    # upward from the largest one already cached, and only rows n - 1 and n
    # are kept, the pair eulerian_triangle_recurrence compares, so memory
    # stays linear in the row length
    m = n
    while m > r and (m, r) not in _TRIANGLE_ROWS:
        m -= 1
    row = _TRIANGLE_ROWS.get((m, r), (factorial(r),))
    for size in range(m + 1, n + 1):
        if size == n:
            _TRIANGLE_ROWS[size - 1, r] = row
        row = tuple(
            (k + r) * (row[k] if k < len(row) else 0)
            + (size + 1 - k - r) * (row[k - 1] if k else 0)
            for k in range(size - r + 1)
        )
    _TRIANGLE_ROWS[n, r] = row
    return row


def eulerian_triangle_recurrence(n: int, r: int) -> Poly:
    """Shifted Eulerian polynomial from the coefficient triangle; the row is
    cross-checked against the equivalent first-order differential recurrence
    before being returned."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if r < 0:
        raise ValueError("shift must be nonnegative")
    if r >= n:
        return Poly((factorial(n),))
    row = Poly(_triangle_row(n, r))
    prev = Poly(_triangle_row(n - 1, r)) if r <= n - 1 else Poly((factorial(n - 1),))
    expected = (r + (n - r) * T) * prev + T * (1 - T) * prev.derivative()
    if row != expected:
        raise ArithmeticError(f"triangle row ({n}, {r}) fails the differential form")
    return row


def eulerian_polynomial(n: int) -> Poly:
    """Classical Eulerian polynomial (shift 1)."""
    return eulerian_triangle_recurrence(n, 1)


def _eulerian_column(n: int) -> dict[int, Poly]:
    # the classical polynomials A_0, ..., A_n by the derivative recurrence
    #   A_{m+1}(t) = (1 + m t) A_m(t) + t (1 - t) A_m'(t),  A_0 = 1,
    # a column of its own, apart from the coefficient triangle
    col = {0: Poly((1,))}
    for m in range(n):
        col[m + 1] = (1 + m * T) * col[m] + T * (1 - T) * col[m].derivative()
    return col


def eulerian_shift_recurrence(n: int, r: int) -> Poly:
    """Shifted Eulerian polynomial by climbing the shift, one step at a time,
    from the classical column, which the derivative recurrence
    A_{m+1} = (1 + m t) A_m + t (1 - t) A_m' builds:

        t * next(n) = cur(n) + s (t - 1) cur(n - 1)

    The division by t must be exact; a nonzero constant term means an
    internal inconsistency.
    """
    if r < 0:
        raise ValueError("shift must be nonnegative")
    if r >= n:
        return Poly((factorial(n),))
    col = _eulerian_column(n)
    if r == 0:
        # downward step of the same relation: the 0-shift is t times shift 1
        return T * col[n]
    for s in range(1, r):
        col = {
            m: (col[m] + s * (T - 1) * col[m - 1]).shift_down()
            for m in range(s + 1, n + 1)
        }
    return col[n]


def eulerian_by_enumeration(n: int, r: int) -> Poly:
    """Shifted Eulerian polynomial by enumeration: the generating polynomial,
    over all permutations of size n, of the positive entries of the excedance
    vector lowered r times."""
    if r < 0:
        raise ValueError("shift must be nonnegative")
    if r >= n:
        return Poly((factorial(n),))
    # entry i + 1 of the lowered vector is positive when the value there is j + 1 >= i + 1 + r
    totals = perms.position_sum_counts(n, [[int(i < n - r and j >= i + r) for j in range(n)] for i in range(n)])
    return Poly(totals[c] for c in range(n + 1))


def eulerian_coefficient_explicit(n: int, r: int, k: int) -> int:
    """Single coefficient of the shifted polynomial of size n - 1 + r by the
    alternating binomial sum; always a nonnegative multiple of r!."""
    if r < 1:
        raise ValueError("the explicit sum needs r >= 1")
    if not 0 <= k <= n - 1:
        raise ValueError(f"index k={k} outside 0..{n - 1}")
    total = sum(
        (-1) ** i * (k - i + r) ** (n - 1) * comb0(n + r, i) * comb0(k - i + r, r)
        for i in range(k + 1)
    )
    value = factorial(r) * total
    if value < 0 or value % factorial(r):
        raise ArithmeticError(f"explicit sum broke at (n={n}, r={r}, k={k}): {total}")
    return value


def eulerian_explicit(m: int, r: int) -> Poly:
    """Shifted Eulerian polynomial of size m assembled from the explicit
    coefficient sum (requires 1 <= r <= m)."""
    if not 1 <= r <= m:
        raise ValueError("explicit assembly needs 1 <= r <= m")
    n = m - r + 1
    return Poly(tuple(eulerian_coefficient_explicit(n, r, k) for k in range(n)))


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind


_STIRLING_ROWS: dict[int, tuple[int, ...]] = {1: (1,)}


def _stirling_row(p: int) -> tuple[int, ...]:
    # S(p, q) = S(p-1, q-1) + q S(p-1, q), rows built upward from the largest
    # one already cached, and every row is kept
    m = p
    while m not in _STIRLING_ROWS:
        m -= 1
    row = _STIRLING_ROWS[m]
    for size in range(m + 1, p + 1):
        row = tuple(
            (row[q - 2] if q >= 2 else 0) + q * (row[q - 1] if q < size else 0)
            for q in range(1, size + 1)
        )
        _STIRLING_ROWS[size] = row
    return row


def stirling2(p: int, q: int) -> int:
    """Number of partitions of a p-set into q blocks, by the classical
    two-term recurrence."""
    if not 1 <= q <= p:
        raise ValueError(f"need 1 <= q <= p, got p={p}, q={q}")
    return _stirling_row(p)[q - 1]


def stirling2_by_quasi_permutations(p: int, q: int) -> int:
    """The same number as ``stirling2``, by exhaustively counting the
    supradiagonal partial injections with p - q pairs (row and column entries
    all distinct, every pair strictly above the diagonal)."""
    if not 1 <= q <= p:
        raise ValueError(f"need 1 <= q <= p, got p={p}, q={q}")
    check_budget(p, 8, "quasi-permutation scan")
    pairs = [(i, j) for i in range(1, p + 1) for j in range(i + 1, p + 1)]

    def count(idx: int, left: int, rows: int, cols: int) -> int:
        if left == 0:
            return 1
        if len(pairs) - idx < left:
            return 0
        i, j = pairs[idx]
        total = count(idx + 1, left, rows, cols)
        if not (rows >> i) & 1 and not (cols >> j) & 1:
            total += count(idx + 1, left - 1, rows | (1 << i), cols | (1 << j))
        return total

    return count(0, p - q, 0, 0)


def frobenius_identity(n: int) -> Identity:
    """Eulerian polynomial as a Stirling-weighted expansion in powers of
    (t - 1), checked by exact binomial transform."""
    lhs = eulerian_polynomial(n)
    rhs = Poly()
    for k in range(n):
        rhs = rhs + factorial(n - k) * stirling2(n, n - k) * (T - 1) ** k
    return Identity(lhs == rhs, lhs, rhs)


def riordan_stirling_identity(n: int, r: int) -> Identity:
    """Shifted polynomial at t = s + 1 versus its Stirling expansion in s."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    lhs = eulerian_triangle_recurrence(n, r).eval(Poly((1, 1)))
    rhs = Poly(
        tuple(factorial(n - k) * stirling2(n + 1 - r, n + 1 - r - k) for k in range(n - r + 1))
    )
    return Identity(lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# Worpitzky-type summations


def worpitzky(m: int, n: int) -> Identity:
    """m**n as a binomial combination of the Eulerian numbers."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    row = eulerian_polynomial(n).coeffs
    rhs = sum(comb0(m + s, n) * row[s] for s in range(len(row)))
    return Identity(m**n == rhs, m**n, rhs)


def worpitzky_generalized(m: int, n: int, r: int) -> Identity:
    """Shifted version: the reversed coefficients against binomials sum to
    m**(n-r) * m!/(m-r)!."""
    if not 1 <= r <= n or r > m:
        raise ValueError("need r in [n] and r <= m")
    poly = eulerian_triangle_recurrence(n, r)
    lhs = sum(
        poly.coefficient(n - r - s) * comb0(m + s, n) for s in range(n - r + 1)
    )
    rhs = m ** (n - r) * factorial(m) // factorial(m - r)
    return Identity(lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# Newcomb specialization and further interpretations


def newcomb_specialization(n: int, r: int) -> Identity:
    """Reciprocal shifted polynomial against r! times the descent generating
    polynomial over the words whose r largest values appear in order."""
    if r < 2:
        raise ValueError("the specialization needs r >= 2")
    lhs = reciprocal_poly(eulerian_triangle_recurrence(n, r), n - r)
    counts = [0] * (n + 1)
    for p in perms.enumerate_class(n, perms.r_tail_ordered(r)):
        counts[perms.positive_count(perms.delta(perms.descent_vector(p)))] += 1
    rhs = factorial(r) * Poly(counts)
    return Identity(lhs == rhs, lhs, rhs)


@lru_cache(maxsize=None)
def _roselle_counts(n: int) -> tuple[int, ...]:
    # a fixed point weighs -n and outweighs any word's excedances: only derangements total >= 0
    totals = perms.position_sum_counts(n, [[-n if j == i else int(j > i) for j in range(n)] for i in range(n)])
    return tuple(totals[e] for e in range(n + 1))


def roselle_polynomial(n: int) -> Poly:
    """Generating polynomial of excedances over fixed-point-free
    permutations of size n."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    return Poly(_roselle_counts(n))


def roselle_by_rises(n: int) -> Poly:
    """The same polynomial as ``roselle_polynomial``, as the generating
    polynomial of rises over succession-free permutations of size n."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    counts = [0] * (n + 1)
    for p in perms.enumerate_class(n, perms.SUCCESSION_FREE):
        counts[perms.positive_count(perms.rise_vector(p))] += 1
    return Poly(counts)


@lru_cache(maxsize=None)
def _fix_exc_counts(n: int) -> tuple[tuple[int, ...], ...]:
    # [f][e]: the words with f fixed points and e strict excedances, which total f * (n + 1) + e
    totals = perms.position_sum_counts(n, [[n + 1 if j == i else int(j > i) for j in range(n)] for i in range(n)])
    return tuple(tuple(totals[f * (n + 1) + e] for e in range(n + 1)) for f in range(n + 1))


def abar_polynomial(n: int) -> Poly:
    """Joint generating polynomial of fixed points (outer variable t') and
    strict excedances (inner variable t) over all permutations of size n.

    Specializing the outer variable to t, 1, 0 yields the excedance
    polynomial, the classical Eulerian polynomial, and the derangement
    restriction respectively.
    """
    return Poly(tuple(Poly(row) for row in _fix_exc_counts(n)))


def q_polynomial(n: int) -> Poly:
    """Joint generating polynomial of cycle count (outer variable r) and
    strict excedances (inner variable t)."""
    words = perms.enumerate_class(n)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for word in words:
        exc = sum(1 for k, v in enumerate(word, start=1) if v > k)
        counts[perms.cycle_count(word)][exc] += 1
    return Poly(tuple(Poly(row) for row in counts))


def rise_record_polynomial(n: int) -> Poly:
    """Joint generating polynomial of left-to-right maxima (outer variable r)
    and positive rise entries (inner variable t)."""
    counts = [[0] * (n + 2) for _ in range(n + 1)]
    for p in perms.enumerate_class(n):
        m = perms.positive_count(perms.rise_vector(p))
        counts[perms.ltr_maximum_count(p)][m] += 1
    return Poly(tuple(Poly(row) for row in counts))


def q_identity_integer_shift(n: int, r: int) -> Identity:
    """For integer r >= 1 the cycle-weighted polynomial at that value equals
    the shifted Eulerian polynomial of size n + r - 1 over (r-1)!."""
    q = q_polynomial(n)
    lhs = eulerian_triangle_recurrence(n + r - 1, r)
    rhs = factorial(r - 1) * q.eval(r)
    return Identity(lhs == rhs, lhs, rhs)


def q_identity_reciprocal(n: int) -> Identity:
    """The rise/record polynomial is the t-reciprocal (to degree n) of the
    cycle/excedance polynomial, as a two-variable identity."""
    q = q_polynomial(n)
    rhs = Poly(tuple(reciprocal_poly(c, n) for c in q.coeffs))
    lhs = rise_record_polynomial(n)
    return Identity(lhs == rhs, lhs, rhs)


def injection_polynomial(n: int, r: int) -> Poly:
    """Generating polynomial, over injections of {1..n-r} into {1..n}, of the
    entries of the excedance vector that stay positive after r lowerings;
    equals the shifted Eulerian polynomial divided by r!."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    check_budget(n, DEFAULT_PERM_BUDGET, "injection enumeration")
    counts = [0] * (n + 1)
    # the value at position k stays positive after r lowerings when it is above k - 1 + r
    bounds = range(r, n)
    for phi in itertools.permutations(range(1, n + 1), n - r):
        counts[sum(map(gt, phi, bounds))] += 1
    return Poly(counts)


@lru_cache(maxsize=1)
def _transport_families(n: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    # the raw vector multisets of check_multiset_transport at size n, as
    # (vector, multiplicity) pairs, so that one sweep per family serves
    # every operator; the plain descent family comes last
    def tally(size: int, tag, vector: Callable[[tuple[int, ...]], tuple[int, ...]]):
        return tuple(Counter(vector(p) for p in perms.enumerate_class(size, tag)).items())

    return (
        tally(n, perms.ALL, perms.excedance_vector),
        tally(n, perms.ALL, perms.descent_plus_certificate),
        tally(n, perms.ALL, perms.rise_vector),
        tally(n + 1, perms.CIRCULAR, lambda p: perms.delta(perms.excedance_vector(p))),
        tally(n + 1, perms.FIRST_IS_N, lambda p: perms.delta(perms.descent_vector(p))),
        tally(n, perms.ALL, perms.descent_vector),
    )


def check_multiset_transport(n: int, n_delta: int, n_prime: int) -> Identity:
    """After applying delta^a delta'^b, the excedance, descent-certificate
    and rise statistics over size n, the lowered excedances over circular
    words of size n+1, and the lowered descents over size-(n+1) words
    starting with n+1 all give the same multiset of vectors; the plain
    descent statistic joins them exactly when a >= 1.

    Each family is swept once per size and kept for the last size asked,
    so consecutive calls at one size share the sweeps."""
    a, b = n_delta, n_prime
    if a + b > n:
        raise ValueError("operator degree exceeds the vector length")

    def pushed(family: tuple[tuple[tuple[int, ...], int], ...]) -> Counter:
        out: Counter = Counter()
        for v, mult in family:
            out[perms.delta_power(v[b:], a)] += mult
        return out

    *families, descents = map(pushed, _transport_families(n))
    if any(fam != families[0] for fam in families[1:]):
        return Identity(False, families[0], families, f"Gamma = d^{a} d'^{b}")
    matches = descents == families[0]
    # the plain descent family coincides exactly when a delta factor is
    # present, except in the degenerate case a + b >= n where every vector
    # is empty and all families collapse together
    if matches != (a >= 1 or a + b >= n):
        return Identity(False, matches, a >= 1, "descent-family membership")
    return Identity(True, families[0], families[0])


def check_symmetry(n: int) -> Identity:
    """Coefficient reversal fixes the classical polynomial to degree n-1 and
    sends it to the 0-shift polynomial to degree n."""
    a = eulerian_polynomial(n)
    ok = reciprocal_poly(a, n - 1) == a and reciprocal_poly(a, n) == eulerian_shift_recurrence(
        n, 0
    )
    return Identity(ok, a, reciprocal_poly(a, n - 1))


def check_reciprocal_descent_interpretation(n: int, r: int) -> Identity:
    """The degree-(n-r) reversal of the shifted polynomial is the generating
    polynomial of the descent vector lowered once and cropped r-1 times from
    the end, and also of the excedance vector cropped once from the front
    and r-1 times from the end."""
    if r < 1:
        raise ValueError("needs r >= 1")
    lhs = reciprocal_poly(eulerian_triangle_recurrence(n, r), n - r)
    counts_d = [0] * (n + 1)
    counts_e = [0] * (n + 1)
    for p in perms.enumerate_class(n):
        v = perms.delta(perms.descent_vector(p))
        counts_d[perms.positive_count(v[: len(v) - (r - 1)])] += 1
        e = perms.excedance_vector(p)
        counts_e[perms.positive_count(e[1 : n - r + 1])] += 1
    if lhs != Poly(counts_d):
        return Identity(False, lhs, Poly(counts_d), "descent route")
    return Identity(lhs == Poly(counts_e), lhs, Poly(counts_e), "excedance route")


def check_divisibility_and_mass(n_max: int) -> Identity:
    """Every coefficient of the r-shifted polynomial is a nonnegative
    multiple of r!, and the coefficients of each polynomial sum to n!."""
    for n in range(n_max + 1):
        for r in range(n + 1):
            poly = eulerian_triangle_recurrence(n, r)
            if poly.eval(1) != factorial(n):
                return Identity(False, poly.eval(1), factorial(n), f"(n={n}, r={r})")
            for c in poly.coeffs:
                if c < 0 or c % factorial(r):
                    return Identity(False, c, factorial(r), f"(n={n}, r={r})")
    return Identity(True, n_max, n_max)


def check_mixed_specializations(n: int) -> Identity:
    """The joint fixed-point/excedance polynomial specializes to the 0-shift,
    classical, and derangement polynomials at outer values t, 1, 0."""
    bar = abar_polynomial(n)
    # bar.eval(0) and roselle_polynomial share the position-sum sweep, not its weights
    ok = (
        bar.eval(T) == eulerian_shift_recurrence(n, 0)
        and bar.eval(1) == eulerian_polynomial(n)
        and bar.eval(0) == roselle_polynomial(n)
    )
    return Identity(ok, bar, n)


def eulerian_at_minus_one(n: int) -> int:
    """Exact value of the classical Eulerian polynomial at t = -1."""
    return as_int(eulerian_polynomial(n).eval(-1))


def roselle_at_minus_one(n: int) -> int:
    """Exact value of the derangement-excedance polynomial at t = -1."""
    return as_int(roselle_polynomial(n).eval(-1))


__all__ = [
    "Identity",
    "Poly",
    "T",
    "abar_polynomial",
    "as_int",
    "balanced_digits",
    "check_divisibility_and_mass",
    "check_mixed_specializations",
    "check_multiset_transport",
    "check_reciprocal_descent_interpretation",
    "check_symmetry",
    "comb0",
    "eulerian_at_minus_one",
    "eulerian_by_enumeration",
    "eulerian_coefficient_explicit",
    "eulerian_explicit",
    "eulerian_polynomial",
    "eulerian_shift_recurrence",
    "eulerian_triangle_recurrence",
    "frobenius_identity",
    "injection_polynomial",
    "newcomb_specialization",
    "q_identity_integer_shift",
    "q_identity_reciprocal",
    "q_polynomial",
    "reciprocal_poly",
    "riordan_stirling_identity",
    "rise_record_polynomial",
    "roselle_at_minus_one",
    "roselle_by_rises",
    "roselle_polynomial",
    "stirling2",
    "stirling2_by_quasi_permutations",
    "worpitzky",
    "worpitzky_generalized",
]
