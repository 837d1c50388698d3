"""
Truncated exponential generating series in u over exact coefficients, the
permanent and determinant of small matrices over the same coefficient rings,
and the series-level identity checks: closed forms of the excedance
generating functions, the exponential formula for multiplicative weights, the
permanent/determinant inversion, and the tangent/secant expansions.

A series stores its EGF values a_n = n! [u^n]. Every series of the paper has
integer or integer-polynomial EGF values (possibly nested, with the inner
variable t and an outer auxiliary variable), and on EGF values the product
is a binomial convolution, so no operation divides. `coefficient(k)` gives
the ordinary coefficient [u^k]. Arithmetic never consults indices beyond the
truncation order.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from . import permutations as perms
from .permutations import DEFAULT_PERM_BUDGET, check_budget
from .polynomials import (
    Identity,
    Poly,
    T,
    abar_polynomial,
    balanced_digits,
    eulerian_polynomial,
    eulerian_shift_recurrence,
    eulerian_triangle_recurrence,
    roselle_polynomial,
)


def _binomial_sum(n: int, xs: Sequence, ys: Sequence, start: int = 0):
    """sum over start <= i <= n of C(n, i) xs[i] ys[n - i], skipping zero
    factors: the n-th EGF value of a product when start is 0."""
    acc = 0
    for i in range(start, n + 1):
        x, y = xs[i], ys[n - i]
        if x and y:
            acc = acc + comb(n, i) * x * y
    return acc


def _majorant_width(norms: Sequence[int]) -> int:
    """A digit width k with 2**(k-1) above every coefficient of every EGF
    value of the reciprocal of a unit series whose n-th EGF value has
    1-norm norms[n].

    The bound is the 1-norm majorant of the reciprocal's recurrence,
    M_0 = 1 and M_n = sum over i >= 1 of C(n, i) norms[i] M_(n-i): the
    1-norm of a product is at most the product of the 1-norms, so by
    induction M_n bounds the 1-norm of the n-th result value."""
    bound = [1]
    for n in range(1, len(norms)):
        bound.append(_binomial_sum(n, norms, bound, 1))
    return max(bound).bit_length() + 1


class TruncSeries:
    """Exponential generating series truncated at a fixed order N, stored as
    its EGF values a_0..a_N, where a_n = n! [u^n]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = list(coeffs)[: order + 1]
        cs.extend([0] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def coefficient(self, k: int):
        """The ordinary coefficient [u^k]."""
        return self.coeffs[k] * Fraction(1, factorial(k))

    # -- ring operations, all truncated to the common order ------------------

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            self._check(other)
            return TruncSeries(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))
        cs = list(self.coeffs)
        cs[0] = cs[0] + other
        return TruncSeries(self.order, cs)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, (-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return TruncSeries(self.order, (c * other for c in self.coeffs))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return TruncSeries(self.order, (_binomial_sum(n, a, b) for n in range(self.order + 1)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = TruncSeries(self.order, (1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TruncSeries({self.order}, {list(self.coeffs)!r})"

    # -- calculus -------------------------------------------------------------

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(order, self.coeffs[: order + 1])

    def shift_up(self) -> "TruncSeries":
        """Multiply by u, keeping the order."""
        a = self.coeffs
        return TruncSeries(self.order, [0] + [n * a[n - 1] for n in range(1, self.order + 1)])

    def derivative(self) -> "TruncSeries":
        """Term-by-term derivative; the order falls by one."""
        if self.order == 0:
            raise ValueError("derivative needs order >= 1: at order 0 no coefficient is known")
        return TruncSeries(self.order - 1, self.coeffs[1:])

    def integral(self) -> "TruncSeries":
        """Antiderivative with zero constant term; the order grows by one."""
        return TruncSeries(self.order + 1, (0,) + self.coeffs)

    def reciprocal(self) -> "TruncSeries":
        a = self.coeffs
        if not a[0] == 1:
            raise ValueError(f"reciprocal needs unit constant term, got {a[0]!r}")
        k = self._digit_width()
        if k:
            # Kronecker substitution: evaluation at t = 2**k maps Z[t] into
            # Z as a ring homomorphism, so the recurrence below runs on ints,
            # and the width makes each result's base-2**k digits its
            # coefficients
            a = [c.eval(1 << k) if isinstance(c, Poly) else c for c in a]
        out = [1]
        for n in range(1, self.order + 1):
            out.append(-_binomial_sum(n, a, out, 1))
        if k:
            out[1:] = [Poly.from_balanced_digits(v, k) for v in out[1:]]
        return TruncSeries(self.order, out)

    def _digit_width(self) -> int:
        """For EGF values that are ints or integer polynomials in one
        variable, at least one of them a polynomial, a digit width k with
        2**(k-1) above every coefficient of every EGF value of the
        reciprocal (see :func:`_majorant_width`); 0 for any other series."""
        # a series of plain ints, every closed form at a point, needs no norms
        if not any(map(isinstance, self.coeffs, itertools.repeat(Poly))):
            return 0
        norms = []
        for c in self.coeffs:
            if isinstance(c, Poly):
                if not all(isinstance(x, int) for x in c.coeffs):
                    return 0
                norms.append(sum(map(abs, c.coeffs)))
            elif isinstance(c, int):
                norms.append(abs(c))
            else:
                return 0
        return _majorant_width(norms)

    def exp(self) -> "TruncSeries":
        a = self.coeffs
        if a[0]:
            raise ValueError(f"exp needs zero constant term, got {a[0]!r}")
        # B' = A' B, read at u^(n-1)
        slope = a[1:]
        out = [1]
        for n in range(1, self.order + 1):
            out.append(_binomial_sum(n - 1, slope, out))
        return TruncSeries(self.order, out)

    def log(self) -> "TruncSeries":
        a = self.coeffs
        if not a[0] == 1:
            raise ValueError(f"log needs unit constant term, got {a[0]!r}")
        # A' = L' A, read at u^(n-1), with the a_0 = 1 term solved for l_n
        out = [0]
        slope: list = []
        for n in range(1, self.order + 1):
            value = a[n] - _binomial_sum(n - 1, a, slope, 1)
            out.append(value)
            slope.append(value)
        return TruncSeries(self.order, out)

    def map_coefficients(self, fn: Callable) -> "TruncSeries":
        """Apply fn to every EGF value; meant for maps that are additive and
        commute with integer scaling, such as evaluation or exact division."""
        return TruncSeries(self.order, (fn(c) for c in self.coeffs))

    def substitute(self, value) -> "TruncSeries":
        """Evaluate every polynomial coefficient at the given value, a ring
        homomorphism on coefficients."""
        return self.map_coefficients(lambda c: c.eval(value) if isinstance(c, Poly) else c)


def constant_series(value, order: int) -> TruncSeries:
    return TruncSeries(order, (value,))


def exp_of_linear(c, order: int) -> TruncSeries:
    """exp(c * u): its n-th EGF value is c**n."""
    coeffs = [1]
    for _ in range(order):
        coeffs.append(coeffs[-1] * c)
    return TruncSeries(order, coeffs)


def series_from_polynomials(family: Callable[[int], object], order: int) -> TruncSeries:
    """Exponential generating series whose n-th EGF value is family(n)."""
    return TruncSeries(order, (family(n) for n in range(order + 1)))


def series_identity(lhs: TruncSeries, rhs: TruncSeries, note: str = "") -> Identity:
    """Compare two series up to the smaller order, reporting the first
    mismatching coefficient index."""
    upto = min(lhs.order, rhs.order)
    for k in range(upto + 1):
        if not lhs.coeffs[k] == rhs.coeffs[k]:
            return Identity(False, lhs, rhs, f"first mismatch at u^{k}{'; ' if note else ''}{note}")
    return Identity(True, lhs, rhs, note)


# ---------------------------------------------------------------------------
# matrices over exact coefficient rings


class SquareMatrix:
    """Immutable square matrix with exact (scalar or polynomial) entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def banded(cls, n: int, above, diagonal, below) -> "SquareMatrix":
        """Constant bands: `above` strictly above the diagonal, `below`
        strictly below."""
        return cls(
            tuple(
                tuple(above if i < j else diagonal if i == j else below for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def staircase_inverse(cls, n: int) -> "SquareMatrix":
        """Ones on and above the diagonal, -(i-1) just below it, zeros
        elsewhere; its permanent collapses to (1, 0, 0, ...) while its
        determinant is n!."""
        return cls(
            tuple(
                tuple(
                    1 if i <= j else (-(i - 1) if i - 1 == j else 0)
                    for j in range(1, n + 1)
                )
                for i in range(1, n + 1)
            )
        )


def permanent(mat: SquareMatrix, *, max_n: int = 9):
    """Permanent by subset inclusion-exclusion with Gray-code updates
    (2^n * n ring operations, no division)."""
    n = mat.n
    if n == 0:
        return 1
    check_budget(n, max_n, "permanent expansion")
    rows = mat.rows
    rowsums: list = [0] * n
    total = 0
    prev = 0
    for s in range(1, 1 << n):
        gray = s ^ (s >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            for i in range(n):
                rowsums[i] = rowsums[i] + rows[i][j]
        else:
            for i in range(n):
                rowsums[i] = rowsums[i] - rows[i][j]
        prev = gray
        prod = 1
        for x in rowsums:
            if not x:
                prod = 0
                break
            prod = prod * x
        if prod:
            total = total + prod if (n - gray.bit_count()) % 2 == 0 else total - prod
    return total


def determinant(mat: SquareMatrix):
    """Determinant by first-available-row expansion, memoized on the set of
    unused columns; exact over any coefficient ring, no division."""
    n = mat.n
    if n == 0:
        return 1
    rows = mat.rows
    memo: dict[int, object] = {}

    def expand(mask: int):
        if mask == 0:
            return 1
        cached = memo.get(mask)
        if cached is not None:
            return cached
        i = n - mask.bit_count()
        total = 0
        sign = 1
        mm = mask
        while mm:
            low = mm & -mm
            j = low.bit_length() - 1
            a = rows[i][j]
            if a:
                sub = expand(mask ^ low)
                total = total + sign * a * sub if sign > 0 else total - a * sub
            sign = -sign
            mm ^= low
        memo[mask] = total
        return total

    det = expand((1 << n) - 1)
    del expand  # it refers to itself: free the memo now, not when the cyclic collector runs
    return det


# ---------------------------------------------------------------------------
# closed forms of the excedance generating functions
#
# Each closed form is (1 - t) / D for a denominator D = sum over j of
# d_j exp(c_j u), declared by its terms (d_j, c_j); the d_j sum to 1 - t, the
# constant term of D. Bivariate values follow the nesting convention of the
# polynomials module, inner variable t and outer variable t', and a bivariate
# term is an outer polynomial whose coefficients are all Poly values, so that
# it is never read as a polynomial in t.

_CLASSICAL = ((1, T - 1), (-T, 0))  # exp((t - 1)u) - t
_DERANGEMENT = ((1, T), (-T, 1))  # exp(t u) - t exp(u)
_ZERO_SHIFT = ((1, 0), (-T, 1 - T))  # 1 - t exp((1 - t)u)
_MIXED = (
    (1, Poly((T, Poly((-1,))))),  # exp((t - t')u)
    (-T, Poly((Poly((1,)), Poly((-1,))))),  # -t exp((1 - t')u)
)


def _at(term, x):
    """A term at t = x; a bivariate one stays a polynomial in t'."""
    if not isinstance(term, Poly):
        return term
    if any(isinstance(c, Poly) for c in term.coeffs):
        return Poly(tuple(c.eval(x) if isinstance(c, Poly) else c for c in term.coeffs))
    return term.eval(x)


def _exact_quotient(value, divisor: int):
    """value / divisor for an int, or for a polynomial in t' over the ints,
    coefficient by coefficient; a remainder raises."""
    if isinstance(value, Poly):
        return Poly(tuple(_exact_quotient(c, divisor) for c in value.coeffs))
    q, rem = divmod(value, divisor)
    if rem:
        raise ArithmeticError(f"nonzero remainder dividing {value!r} by 1 - t = {divisor}")
    return q


def _unit_values(terms, order: int, x) -> list:
    """The EGF values D_n / (1 - t) of the unit series D / (1 - t) at t = x,
    n <= order, where D_n = sum over j of d_j c_j**n: exact division at an
    int point, plain division at any other."""
    columns = (
        map(mul, itertools.repeat(_at(d, x)), itertools.accumulate(itertools.repeat(_at(c, x), order), mul, initial=1))
        for d, c in terms
    )
    dens = map(sum, zip(*columns))
    if isinstance(x, int):
        return list(map(_exact_quotient, dens, itertools.repeat(1 - x)))
    return [den / (1 - x) for den in dens]


def _norm(x) -> int:
    """The 1-norm of an int or a (nested) integer polynomial."""
    return sum(map(_norm, x.coeffs)) if isinstance(x, Poly) else abs(x)


def _digit_norm(value, k: int) -> int:
    """The 1-norm of the polynomial in t that :func:`_decode` reads from a
    value at t = 2**k, without building it."""
    if isinstance(value, Poly):
        return sum(_digit_norm(c, k) for c in value.coeffs)
    return sum(map(abs, balanced_digits(value, k)))


def _decode(value, k: int):
    """Read a value at t = 2**k back as a polynomial in t (see
    :meth:`Poly.from_balanced_digits`); a polynomial in t' coefficientwise."""
    if isinstance(value, Poly):
        return Poly(tuple(Poly.from_balanced_digits(c, k) for c in value.coeffs))
    return Poly.from_balanced_digits(value, k)


def _closed_form(terms, order: int, at=None) -> TruncSeries:
    """(1 - t) / D for the declared terms of D, computed at one point.

    With `at` (other than 1), the unit series D / (1 - t) is evaluated at
    t = at and its scalar reciprocal taken. Otherwise the unit is evaluated
    at t = 2**k, a ring homomorphism from Z[t] into Z (Kronecker
    substitution), its reciprocal runs on ints (on polynomials in t' over
    the ints for a bivariate form), and every result value is read back from
    its balanced base-2**k digits; at t = 1 that result is substituted.

    Since D_n(2**k) = D_n(1) mod 2**k - 1, the remainder test at 2**k is the
    divisibility of D_n by 1 - t as soon as 2**k - 1 > |D_n|_1 (per
    t'-coefficient when bivariate). Both widths used meet that. The first,
    w, has 2**(w-1) > sum_j |d_j|_1 max(1, |c_j|_1)**order >= |D_n|_1, which
    also bounds every coefficient of D_n / (1 - t), a prefix sum of D_n's
    coefficients; so the balanced digits at 2**w of the unit's values give
    their exact 1-norms. From these :func:`_majorant_width` gives the width
    k of the result, whose majorant M_n bounds the unit's n-th 1-norm too,
    so |D_n|_1 <= 2 M_n < 2**k - 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if at is not None and at != 1:
        return TruncSeries(order, _unit_values(terms, order, at)).reciprocal()
    w = sum(_norm(d) * max(1, _norm(c)) ** order for d, c in terms).bit_length() + 1
    k = _majorant_width([_digit_norm(v, w) for v in _unit_values(terms, order, 1 << w)])
    out = TruncSeries(order, _unit_values(terms, order, 1 << k)).reciprocal().coeffs
    result = TruncSeries(order, [1] + [_decode(v, k) for v in out[1:]])
    return result if at is None else result.substitute(at)


def mixed_egf_closed_form(order: int) -> TruncSeries:
    """(1 - t) / (exp((t - t')u) - t exp((1 - t')u)), the joint
    fixed-point/excedance EGF, with t' left symbolic (see
    :func:`_closed_form`)."""
    return _closed_form(_MIXED, order)


def classical_egf_closed_form(order: int, at=None) -> TruncSeries:
    """(1 - t) / (-t + exp((t - 1)u)), the EGF of the classical polynomials,
    over Z[t] or, with `at`, at t = at (see :func:`_closed_form`)."""
    return _closed_form(_CLASSICAL, order, at)


def zero_shift_egf_closed_form(order: int) -> TruncSeries:
    """(1 - t) / (1 - t exp((1 - t)u)), the EGF of the 0-shift polynomials."""
    return _closed_form(_ZERO_SHIFT, order)


def roselle_egf_closed_form(order: int, at=None) -> TruncSeries:
    """(1 - t) / (exp(t u) - t exp(u)), the EGF of the derangement-excedance
    polynomials, over Z[t] or, with `at`, at t = at (see
    :func:`_closed_form`)."""
    return _closed_form(_DERANGEMENT, order, at)


def eulerian_from_egf(n: int, r: int) -> Poly:
    """Shifted Eulerian polynomial extracted from the r-th power of the
    closed-form classical EGF (an enumeration-free and recurrence-free
    route)."""
    if r < 1:
        raise ValueError("EGF extraction needs r >= 1")
    if r > n:
        return Poly((factorial(n),))
    m = n - r + 1
    return (classical_egf_closed_form(m) ** r).coeffs[m] * factorial(r - 1)


# ---------------------------------------------------------------------------
# identity checks


def mixed_egf_by_enumeration(order: int) -> TruncSeries:
    """The joint fixed-point/excedance EGF by sweeps of S_0..S_order, guarded first."""
    check_budget(order, DEFAULT_PERM_BUDGET, "permutation enumeration")
    return series_from_polynomials(abar_polynomial, order)


def mixed_egf_exponential_form(order: int) -> TruncSeries:
    """exp(u t' + sum_{n>=2} u^n/n! t A_{n-1}(t)), the joint EGF's exponential form."""
    arg = [Poly(), Poly((0, 1))]
    arg.extend(Poly((T * eulerian_polynomial(n - 1),)) for n in range(2, order + 1))
    return TruncSeries(order, arg).exp()


def check_mixed_egf_closed_form(order: int) -> list[tuple[str, Identity]]:
    """The bivariate closed form against the enumeration EGF, and its three
    specializations against the 0-shift, classical, and derangement
    polynomial families."""
    closed = mixed_egf_closed_form(order)
    # the enumeration side first: it checks the budget before any sweep
    out = [("mixed-egf-closed-form", series_identity(mixed_egf_by_enumeration(order), closed))]
    for name, at, family, direct in (
        ("zero-shift", T, lambda n: eulerian_shift_recurrence(n, 0), zero_shift_egf_closed_form),
        ("classical", 1, eulerian_polynomial, classical_egf_closed_form),
        ("derangement", 0, roselle_polynomial, roselle_egf_closed_form),
    ):
        special = closed.substitute(at)
        out.append((f"specialize-{name}", series_identity(special, series_from_polynomials(family, order))))
        out.append((f"closed-form-{name}-direct", series_identity(special, direct(order))))
    return out


def check_fixed_point_split_relations(order: int) -> list[tuple[str, Identity]]:
    """Algebraic relations between the t' = t and t' = 1 specializations:
    the 0-shift EGF is 1 + t (classical - 1), and also exp(ut - u) times the
    classical EGF."""
    closed = mixed_egf_closed_form(order)
    both_t = closed.substitute(T)
    at_one = closed.substitute(1)
    rel1 = series_identity(both_t, (at_one - 1) * T + 1)
    rel2 = series_identity(both_t, exp_of_linear(T - 1, order) * at_one)
    return [("zero-shift-affine-relation", rel1), ("zero-shift-exp-relation", rel2)]


def check_shifted_egf_powers(r: int, order: int) -> Identity:
    """The shifted EGF is (r-1)! times the r-th power of the classical one."""
    if r < 1:
        raise ValueError("need r >= 1")
    lhs = series_from_polynomials(lambda m: eulerian_triangle_recurrence(m + r - 1, r), order)
    rhs = series_from_polynomials(eulerian_polynomial, order) ** r * factorial(r - 1)
    return series_identity(lhs, rhs)


def check_bernoulli_ode(order: int) -> Identity:
    """The classical EGF A satisfies dA/du = A (1 + t(A - 1))."""
    a = series_from_polynomials(eulerian_polynomial, order)
    if order == 0:
        return Identity(True, a, a, "no coefficient of dA/du below order 1")
    lhs = a.derivative()
    rhs = (a * ((a - 1) * T + 1)).truncate(order - 1)
    return series_identity(lhs, rhs)


def check_convolution_recurrence(n_max: int) -> Identity:
    """Binomial convolution: A_{n+1} = A_n + t sum_{m<n} C(n,m) A_m A_{n-m}."""
    fam = [eulerian_polynomial(n) for n in range(n_max + 1)]
    for n in range(n_max):
        rhs = fam[n] + T * sum(
            (comb(n, m) * fam[m] * fam[n - m] for m in range(n)), Poly()
        )
        if fam[n + 1] != rhs:
            return Identity(False, fam[n + 1], rhs, f"fails at size {n + 1}")
    return Identity(True, fam[n_max], fam[n_max])


# -- the exponential formula ------------------------------------------------


def cycle_indicator_weight(xs: Sequence) -> Callable[[tuple], object]:
    """Weight of a connected factor of size m: the m-th of the given values;
    the product over factors is the cycle-type monomial evaluated there."""
    def weight(word: tuple) -> object:
        return xs[len(word) - 1]

    return weight


def biexcedent_weight(word: tuple) -> int:
    """Indicator of the biexcedent condition on a connected factor; the
    product over factors is the indicator of the whole permutation."""
    return 1 if perms._is_biexcedent(word) else 0


def matrix_entry_weight(a, b, c) -> Callable[[tuple], object]:
    """Product of banded-matrix entries along the graph of the factor:
    `a` for strict excedances, `b` for fixed points, `c` below."""
    def weight(word: tuple) -> object:
        val = 1
        for i, v in enumerate(word, start=1):
            val = val * (a if v > i else b if v == i else c)
        return val

    return weight


def fixed_point_split_weight(word: tuple) -> Poly:
    """The outer variable marks fixed points, the inner one the strict
    excedances of the factor."""
    if len(word) == 1:
        return Poly((0, 1))
    exc = sum(1 for i, v in enumerate(word, start=1) if v > i)
    return Poly((T**exc,))


# nodes of one shape, or cycles, weighed together; a larger batch raises the
# peak memory of the sweep and gains little speed
_BATCH = 256


def _cycle_table(fns: Sequence[Callable], order: int, top: list) -> list[list[list]]:
    """Each weight of every cycle of size below the order, as tables[i][m]:
    weight i of the cycles of size m, one flat list indexed by code. The
    weights of the cycles of size `order` are added to `top` instead, the
    children of one cycle as one batch.

    A cycle is relabelled onto {1..m} and read as the rank sequence of its
    points from rank 1. The cycle (1) has code 0, and inserting the new
    largest rank m + 1 after the j-th rank (j = 0..m-1) of the cycle of
    size m with code x gives the cycle of size m + 1 with code x*m + j, so
    the children of a cycle fill one slice of the next size's list. Each
    weight is called once on each cycle's map."""
    tables = [[[] for _ in range(order)] for _ in fns]

    def grow(cycles: list[list[int]]) -> None:
        # `cycles`: the cycle (1), or the children of one cycle
        m = len(cycles[0])
        if m == order:
            factors = list(map(tuple, cycles))
            for i, fn in enumerate(fns):
                top[i] += sum(map(fn, factors))
            return
        for image in cycles:
            factor = tuple(image)
            for table, fn in zip(tables, fns):
                table[m].append(fn(factor))
            kids = []
            point = 1
            for _ in range(m):
                # m + 1 goes between `point` and its image
                child = image.copy()
                child[point - 1] = m + 1
                child.append(image[point - 1])
                kids.append(child)
                point = image[point - 1]
            grow(kids)

    grow([[1]])
    # grow refers to itself: without this the cycle would keep the tables
    # alive after the caller is done with them, until the cyclic collector runs
    del grow
    return tables


def _columns(values: list, codes: Sequence[int], size: int) -> Iterator[tuple]:
    """values[x*size + j] over the codes x, one column for each j < size."""
    starts = [x * size for x in codes]
    return zip(*map(values.__getitem__, map(slice, starts, map(add, starts, itertools.repeat(size)))))


def weighted_permutation_sums(
    fns: Sequence[Callable[[Sequence[int]], object]],
    order: int,
    *,
    max_n: int = DEFAULT_PERM_BUDGET,
) -> tuple[list[list], list[list]]:
    """Plain and signed weight sums over S_n for every n <= order, one list
    per weight: the weight of a permutation is the product of the weights of
    its connected factors, each relabelled onto {1..card}, and the sign is
    (-1)**(n - cycles).

    A permutation of [n] comes from one of [n-1] by making n a fixed point
    or by inserting n after some point of one of its cycles; on the rank
    sequence of that cycle n is the new largest rank. So every cycle has a
    code in :func:`_cycle_table`, which calls each weight once per cycle,
    and a permutation is its shape, the tuple of its cycle sizes, with one
    code per cycle. The cycles of size `order` go straight into the sums.

    One depth-first sweep by insertion files every permutation of [n],
    n <= order - 2, under its shape. A shape is weighed whenever it holds
    `_BATCH` nodes, and at the end: over one list per cycle, C-level maps
    look up the factor weights and the children and grandchildren of each
    cycle, and form the prefix and suffix products. Each node adds its
    children of size n + 1 (n + 1 fixed, or inserted into a cycle), and a
    node of size order - 2 adds its descendants of size order: the new
    points are fixed, or in one 2-cycle, or one is fixed and the other
    inserted into a cycle, or both go into one cycle, or into two. Every
    permutation gets its own product of factor weights, no weight is
    summed before it is multiplied, and nodes with equal factors are never
    merged under a multiplicity.

    The cycle tables and the pending batches live only as long as the call:
    the recursive sweeps drop their references to themselves when they
    end, so no reference cycle keeps them for the cyclic collector.
    """
    check_budget(order, max_n, "permutation enumeration")
    count = len(fns)
    if order == 0:
        return [[1] for _ in fns], [[1] for _ in fns]
    # by_parity[n][p][i]: weight i summed over the permutations of [n] with
    # n - cycles = p mod 2
    by_parity = [([0] * count, [0] * count) for _ in range(order + 1)]
    tables = _cycle_table(fns, order, by_parity[order][(order - 1) % 2])

    def weigh(shape: tuple[int, ...], nodes: list[tuple[int, ...]]) -> None:
        n, k, width = sum(shape), len(shape), len(nodes)
        codes = list(zip(*nodes))
        for i, table in enumerate(tables):
            loop = table[1][0]
            weights = [list(map(table[m].__getitem__, col)) for m, col in zip(shape, codes)]
            before = [[1] * width]
            for w in weights:
                before.append(list(map(mul, before[-1], w)))
            after = [[1] * width]
            for w in reversed(weights):
                after.insert(0, list(map(mul, w, after[0])))
            others = [list(map(mul, before[c], after[c + 1])) for c in range(k)]
            kids = [list(_columns(table[m + 1], col, m)) for m, col in zip(shape, codes)]
            # size n + 1: n + 1 fixed, or inserted into cycle c
            by_parity[n + 1][(n - k) % 2][i] += sum(map(mul, before[k], itertools.repeat(loop)))
            by_parity[n + 1][(n + 1 - k) % 2][i] += sum(
                sum(map(mul, others[c], kid)) for c in range(k) for kid in kids[c]
            )
            if n < order - 2:
                continue
            # size n + 2, by where n + 1 and n + 2 go: `one_more` sums the
            # permutations with one cycle more than the node, `even_more`
            # those with as many or two more
            even_more = sum(map(mul, map(mul, before[k], itertools.repeat(loop)), itertools.repeat(loop)))
            one_more = sum(map(mul, before[k], itertools.repeat(table[2][0]))) if k else 0
            for c, (m, col) in enumerate(zip(shape, codes)):
                # one of them fixed and the other inserted into cycle c: each
                # child of c twice
                with_loop = list(map(mul, others[c], itertools.repeat(loop)))
                one_more += sum(sum(map(mul, with_loop, kid)) for kid in kids[c] * 2)
                if m < n:
                    # both inserted into cycle c (when c is all of [n], these
                    # are the cycles of the full order, summed by the table)
                    grandkids = _columns(table[m + 2], col, m * (m + 1))
                    even_more += sum(sum(map(mul, others[c], g)) for g in grandkids)
                rest = before[c]
                for d in range(c + 1, k):
                    # one inserted into cycle c and the other into cycle d,
                    # as (scale * a) * b for each order of the two
                    scale = list(map(mul, rest, after[d + 1]))
                    for first, second in ((kids[c], kids[d]), (kids[d], kids[c])):
                        for a in first:
                            scaled = list(map(mul, scale, a))
                            even_more += sum(sum(map(mul, scaled, b)) for b in second)
                    rest = list(map(mul, rest, weights[d]))
            by_parity[n + 2][(n - k) % 2][i] += even_more
            by_parity[n + 2][(n + 1 - k) % 2][i] += one_more

    pending: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def visit(n: int, shape: tuple[int, ...], codes: tuple[int, ...]) -> None:
        # a permutation of [n] with cycles of sizes `shape` and these codes
        pending.setdefault(shape, []).append(codes)
        if len(pending[shape]) == _BATCH:
            weigh(shape, pending.pop(shape))
        if n == order - 2:
            return
        for c, (m, x) in enumerate(zip(shape, codes)):
            grown = shape[:c] + (m + 1,) + shape[c + 1 :]
            for code in range(x * m, (x + 1) * m):
                visit(n + 1, grown, codes[:c] + (code,) + codes[c + 1 :])
        visit(n + 1, shape + (1,), codes + (0,))

    if order >= 2:
        visit(0, (), ())
        for shape, nodes in pending.items():
            weigh(shape, nodes)
    # visit refers to itself, and through weigh to the cycle tables: break
    # the cycle so that they are freed on return, not by the cyclic collector
    del visit
    plain = [[1] + [even[i] + odd[i] for even, odd in by_parity[1:]] for i in range(count)]
    signed = [[1] + [even[i] - odd[i] for even, odd in by_parity[1:]] for i in range(count)]
    return plain, signed


def exponential_formula_bundle(
    weights: dict[str, Callable[[Sequence[int]], object]],
    order: int,
    *,
    max_n: int = DEFAULT_PERM_BUDGET,
) -> dict[str, tuple[Identity, Identity]]:
    """For several multiplicative weights at once: the weighted EGF over all
    permutations equals exp of the weighted EGF over the connected (circular)
    ones, and its reciprocal is the signed weighted EGF with alternating u.

    Left sides come from :func:`weighted_permutation_sums`, one sweep shared
    by the weights (which is why they are bundled). Right sides weigh the
    circular class of :func:`~eulerian.permutations.enumerate_class`, built
    as n-cycles rather than by insertion codes, and go through `exp` and
    `reciprocal`.
    """
    names = list(weights)
    fns = [weights[name] for name in names]
    plain_sums, signed_sums = weighted_permutation_sums(fns, order, max_n=max_n)
    plain = dict(zip(names, plain_sums))
    signed = dict(zip(names, signed_sums))
    conn = {name: [0] * (order + 1) for name in names}
    for n in range(1, order + 1):
        cycles = perms.enumerate_class(n, perms.CIRCULAR, max_n=max_n)
        for chunk in iter(lambda: list(itertools.islice(cycles, _BATCH)), []):
            for name, fn in zip(names, fns):
                conn[name][n] += sum(map(fn, chunk))
    out = {}
    for name in names:
        egf_all = TruncSeries(order, plain[name])
        egf_conn = TruncSeries(order, conn[name])
        egf_signed = TruncSeries(order, ((-1) ** n * c for n, c in enumerate(signed[name])))
        eq_exp = series_identity(egf_all, egf_conn.exp(), "exponential form")
        eq_inv = series_identity(egf_all.reciprocal(), egf_signed, "signed reciprocal")
        out[name] = (eq_exp, eq_inv)
    return out


def cycle_weighted_egf(r: int, order: int) -> TruncSeries:
    """The EGF of the fixed-point-split weight boosted by r**cycles (integer
    r), by the weighted sweep; it is the r-th power of the mixed closed
    form. The boost is r on every factor: r**cycles * prod w(g) = prod r * w(g)."""
    (sums,), _signed = weighted_permutation_sums([lambda g: r * fixed_point_split_weight(g)], order)
    return TruncSeries(order, sums)


def check_tree_equation(order: int) -> Identity:
    """w = exp(u w) for the EGF w of the maps whose n-th iterate equals the
    (n-1)-st, with counts from the exhaustive scan."""
    from .endofunctions import count_class_functions

    w = series_from_polynomials(lambda n: count_class_functions(n, "ultimately_idempotent"), order)
    return series_identity(w, w.shift_up().exp())


# -- permanents and determinants ---------------------------------------------


def check_permanent_determinant(a: int, b: int, c: int, order: int) -> list[tuple[str, Identity]]:
    """For a banded integer matrix: the reciprocal of the permanent EGF is the
    signed determinant EGF; the determinant has its two-case closed form; and
    the reciprocal matches the two-case exponential closed form. Both closed
    forms for c != a divide exactly by c - a."""

    def over_c_minus_a(x: int) -> int:
        q, rem = divmod(x, c - a)
        if rem:
            raise ArithmeticError(f"nonzero remainder dividing {x!r} by c - a = {c - a}")
        return q

    pers = [1] + [permanent(SquareMatrix.banded(n, a, b, c), max_n=order) for n in range(1, order + 1)]
    dets = [1] + [determinant(SquareMatrix.banded(n, a, b, c)) for n in range(1, order + 1)]
    per_egf = TruncSeries(order, pers)
    det_egf = TruncSeries(order, ((-1) ** n * v for n, v in enumerate(dets)))
    out = [("permanent-determinant-inversion", series_identity(per_egf.reciprocal(), det_egf))]

    closed_dets = [1]
    for n in range(1, order + 1):
        if c != a:
            closed_dets.append(over_c_minus_a(c * (b - a) ** n - a * (b - c) ** n))
        else:
            closed_dets.append((b - a) ** (n - 1) * (b + (n - 1) * a))
    det_ok = closed_dets == dets
    out.append(
        ("determinant-closed-form", Identity(det_ok, dets, closed_dets))
    )

    if c != a:
        closed = (exp_of_linear(a - b, order) * c - exp_of_linear(c - b, order) * a).map_coefficients(
            over_c_minus_a
        )
    elif a != b:
        lin = constant_series(1, order) - TruncSeries(order, (0, a))
        closed = lin * exp_of_linear(a - b, order)
    else:
        closed = None
    if closed is not None:
        out.append(
            ("reciprocal-exponential-closed-form", series_identity(per_egf.reciprocal(), closed))
        )
    return out


def check_staircase_examples(order: int) -> list[tuple[str, Identity]]:
    """Two non-banded matrices for which the inversion identity still holds:
    the staircase matrix with permanent (1, 0, 0, ...) and determinant n!,
    and any matrix with an all-zero first column."""
    out = []
    pers = [1] + [permanent(SquareMatrix.staircase_inverse(n), max_n=order) for n in range(1, order + 1)]
    dets = [1] + [determinant(SquareMatrix.staircase_inverse(n)) for n in range(1, order + 1)]
    shape_ok = pers == ([1, 1] + [0] * (order - 1))[: order + 1] and dets == [factorial(n) for n in range(order + 1)]
    out.append(("staircase-values", Identity(shape_ok, pers, dets)))
    per_egf = TruncSeries(order, pers)
    det_egf = TruncSeries(order, ((-1) ** n * v for n, v in enumerate(dets)))
    geo = TruncSeries(order, ((-1) ** n * factorial(n) for n in range(order + 1)))
    out.append(("staircase-inversion", series_identity(per_egf.reciprocal(), det_egf)))
    out.append(("staircase-geometric", series_identity(det_egf, geo)))

    zero_first = SquareMatrix(
        tuple(tuple(0 if j == 0 else i + j for j in range(4)) for i in range(4))
    )
    triv = permanent(zero_first) == 0 and determinant(zero_first) == 0
    out.append(("zero-column-degenerate", Identity(triv, 0, 0)))
    return out


def mixed_permanents(n_max: int) -> list:
    """The permanents of the banded matrices of sizes 1..n_max with bands t
    above, t' on the diagonal and 1 below: the joint polynomials."""
    return [permanent(SquareMatrix.banded(n, Poly((T,)), Poly((0, 1)), 1)) for n in range(1, n_max + 1)]


# -- tangent and secant -------------------------------------------------------


def tangent_secant_series(order: int) -> tuple[TruncSeries, TruncSeries]:
    """tan u and 1/cos u, whose EGF values are the Euler numbers.

    Both come from the closed-form EGFs evaluated at t = -1: the classical
    one contributes the odd part (tangent) and the derangement one the even
    part (secant), with the alternating sign bookkeeping applied to real
    coefficients rather than through complex arguments.
    """
    f = classical_egf_closed_form(order, at=-1)
    g = roselle_egf_closed_form(order, at=-1)
    tan_coeffs = [0] * (order + 1)
    sec_coeffs = [0] * (order + 1)
    for k in range(order + 1):
        if k % 2 == 1:
            p = (k + 1) // 2
            tan_coeffs[k] = (-1) ** (p - 1) * f.coeffs[k]
            if g.coeffs[k]:
                raise ArithmeticError(f"odd secant coefficient at u^{k}: {g.coeffs[k]}")
        else:
            p = k // 2
            sec_coeffs[k] = (-1) ** p * g.coeffs[k]
            if k >= 2 and f.coeffs[k]:
                raise ArithmeticError(f"even tangent source at u^{k}: {f.coeffs[k]}")
    sec_coeffs[0] = 1
    return TruncSeries(order, tan_coeffs), TruncSeries(order, sec_coeffs)


def check_secant_is_exp_integral_tangent(order: int) -> Identity:
    """1 / cos u = exp(integral of tan u)."""
    tan, sec = tangent_secant_series(order)
    return series_identity(tan.integral().exp().truncate(order), sec)


__all__ = [
    "SquareMatrix",
    "TruncSeries",
    "biexcedent_weight",
    "check_bernoulli_ode",
    "check_convolution_recurrence",
    "check_fixed_point_split_relations",
    "check_mixed_egf_closed_form",
    "check_permanent_determinant",
    "check_secant_is_exp_integral_tangent",
    "check_shifted_egf_powers",
    "check_staircase_examples",
    "check_tree_equation",
    "classical_egf_closed_form",
    "constant_series",
    "cycle_indicator_weight",
    "cycle_weighted_egf",
    "determinant",
    "eulerian_from_egf",
    "exp_of_linear",
    "exponential_formula_bundle",
    "fixed_point_split_weight",
    "matrix_entry_weight",
    "mixed_egf_by_enumeration",
    "mixed_egf_closed_form",
    "mixed_egf_exponential_form",
    "mixed_permanents",
    "permanent",
    "roselle_egf_closed_form",
    "series_from_polynomials",
    "series_identity",
    "tangent_secant_series",
    "weighted_permutation_sums",
    "zero_shift_egf_closed_form",
]
