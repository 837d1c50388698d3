"""
The four-letter word calculus for permutations whose word starts with its
largest value, and the alternating-permutation counts it produces.

Each such permutation of size n >= 2 yields a length-n word over the letters
{descent, marked descent, rise, marked rise}: position j is a descent or rise
letter according to the comparison of neighbours (with wraparound to the
first letter), and the marked variants single out the two slopes of each
valley, so marked letters only ever occur as adjacent (marked descent,
marked rise) pairs.

A linear derivation grows the weighted set of words of size n from size n-1;
abelianizing gives a positive triangle of integers whose middle column counts
the alternating permutations of odd size, and an exponential-formula argument
extends the count to even sizes.
"""
from __future__ import annotations

from collections import Counter
from enum import IntEnum
from math import comb
from typing import Mapping

from . import permutations as perms
from .polynomials import (
    Identity,
    Poly,
    T,
    roselle_at_minus_one,
)
from .series import TruncSeries, tangent_secant_series


class Letter(IntEnum):
    """Alphabet in the fixed comparison order used for canonical sorting."""

    DESCENT = 0
    MARKED_DESCENT = 1
    RISE = 2
    MARKED_RISE = 3


_RENDER = {
    Letter.DESCENT: "d",
    Letter.MARKED_DESCENT: "D",
    Letter.RISE: "m",
    Letter.MARKED_RISE: "M",
}

Word = tuple  # tuple[Letter, ...]


def render_word(word: Word) -> str:
    """ASCII rendering; capitals are the marked letters."""
    return "".join(_RENDER[x] for x in word)


def valley_word(p: tuple[int, ...]) -> Word:
    """Word of a permutation whose first letter is its size (n >= 2), with
    the wraparound convention that position n is compared against n itself.

    >>> render_word(valley_word((7, 1, 4, 6, 3, 2, 5)))
    'DMmdDMm'
    """
    n = len(p)
    if n < 2 or p[0] != n:
        raise ValueError("valley words need n >= 2 and the first letter equal to n")
    ext = p + (p[0],)
    down = [ext[j] > ext[j + 1] for j in range(n)]
    out = []
    for j in range(n):
        if down[j]:
            # the last position is never a descent, so j + 1 is in range
            out.append(Letter.MARKED_DESCENT if not down[j + 1] else Letter.DESCENT)
        else:
            # the first position is never a rise, so j - 1 is in range
            out.append(Letter.MARKED_RISE if down[j - 1] else Letter.RISE)
    return tuple(out)


_EXPANSION = {
    Letter.MARKED_DESCENT: (Letter.DESCENT, Letter.MARKED_DESCENT),
    Letter.MARKED_RISE: (Letter.MARKED_RISE, Letter.RISE),
    Letter.DESCENT: (Letter.MARKED_DESCENT, Letter.MARKED_RISE),
    Letter.RISE: (Letter.MARKED_DESCENT, Letter.MARKED_RISE),
}


def nabla(weighted: Mapping[Word, int]) -> Counter:
    """Linear derivation: replace one occurrence of a letter by its two-letter
    expansion, summed over all occurrences of all words, with multiplicity."""
    out: Counter = Counter()
    for word, mult in weighted.items():
        for i, letter in enumerate(word):
            out[word[:i] + _EXPANSION[letter] + word[i + 1 :]] += mult
    return out


def word_multiset(n: int) -> Counter:
    """Weighted set of the valley words of all size-n permutations starting
    with n."""
    out: Counter = Counter()
    for p in perms.enumerate_class(n, perms.FIRST_IS_N):
        out[valley_word(p)] += 1
    return out


def check_derivation_step(n: int) -> Identity:
    """The size-n weighted word set is the derivation of the size-(n-1) one."""
    if n < 3:
        raise ValueError("the derivation step needs n >= 3")
    lhs = word_multiset(n)
    rhs = nabla(word_multiset(n - 1))
    if lhs == rhs:
        return Identity(True, len(lhs), len(rhs))
    diff = next(w for w in (lhs | rhs) if lhs[w] != rhs[w])
    return Identity(
        False, lhs[diff], rhs[diff], f"multiplicities differ on {render_word(diff)}"
    )


# ---------------------------------------------------------------------------
# the positive triangle from abelianized words


def c_triangle(n: int) -> dict:
    """Triangle c[m, k] for 2 <= m <= n, 1 <= 2k <= m, by the recurrence
    c[2, 1] = 1 and c[m, k] = k c[m-1, k] + 2 (m + 1 - 2k) c[m-1, k-1], zero
    outside the strip."""
    if n < 2:
        raise ValueError("the triangle starts at size 2")
    tri = {(2, 1): 1}
    for m in range(3, n + 1):
        for k in range(1, m // 2 + 1):
            tri[(m, k)] = k * tri.get((m - 1, k), 0) + 2 * (m + 1 - 2 * k) * tri.get(
                (m - 1, k - 1), 0
            )
    return tri


def c_triangle_by_abelianization(n: int) -> dict:
    """The same triangle as ``c_triangle``, read off the letter multisets of
    the valley words of each size m <= n; entries must satisfy
    count(k marked pairs, i plain descents) = c[m, k] * C(m - 2k, i) for
    every i, which is verified along the way."""
    if n < 2:
        raise ValueError("the triangle starts at size 2")
    perms.check_budget(n, perms.DEFAULT_PERM_BUDGET, "permutation enumeration")
    tri = {}
    for m in range(2, n + 1):
        groups: Counter = Counter()
        for word, mult in word_multiset(m).items():
            marked_d = sum(1 for x in word if x is Letter.MARKED_DESCENT)
            marked_m = sum(1 for x in word if x is Letter.MARKED_RISE)
            plain_d = sum(1 for x in word if x is Letter.DESCENT)
            if marked_d != marked_m:
                raise ArithmeticError(f"unpaired marked letters in {render_word(word)}")
            groups[(marked_d, plain_d)] += mult
        for (k, i), count in sorted(groups.items()):
            c, rem = divmod(count, comb(m - 2 * k, i))
            if rem:
                raise ArithmeticError(f"non-binomial group ({m}, {k}, {i})")
            if (m, k) in tri and tri[(m, k)] != c:
                raise ArithmeticError(f"inconsistent coefficient at ({m}, {k})")
            tri[(m, k)] = c
    return tri


def valley_expansion(n: int) -> Poly:
    """sum_k c[n, k] t^k (1 + t)^(n - 2k), which is t A_{n-1}(t)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    tri = c_triangle(n)
    return sum((tri[(n, k)] * T**k * (1 + T) ** (n - 2 * k) for k in range(1, n // 2 + 1)), Poly())


# ---------------------------------------------------------------------------
# alternating-permutation counts by three routes


def euler_numbers(limit: int, mode: str = "c_triangle") -> tuple[int, ...]:
    """Counts of alternating (down-up) permutations for sizes 1..limit.

    mode 'enumeration' sweeps the alternating class (budgeted). mode
    'c_triangle' takes the middle triangle entries for odd sizes and grows
    the even sizes from the odd ones through the exponential formula for the
    biexcedent indicator. mode 'series' reads the tangent and secant
    coefficients.
    """
    if mode == "enumeration":
        perms.check_budget(limit, perms.DEFAULT_PERM_BUDGET, "permutation enumeration")
        return tuple(
            perms.class_size(n, perms.ALTERNATING) for n in range(1, limit + 1)
        )
    if mode == "c_triangle":
        tri = c_triangle(limit + 1) if limit >= 1 else {}
        odd = {m: tri[(m + 1, (m + 1) // 2)] for m in range(1, limit + 1, 2)}
        # even sizes: the EGF of the biexcedent permutations is the
        # exponential of the odd-size EGF, and the even coefficients count
        # the alternating permutations of that size
        arg = TruncSeries(
            limit, (odd[k - 1] if k >= 2 and k % 2 == 0 else 0 for k in range(limit + 1))
        )
        grown = arg.exp()
        return tuple(odd[m] if m % 2 == 1 else grown.coeffs[m] for m in range(1, limit + 1))
    if mode == "series":
        tan, sec = tangent_secant_series(limit)
        return tuple((tan if m % 2 else sec).coeffs[m] for m in range(1, limit + 1))
    raise ValueError(f"unknown mode {mode!r}")


def check_secant_alternating_sum(p: int) -> Identity:
    """Derangement-polynomial values at -1: zero in odd size, and in size 2p
    the signed value counts the alternating permutations; the biexcedent
    class has that same size, and its circular members are counted by the
    alternating permutations of size 2p - 1."""
    n = 2 * p
    odd_zero = roselle_at_minus_one(n - 1) == 0
    lhs = (-1) ** p * roselle_at_minus_one(n)
    t_even = t_first = 0
    for q in perms.enumerate_class(n, perms.ALTERNATING):
        t_even += 1
        t_first += q[0] == n
    bi = bi_circ = 0
    for q in perms.enumerate_class(n, perms.BIEXCEDENT):
        bi += 1
        bi_circ += perms.cycle_count(q) == 1
    t_odd = perms.class_size(n - 1, perms.ALTERNATING)
    ok = odd_zero and lhs == t_even and bi == t_even and bi_circ == t_first == t_odd
    return Identity(ok, (lhs, bi, bi_circ), (t_even, t_even, t_odd))


__all__ = [
    "Letter",
    "Word",
    "c_triangle",
    "c_triangle_by_abelianization",
    "check_derivation_step",
    "check_secant_alternating_sum",
    "euler_numbers",
    "nabla",
    "render_word",
    "valley_expansion",
    "valley_word",
    "word_multiset",
]
