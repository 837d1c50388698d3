"""Slow, independent reference versions of the package's fast kernels.

Each one evaluates a definition directly, or is a version a faster kernel
replaced. ``test_differential.py`` checks every fast kernel against its
references, from one table; the other test modules use them as oracles.
"""
import itertools
from fractions import Fraction
from math import factorial

from eulerian.permutations import enumerate_class, left_to_right_maxima, orbits
from eulerian.polynomials import Poly, T
from eulerian.series import (
    classical_egf_closed_form,
    mixed_egf_closed_form,
    roselle_egf_closed_form,
    zero_shift_egf_closed_form,
)


def brute_descent_vector(p):
    """Direct evaluation of the defining formula with explicit boundary
    values, independent of the library's index bookkeeping."""
    n = len(p)

    def sigma(j):
        return p[j - 1] if 1 <= j <= n else 0

    def sigma_inv(k):
        return p.index(k) + 1 if 1 <= k <= n else 0

    return tuple(max(0, sigma(sigma_inv(k) - 1) - (k - 1)) for k in range(1, n + 1))


def brute_rise_vector(p):
    n = len(p)

    def sigma(j):
        return p[j - 1] if 1 <= j <= n else 0

    def sigma_inv(k):
        return p.index(k) + 1 if 1 <= k <= n else 0

    return tuple(max(0, sigma(1 + sigma_inv(k - 1)) - (k - 1)) for k in range(1, n + 1))


def dprime_by_maxima_set(p):
    """The certificate from the set of left-to-right maximum positions and
    an inverse-position array, value by value: the version the one-scan
    ``dprime_vector`` replaced."""
    n = len(p)
    maxima = set(left_to_right_maxima(p))
    pos = [0] * (n + 1)
    for j, v in enumerate(p, start=1):
        pos[v] = j
    out = []
    for val in range(1, n + 1):
        j = pos[val]
        if j not in maxima:
            out.append(0)
        elif j == n:
            # a value below n can never be a left-to-right maximum at the last
            # position, since n would have to occur before it
            assert val == n
            out.append(1)
        else:
            out.append(1 if (j + 1) in maxima else 0)
    return tuple(out)


def orbit_keys(p):
    """For each element k of 1..n, the pair (maximum of k's orbit, least
    number of forward steps from k to that maximum).

    The step count stays below the orbit length, and the n pairs are
    pairwise distinct, so sorting them lexicographically totally orders the
    elements; that order is the fundamental transformation.
    """
    n = len(p)
    keys = [(0, 0)] * n
    for orb in orbits(p):
        size = len(orb)
        im = max(range(size), key=orb.__getitem__)
        m = orb[im]
        for i, k in enumerate(orb):
            keys[k - 1] = (m, (im - i) % size)
    return tuple(keys)


def fundamental_by_keys(p):
    """The reference route for `fundamental`: sort the elements by their
    orbit keys."""
    keyed = sorted((key, k) for k, key in enumerate(orbit_keys(p), start=1))
    return tuple(k for _, k in keyed)


def fundamental_by_preimage_segments(p):
    """`fundamental` from a preimage array: each orbit is read backwards
    from its maximum through the preimages, and each segment is reversed
    on its own: the version the one-scan ``fundamental`` replaced."""
    n = len(p)
    pre = [0] * (n + 1)  # preimages, zeroed once visited
    for k, v in enumerate(p, start=1):
        pre[v] = k
    out = []
    for m in range(n, 0, -1):
        k = pre[m]
        if not k:
            continue
        pre[m] = 0
        segment = [m]
        while k != m:
            segment.append(k)
            nxt = pre[k]
            pre[k] = 0
            k = nxt
        segment.reverse()
        out += segment
    out.reverse()
    return tuple(out)


def fundamental_inverse_by_segments(tau):
    """The reference route for `fundamental_inverse`: slice the word into
    its segments from each left-to-right maximum, and read each segment as
    an orbit traversed backwards from its maximum."""
    n = len(tau)
    out = [0] * (n + 1)
    bounds = list(left_to_right_maxima(tau)) + [n + 1]
    for a, b in zip(bounds, bounds[1:]):
        seg = tau[a - 1 : b - 1]
        for prev, cur in zip(seg, seg[1:]):
            out[cur] = prev
        out[seg[0]] = seg[-1]
    return tuple(out[1:])


def iterate(word, k):
    """The k-th iterate of the map, as an image word."""
    out = tuple(range(1, len(word) + 1))
    for _ in range(k):
        out = tuple(word[v - 1] for v in out)
    return out


def cycles_are_loops(word):
    """Every periodic point is a fixed point, i.e. iteration settles
    pointwise: the per-map test that the prefix-split scan of
    ``count_class_functions`` replaced."""
    n = len(word)
    state = [0] * (n + 1)  # 0 unknown, 1 settles on a fixed point, 2 does not
    for start in range(1, n + 1):
        if state[start]:
            continue
        path = []
        k = start
        while state[k] == 0:
            state[k] = -1
            path.append(k)
            k = word[k - 1]
        verdict = state[k] if state[k] > 0 else (1 if word[k - 1] == k else 2)
        for v in path:
            state[v] = verdict
        if verdict == 2:
            return False
    return True


def literal_ultimately_idempotent(word):
    n = len(word)
    return iterate(word, n) == iterate(word, n - 1)


def literal_arborescence(word):
    n = len(word)
    return len(set(iterate(word, n - 1))) == 1


# -- the ordinary-coefficient reference of the series kernel ------------------
#
# Lists of ordinary coefficients [u^n], with the divisions that representation
# needs: an independent route that the EGF-value kernel is compared with
# through `coefficient(k)`.


def ordinary(s):
    return [s.coefficient(k) for k in range(s.order + 1)]


def ref_reciprocal(a):
    out = [Fraction(1)]
    for m in range(1, len(a)):
        out.append(-sum((a[k] * out[m - k] for k in range(1, m + 1)), 0))
    return out


def ref_exp_of_linear(c, order):
    return [c**n * Fraction(1, factorial(n)) for n in range(order + 1)]


def ref_over_one_minus_t(c):
    """c / (1 - t) by long division from the top, into nested coefficients."""
    if not c:
        return Poly()
    if any(isinstance(x, Poly) for x in c.coeffs):
        return Poly(tuple(ref_over_one_minus_t(x) for x in c.coeffs))
    rem = list(c.coeffs)
    out = [0] * (len(rem) - 1)
    for i in range(len(rem) - 2, -1, -1):
        out[i] = -rem[i + 1]
        rem[i + 1] = 0
        rem[i] = rem[i] - out[i]
    assert not any(rem), c
    return Poly(out)


def ref_closed_form(den):
    """(1 - t) / den for a denominator with constant term 1 - t."""
    return ref_reciprocal([ref_over_one_minus_t(c) for c in den])


def _minus(xs, ys):
    return [x - y for x, y in zip(xs, ys)]


def _times(xs, c):
    return [x * c for x in xs]


# each closed form's denominator, built from ordinary coefficients
REFERENCE_DENOMINATORS = {
    classical_egf_closed_form: lambda n: _minus(
        ref_exp_of_linear(T - 1, n), [T] + [0] * n
    ),
    roselle_egf_closed_form: lambda n: _minus(
        ref_exp_of_linear(T, n), _times(ref_exp_of_linear(1, n), T)
    ),
    zero_shift_egf_closed_form: lambda n: _minus(
        [1] + [0] * n, _times(ref_exp_of_linear(1 - T, n), T)
    ),
    mixed_egf_closed_form: lambda n: _minus(
        ref_exp_of_linear(Poly((T, -1)), n),
        _times(ref_exp_of_linear(Poly((1, -1)), n), Poly((T,))),
    ),
}


def fraction_horner(p, x):
    """The value of a polynomial at x by the plain Horner loop, in whatever
    arithmetic x brings: the loop that ``Poly.eval`` replaced at a
    rational with its integer route."""
    out = 0
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


# The per-word and per-entry loops that `position_sum_counts` and the C-level
# count of `injection_polynomial` replaced.


def fix_exc_counts_per_word(n):
    """The reference for the fixed-point/excedance histogram: counts[f][e]
    words of S_n with f fixed points and e strict excedances, one word at a
    time."""
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for word in enumerate_class(n):
        fix = exc = 0
        for k, v in enumerate(word, start=1):
            if v == k:
                fix += 1
            elif v > k:
                exc += 1
        counts[fix][exc] += 1
    return tuple(tuple(row) for row in counts)


def derangement_excedances_per_word(n):
    """The reference for the derangement route of the Roselle polynomial:
    each word of S_n is read up to its first fixed point."""
    counts = [0] * (n + 1)
    for word in enumerate_class(n):
        c = 0
        for k, v in enumerate(word, start=1):
            if v == k:
                break
            if v > k:
                c += 1
        else:
            counts[c] += 1
    return tuple(counts)


def lowered_excedances_per_word(n, r):
    """The reference for `eulerian_by_enumeration`: the generating
    polynomial of the words of S_n by the positive entries of their
    excedance vector lowered r times, read one entry at a time."""
    counts = [0] * (n + 1)
    for word in enumerate_class(n):
        c = 0
        for k in range(n - r):
            if word[k] >= k + 1 + r:
                c += 1
        counts[c] += 1
    return Poly(counts)


def injections_per_entry(n, r):
    """The reference for `injection_polynomial`: the generating polynomial
    of the injections of {1..n-r} into {1..n} by the entries that stay
    positive after r lowerings, read one entry at a time."""
    counts = [0] * (n + 1)
    for phi in itertools.permutations(range(1, n + 1), n - r):
        c = 0
        for k, v in enumerate(phi, start=1):
            if v - k + 1 > r:
                c += 1
        counts[c] += 1
    return Poly(counts)
