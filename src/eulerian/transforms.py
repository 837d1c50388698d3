"""
Statistic-transporting bijections on permutations.

The centrepiece is the fundamental transformation, which converts cycle
structure into word structure: list the elements by lexicographic order of
the pairs (orbit maximum, steps needed to reach that maximum), that is, write
each orbit backwards from its maximum and the orbits by increasing maximum.
Orbit maxima of the source become left-to-right maxima of the image, which
is what lets excedance statistics travel to descent statistics.

The companions are built from it: word reversal, value complementation,
rotation against the full cycle, and three composites that land in the
circular permutations, in the words starting with n, or transport the full
excedance vector onto the rise vector.
"""
from __future__ import annotations

from math import factorial

from .permutations import (
    ALTERNATING,
    BIEXCEDENT,
    CIRCULAR,
    DERANGEMENT,
    FIRST_IS_N,
    LAST_IS_1,
    SUCCESSION_FREE,
    class_size,
    delta,
    delta_power,
    descent_plus_certificate,
    descent_vector,
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


def fundamental(p: tuple[int, ...]) -> tuple[int, ...]:
    """Image word lists the elements by lexicographic (orbit maximum,
    distance to maximum) pairs; the last letter is preserved.

    Each orbit is written from its maximum m as m, p^-1(m), p^-2(m), ...,
    and the orbits follow in increasing order of their maxima. One scan
    does it: the values are taken from n down, and each one not yet visited
    is the maximum m of its orbit. Walking forward from p(m) until the walk
    returns to m writes that orbit's segment back to front, so the word is
    built back to front and reversed once at the end.

    >>> fundamental((6, 4, 1, 2, 5, 3))
    (4, 2, 5, 6, 1, 3)
    """
    seen = [False] * (len(p) + 1)
    out = []
    for m in range(len(p), 0, -1):
        if seen[m]:
            continue
        k = p[m - 1]
        while k != m:
            seen[k] = True
            out.append(k)
            k = p[k - 1]
        out.append(m)
    out.reverse()
    return tuple(out)


def fundamental_inverse(tau: tuple[int, ...]) -> tuple[int, ...]:
    """Unique preimage under the fundamental transformation.

    Implemented independently of :func:`fundamental`: the segments of the
    word starting at its left-to-right maxima are read as orbits traversed
    backwards from the maximum. One scan does it: each letter maps to the
    letter before it, except a segment's head, which maps to the last
    letter of its segment, known when the next maximum (or the end) closes
    the segment.
    """
    out = [0] * (len(tau) + 1)  # out[0] takes the empty segment before the first letter
    head = prev = 0
    for v in tau:
        if v > head:
            out[head] = prev
            head = v
        else:
            out[v] = prev
        prev = v
    out[head] = prev
    return tuple(out[1:])


def reverse(p: tuple[int, ...]) -> tuple[int, ...]:
    """Word reversal, sigma(k) -> sigma(n+1-k)."""
    return p[::-1]


def complement_reverse(p: tuple[int, ...]) -> tuple[int, ...]:
    """k -> n+1 - sigma(n+1-k), an involution swapping values and co-values."""
    n = len(p)
    return tuple([n + 1 - v for v in p[::-1]])


def word_rotate(p: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Right-compose r times with the cycle sending n to 1, i.e. rotate the
    one-line word left by r."""
    n = len(p)
    if n == 0:
        return p
    r %= n
    return p[r:] + p[:r]


def excedance_to_rise_steps(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The three stages (rotation, fundamental, reversal) of the map carrying
    the excedance vector onto the rise vector, entry by entry."""
    s1 = word_rotate(p, 1)
    s2 = fundamental(s1)
    return s1, s2, reverse(s2)


def excedance_to_rise(p: tuple[int, ...]) -> tuple[int, ...]:
    """Bijection with excedance_vector(p) == rise_vector(image); it carries
    the fixed-point-free permutations onto the succession-free ones."""
    return excedance_to_rise_steps(p)[2]


def excedance_to_descent(p: tuple[int, ...]) -> tuple[int, ...]:
    """From words ending in 1 to words starting with n, transporting the
    1-shifted excedance vector onto the 1-shifted descent vector.

    The image is the fundamental image rotated to start at the value n.
    """
    n = len(p)
    if n == 0 or p[-1] != 1:
        raise ValueError("expects a word ending in 1")
    h = fundamental(p)
    i = h.index(n)  # 0-based position of the value n
    return h[i:] + h[:i]


def to_circular_steps(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Stages of the size-raising bijection onto circular permutations."""
    s1 = tuple([v + 1 for v in p]) + (1,)
    s2 = excedance_to_descent(s1)
    return s1, s2, fundamental_inverse(s2)


def to_circular(p: tuple[int, ...]) -> tuple[int, ...]:
    """Bijection from all permutations of {1..n-1} onto the circular
    permutations of {1..n}, with excedance_vector(p) == delta of the image's
    excedance vector."""
    return to_circular_steps(p)[2]


# ---------------------------------------------------------------------------
# exhaustive certifications at desk scale
#
# Each check sweeps a full symmetric group (or a stated subclass) and
# confirms both the transported statistics and bijectivity. They return an
# Identity describing the first failure, which the verification suites
# render.


def check_fundamental_statistics(n: int) -> Identity:
    """Excedance vector equals descent-plus-certificate of the image, and the
    lowered vectors coincide, for every permutation of size n."""
    for p in enumerate_class(n):
        h = fundamental(p)
        e = excedance_vector(p)
        if e != descent_plus_certificate(h):
            return Identity(False, e, descent_plus_certificate(h), f"at {p}")
        if n >= 1 and delta(e) != delta(descent_vector(h)):
            return Identity(False, delta(e), delta(descent_vector(h)), f"at {p}")
    return Identity(True, n, n)


def check_fundamental_bijection(n: int) -> Identity:
    """The transformation is bijective, preserves the last letter, and
    restricts to a bijection from circular words onto those starting with n."""
    images = set()
    circ_images = set()
    for p in enumerate_class(n):
        h = fundamental(p)
        images.add(h)
        if n >= 1 and h[-1] != p[-1]:
            return Identity(False, h[-1], p[-1], f"last letter at {p}")
        if is_in_class(p, CIRCULAR):
            if not is_in_class(h, FIRST_IS_N):
                return Identity(False, h, p, "circular image must start with n")
            circ_images.add(h)
    if len(images) != factorial(n):
        return Identity(False, len(images), factorial(n), "not injective")
    first = class_size(n, FIRST_IS_N)
    return Identity(len(circ_images) == first, len(circ_images), first)


def check_fundamental_roundtrip(n: int) -> Identity:
    for p in enumerate_class(n):
        if fundamental_inverse(fundamental(p)) != p:
            return Identity(False, fundamental_inverse(fundamental(p)), p, "roundtrip")
        if fundamental(fundamental_inverse(p)) != p:
            return Identity(False, fundamental(fundamental_inverse(p)), p, "roundtrip")
    return Identity(True, n, n)


def check_record_orbit_lemma(n: int) -> Identity:
    """k is its orbit's maximum iff k is a left-to-right maximum value of the
    image word; k is a fixed point iff k sits last or is followed by another
    left-to-right maximum."""
    for p in enumerate_class(n):
        h = fundamental(p)
        maxima_pos = set(left_to_right_maxima(h))
        record_vals = {h[j - 1] for j in maxima_pos}
        orbit_maxima = {max(orb) for orb in orbits(p)}
        if record_vals != orbit_maxima:
            return Identity(False, sorted(record_vals), sorted(orbit_maxima), f"at {p}")
        pos = {v: j for j, v in enumerate(h, start=1)}
        for k in range(1, n + 1):
            j = pos[k]
            # the fixed-point clause applies to record values only: k must be
            # its orbit's maximum before the neighbour condition means anything
            lemma = k in record_vals and (j == n or (j + 1) in maxima_pos)
            if (p[k - 1] == k) != lemma:
                return Identity(False, p[k - 1] == k, lemma, f"fixed-point clause at {p}, k={k}")
    return Identity(True, n, n)


def check_valley_position_lemma(n: int) -> Identity:
    """k is below both sigma(k) and its preimage iff its position j in the
    image word is a strict local minimum away from the first position."""
    for p in enumerate_class(n):
        h = fundamental(p)
        pre = [0] * (n + 1)
        for j, v in enumerate(p, start=1):
            pre[v] = j
        for j in range(1, n + 1):
            k = h[j - 1]
            lhs = k < p[k - 1] and k < pre[k]
            if j == 1:
                rhs = False
            elif j <= n - 1:
                rhs = k < h[j - 2] and k < h[j]
            else:
                rhs = k < h[j - 2]
            if lhs != rhs:
                return Identity(False, lhs, rhs, f"at {p}, position {j}")
    return Identity(True, n, n)


def check_biexcedent_alternating(n: int) -> Identity:
    """Biexcedent words exist only in even size and have even cycles only;
    the fundamental transformation maps them bijectively onto the
    alternating words of that size."""
    images = set()
    count = 0
    for p in enumerate_class(n, BIEXCEDENT):
        count += 1
        if n % 2:
            return Identity(False, p, None, "odd size must be empty")
        if any(len(orb) % 2 for orb in orbits(p)):
            return Identity(False, p, None, "odd cycle in a biexcedent word")
        h = fundamental(p)
        if not is_in_class(h, ALTERNATING):
            return Identity(False, h, p, "image not alternating")
        images.add(h)
    expect = class_size(n, ALTERNATING) if n % 2 == 0 else 0
    return Identity(len(images) == expect and count == expect, count, expect)


def check_rise_transport(n: int) -> Identity:
    """Full-vector transport of excedances onto rises, bijectively; the
    fixed-point-free words land exactly on the succession-free ones."""
    images = set()
    derangement_images = set()
    for p in enumerate_class(n):
        bar = excedance_to_rise(p)
        if excedance_vector(p) != rise_vector(bar):
            return Identity(False, excedance_vector(p), rise_vector(bar), f"at {p}")
        images.add(bar)
        if is_in_class(p, DERANGEMENT):
            derangement_images.add(bar)
    if len(images) != factorial(n):
        return Identity(False, len(images), factorial(n), "not injective")
    succ = set(enumerate_class(n, SUCCESSION_FREE))
    return Identity(derangement_images == succ, len(derangement_images), len(succ))


def check_descent_transport(n: int) -> Identity:
    """On words ending in 1: lowered excedances transport onto lowered
    descents, bijectively onto the words starting with n."""
    images = set()
    for p in enumerate_class(n, LAST_IS_1):
        q = excedance_to_descent(p)
        if not is_in_class(q, FIRST_IS_N):
            return Identity(False, q, p, "image must start with n")
        if delta(excedance_vector(p)) != delta(descent_vector(q)):
            return Identity(
                False, delta(excedance_vector(p)), delta(descent_vector(q)), f"at {p}"
            )
        images.add(q)
    first = class_size(n, FIRST_IS_N)
    return Identity(len(images) == first, len(images), first)


def check_circular_embedding(n: int) -> Identity:
    """Size raiser onto circular words: the excedance vector of the source is
    the lowered excedance vector of the image."""
    images = set()
    for p in enumerate_class(n - 1):
        q = to_circular(p)
        if not is_in_class(q, CIRCULAR):
            return Identity(False, q, p, "image not circular")
        if excedance_vector(p) != delta(excedance_vector(q)):
            return Identity(False, excedance_vector(p), delta(excedance_vector(q)), f"at {p}")
        images.add(q)
    circ = class_size(n, CIRCULAR)
    return Identity(len(images) == circ, len(images), circ)


def check_reverse_rise(n: int) -> Identity:
    """First rise entry of the reversal is the last letter; the rest are the
    lowered descent entries."""
    for p in enumerate_class(n):
        m = rise_vector(reverse(p))
        if m[0] != p[-1]:
            return Identity(False, m[0], p[-1], f"at {p}")
        dd = delta(descent_vector(p))
        if m[1:] != dd:
            return Identity(False, m[1:], dd, f"at {p}")
    return Identity(True, n, n)


def check_rotation_shift(n: int, r: int) -> Identity:
    """Cropping the excedance vector r times equals lowering it r times after
    rotating the word."""
    for p in enumerate_class(n):
        lhs = excedance_vector(p)[r:]
        rhs = delta_power(excedance_vector(word_rotate(p, r)), r)
        if lhs != rhs:
            return Identity(False, lhs, rhs, f"at {p}, r={r}")
    return Identity(True, n, n)


def check_complement_count(n: int) -> Identity:
    """Positive excedance entries of the complement-reversal and lowered
    positive entries of the word itself always total n."""
    for p in enumerate_class(n):
        total = positive_count(excedance_vector(complement_reverse(p))) + positive_count(
            delta(excedance_vector(p))
        )
        if total != n:
            return Identity(False, total, n, f"at {p}")
    return Identity(True, n, n)


def check_fixed_point_split(n: int) -> Identity:
    """Positive excedance entries split into fixed points plus positive
    lowered entries."""
    for p in enumerate_class(n):
        e = excedance_vector(p)
        if positive_count(e) != positive_count(fixed_point_vector(p)) + positive_count(delta(e)):
            return Identity(False, p, None, "split fails")
    return Identity(True, n, n)


__all__ = [
    "check_biexcedent_alternating",
    "check_circular_embedding",
    "check_complement_count",
    "check_descent_transport",
    "check_fixed_point_split",
    "check_fundamental_bijection",
    "check_fundamental_roundtrip",
    "check_fundamental_statistics",
    "check_record_orbit_lemma",
    "check_reverse_rise",
    "check_rise_transport",
    "check_rotation_shift",
    "check_valley_position_lemma",
    "complement_reverse",
    "excedance_to_descent",
    "excedance_to_rise",
    "excedance_to_rise_steps",
    "fundamental",
    "fundamental_inverse",
    "reverse",
    "to_circular",
    "to_circular_steps",
    "word_rotate",
]
