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

Their exhaustive certifications are declared in ``eulerian.registry`` as
statistic transports: each sweeps a class, checks word by word that a map
takes a statistic f to a statistic g, and checks that the map is one-to-one
onto its target class where the paper says it is.
"""
from __future__ import annotations


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


__all__ = [
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
