"""
Permutations of {1..n} in one-line notation, their excedance / descent / rise
statistic vectors, and the shift-and-truncate operators acting on them.

Conventions
-----------
* A permutation is stored as the word (sigma(1), ..., sigma(n)); the empty
  word is the unique permutation of size 0.
* Every position or value reported by this module is 1-based.
* Words and statistic vectors are plain tuples of ints. A statistic vector
  lies in N^p: each entry is the positive part (x)+ = max(0, x) of an
  integer expression, and each kernel clamps its own entries.
* The operators act on N^p: they expect nonnegative entries, as every
  kernel returns, and clamp what they lower.
* Descent and rise vectors hard-code the boundary values
  sigma(0) = sigma^(-1)(0) = sigma(n+1) = 0.

Every function is pure and returns immutable values or a fresh iterator or
Counter, so everything here is safe to share across threads.
"""
from __future__ import annotations

import itertools
from collections import Counter
from operator import add, getitem
from typing import Callable, Iterator, NamedTuple

DEFAULT_PERM_BUDGET = 10
DEFAULT_MAP_SCAN_BUDGET = 7


class BudgetError(ValueError):
    """An exhaustive scan would exceed its configured budget."""


def check_budget(n: int, max_n: int, what: str) -> None:
    if n > max_n:
        raise BudgetError(f"{what} at n={n} exceeds the configured limit max_n={max_n}")


# ---------------------------------------------------------------------------
# operators on statistic vectors


def delta(v) -> tuple[int, ...]:
    """Drop the last entry and lower every remaining one by 1, clamped."""
    if not v:
        raise ValueError("delta on empty vector")
    return tuple([x - 1 if x else 0 for x in v[:-1]])


def delta_prime(v) -> tuple[int, ...]:
    """Drop the first entry."""
    if not v:
        raise ValueError("delta_prime on empty vector")
    return v[1:]


def delta_second(v) -> tuple[int, ...]:
    """Drop the last entry."""
    if not v:
        raise ValueError("delta_second on empty vector")
    return v[:-1]


def lambda_op(v) -> tuple[int, ...]:
    """Lower every entry by 1, clamped; keeps the length."""
    return tuple([x - 1 if x else 0 for x in v])


def delta_power(v, r: int) -> tuple[int, ...]:
    """r-fold delta in one pass: first len(v)-r entries, lowered by r."""
    if r == 0:
        return tuple(v)
    if r > len(v):
        raise ValueError("delta on empty vector")
    return tuple([x - r if x > r else 0 for x in v[: len(v) - r]])


def positive_count(v) -> int:
    """Number of strictly positive entries."""
    return sum(1 for x in v if x > 0)


# ---------------------------------------------------------------------------
# statistic vectors of a permutation


def excedance_vector(p: tuple[int, ...]) -> tuple[int, ...]:
    """(sigma(k) - (k-1))+ for k = 1..n.

    Entry k equals 1 exactly when k is a fixed point, and exceeds 1 exactly
    when sigma(k) > k.

    >>> excedance_vector((6, 4, 1, 2, 5, 3))
    (6, 3, 0, 0, 1, 0)
    """
    return tuple([v - k if v > k else 0 for k, v in enumerate(p)])


def descent_vector(p: tuple[int, ...]) -> tuple[int, ...]:
    """Entry k is (sigma(j-1) - (k-1))+ where j is the position of value k.

    Entries are 0 or >= 2, and the last entry is always 0. One scan over
    adjacent letters fills it: a letter v after prev >= v gets
    prev - v + 1, and the first letter follows the boundary value 0.

    >>> descent_vector((6, 4, 1, 2, 5, 3))
    (4, 0, 3, 3, 0, 0)
    """
    out = [0] * (len(p) + 1)
    prev = 0
    for v in p:
        if prev >= v:
            out[v] = prev - v + 1
        prev = v
    return tuple(out[1:])


def rise_vector(p: tuple[int, ...]) -> tuple[int, ...]:
    """Entry k is (sigma(1 + j) - (k-1))+ where j is the position of k-1.

    One scan over adjacent letters fills it: a letter v after prev < v sets
    entry prev + 1 to v - prev, and the first letter follows the boundary
    value 0, so entry 1 is the first letter.

    >>> rise_vector((6, 4, 1, 2, 5, 3))
    (6, 1, 3, 0, 0, 0)
    """
    out = [0] * (len(p) + 1)
    prev = 0
    for v in p:
        if v > prev:
            out[prev + 1] = v - prev
        prev = v
    return tuple(out[1:])


def fixed_point_vector(p: tuple[int, ...]) -> tuple[int, ...]:
    """0/1 indicator of fixed points, entry k for position k."""
    return tuple([1 if v == k else 0 for k, v in enumerate(p, start=1)])


def left_to_right_maxima(p) -> tuple[int, ...]:
    """Positions whose value exceeds every earlier value (position 1 always)."""
    out = []
    best = 0
    for j, v in enumerate(p, start=1):
        if v > best:
            out.append(j)
            best = v
    return tuple(out)


def ltr_maximum_count(p) -> int:
    return len(left_to_right_maxima(p))


def dprime_vector(p: tuple[int, ...]) -> tuple[int, ...]:
    """0/1 certificate whose entrywise sum with the descent vector records both
    descents and runs of left-to-right maxima.

    Entry j is 1 when the value j is a left-to-right maximum of the word and
    either sits at the last position or is immediately followed by another
    left-to-right maximum. One scan tracks the running maximum: a new
    maximum marks the old one when the old one is the letter just before
    it, and the last letter is marked when it is a maximum (it is then n).

    >>> dprime_vector((4, 2, 5, 6, 1, 3))
    (0, 0, 0, 0, 1, 0)
    """
    out = [0] * (len(p) + 1)  # out[0] takes the empty maximum before the first letter
    best = prev = 0
    for v in p:
        if v > best:
            if prev == best:
                out[best] = 1
            best = v
        prev = v
    if prev == best:
        out[best] = 1
    return tuple(out[1:])


def descent_plus_certificate(p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, descent_vector(p), dprime_vector(p)))


# ---------------------------------------------------------------------------
# cycle structure


def orbits(p) -> tuple[tuple[int, ...], ...]:
    """Orbit partition under iteration; each orbit is listed in traversal
    order from its smallest element, orbits ordered by smallest element."""
    n = len(p)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        orb = []
        k = start
        while not seen[k]:
            seen[k] = True
            orb.append(k)
            k = p[k - 1]
        out.append(tuple(orb))
    return tuple(out)


def cycle_count(p) -> int:
    return len(orbits(p))


def signature(p) -> int:
    """(-1) ** (number of orbits + n)."""
    return -1 if (cycle_count(p) + len(p)) % 2 else 1


# ---------------------------------------------------------------------------
# permutation classes


class ClassTag(NamedTuple):
    kind: str
    r: int | None = None


ALL = ClassTag("all")
CIRCULAR = ClassTag("circular")
SUCCESSION_FREE = ClassTag("succession_free")
DERANGEMENT = ClassTag("derangement")
ALTERNATING = ClassTag("alternating")
BIEXCEDENT = ClassTag("biexcedent")
FIRST_IS_N = ClassTag("first_is_n")
LAST_IS_1 = ClassTag("last_is_1")


def r_tail_ordered(r: int) -> ClassTag:
    """Words in which the r largest values occur in increasing order."""
    return ClassTag("r_tail_ordered", r)


def _is_circular(word) -> bool:
    # the orbit of 1 returns to 1 after exactly n steps; at most n steps are
    # walked, so a word that is not a permutation gets an answer too
    n = len(word)
    k = 1
    for steps in range(1, n + 1):
        k = word[k - 1]
        if k == 1:
            return steps == n
    return False


def _is_succession_free(word) -> bool:
    n = len(word)
    if n == 0:
        return True
    if word[0] == 1:
        return False
    return all(word[j + 1] != word[j] + 1 for j in range(n - 1))


def _is_derangement(word) -> bool:
    return all(v != k for k, v in enumerate(word, start=1))


def _is_alternating(word) -> bool:
    # down-up: every even position 2j <= n-1 is below both neighbours, and
    # when n is even the final letter is below its left neighbour
    n = len(word)
    for e in range(2, n, 2):
        v = word[e - 1]
        if v > word[e - 2] or v > word[e]:
            return False
    if n >= 2 and n % 2 == 0 and word[n - 1] > word[n - 2]:
        return False
    return True


def _is_biexcedent(word) -> bool:
    # each point j must lie below both its image and its preimage, or above
    # both: along every arrow i -> j, j != i and j < word[j] exactly when j < i
    for i, j in enumerate(word, start=1):
        if j == i or (j < word[j - 1]) != (j < i):
            return False
    return True


def _is_first_is_n(word) -> bool:
    return len(word) > 0 and word[0] == len(word)


def _is_last_is_1(word) -> bool:
    return len(word) > 0 and word[-1] == 1


def _is_r_tail_ordered(word, r: int) -> bool:
    n = len(word)
    pos = [0] * (n + 1)
    for j, v in enumerate(word, start=1):
        pos[v] = j
    return all(pos[k] < pos[k + 1] for k in range(n - r + 1, n))


_PREDICATES: dict[str, Callable] = {
    "all": lambda word: True,
    "circular": _is_circular,
    "succession_free": _is_succession_free,
    "derangement": _is_derangement,
    "alternating": _is_alternating,
    "biexcedent": _is_biexcedent,
    "first_is_n": _is_first_is_n,
    "last_is_1": _is_last_is_1,
}


def _predicate(tag: ClassTag, n: int) -> Callable:
    if tag.kind != "r_tail_ordered":
        return _PREDICATES[tag.kind]
    if tag.r is None or not 1 <= tag.r <= n:
        raise ValueError(f"r_tail_ordered needs 1 <= r <= n, got r={tag.r}, n={n}")
    return lambda word: _is_r_tail_ordered(word, tag.r)


def _alternating_window(n: int, k: int, prev: int, placed) -> tuple[int, int]:
    # down-up: an even position lies below its left neighbour, an odd one
    # from position 3 on lies above it
    if k == 1:
        return 1, n + 1
    return (1, prev) if k % 2 == 0 else (prev + 1, n + 1)


def _biexcedent_window(n: int, k: int, prev: int, placed) -> tuple[int, int]:
    # sigma(k) != k, and sigma(k) > k exactly when the value k is still
    # unplaced, i.e. when its position lies to the right of k
    return (1, k) if placed[k] else (k + 1, n + 1)


def _backtrack(n: int, window: Callable) -> Iterator[tuple[int, ...]]:
    """Words of distinct letters from 1..n, in lexicographic order, whose
    letter at each 1-based position k lies in the half-open value range
    window(n, k, previous letter, placed-flags)."""
    word = [0] * n
    placed = [False] * (n + 1)

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        lo, hi = window(n, k, word[k - 2] if k >= 2 else 0, placed)
        for v in range(lo, hi):
            if placed[v]:
                continue
            word[k - 1] = v
            if k == n:
                yield tuple(word)
            else:
                placed[v] = True
                yield from extend(k + 1)
                placed[v] = False

    if n == 0:
        yield ()
    else:
        yield from extend(1)


def _circular_words(n: int) -> Iterator[tuple[int, ...]]:
    """The n-cycles (n, a_1, ..., a_{n-1}) as image words, in lexicographic
    order of the a_i."""
    if n < 1:
        return
    for arr in itertools.permutations(range(1, n)):
        word = [0] * n
        point = n
        for v in arr:
            word[point - 1] = v
            point = v
        word[point - 1] = n
        yield tuple(word)


def _first_is_n_words(n: int) -> Iterator[tuple[int, ...]]:
    # all members share the first letter, so lex order is lex on the rest
    return ((n,) + rest for rest in itertools.permutations(range(1, n))) if n > 0 else iter(())


def _last_is_1_words(n: int) -> Iterator[tuple[int, ...]]:
    return (rest + (1,) for rest in itertools.permutations(range(2, n + 1))) if n > 0 else iter(())


# classes generated directly rather than filtered out of all n! words; the
# backtracked words still pass their class predicate
_GENERATORS: dict[str, Callable[[int], Iterator[tuple[int, ...]]]] = {
    "all": lambda n: itertools.permutations(range(1, n + 1)),
    "first_is_n": _first_is_n_words,
    "last_is_1": _last_is_1_words,
    "circular": _circular_words,
    "alternating": lambda n: filter(_is_alternating, _backtrack(n, _alternating_window)),
    "biexcedent": lambda n: filter(_is_biexcedent, _backtrack(n, _biexcedent_window)),
}


def is_in_class(p, tag: ClassTag) -> bool:
    return _predicate(tag, len(p))(p)


def enumerate_class(
    n: int, tag: ClassTag = ALL, *, max_n: int = DEFAULT_PERM_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Iterate over every member of the class exactly once, as a plain word
    tuple. The scan is exhaustive, hence the budget, which is checked when
    this is called. Every exhaustive sweep of a permutation class in the
    package goes through here.

    Words come in lexicographic order, except in the circular class from
    n = 4 on: it is generated as the n-cycles (n, a_1, ..., a_{n-1}), in
    lexicographic order of the a_i, which is not word order.

    `all`, `first_is_n` and `last_is_1` permute the free letters directly.
    The alternating and biexcedent classes come from a lexicographic
    backtrack that only places letters their definition allows at each
    position; every word it completes still passes the class predicate.
    Every other class filters all n! words through its predicate."""
    check_budget(n, max_n, "permutation enumeration")
    pred = _predicate(tag, n)
    generate = _GENERATORS.get(tag.kind)
    return generate(n) if generate else filter(pred, itertools.permutations(range(1, n + 1)))


def position_sum_counts(n: int, weight) -> Counter:
    """How many words w of S_n reach each total of weight[i][w[i] - 1] over
    the positions i; weight is an n-by-n table. The words are split after
    their first floor(n/2) letters. For each set of first letters, the sums
    of the last ceil(n/2) positions are tabled over the orders of the other
    letters only, so the live table has ceil(n/2)! entries (120 at n = 10),
    and it serves every order of that set's first letters. Each of the n!
    words is still generated and looked up one at a time, at C speed."""
    check_budget(n, DEFAULT_PERM_BUDGET, "position-sum sweep")
    head = n - (n + 1) // 2
    suffix_rows = weight[head:]
    counts: Counter = Counter()
    for chosen in itertools.combinations(range(n), head):
        rest = [v for v in range(n) if v not in chosen]
        suffix_sum = {s: sum(map(getitem, suffix_rows, s)) for s in itertools.permutations(rest)}.__getitem__
        for prefix in itertools.permutations(chosen):
            base = sum(map(getitem, weight, prefix))  # map stops at the end of the prefix
            for total, c in Counter(map(suffix_sum, itertools.permutations(rest))).items():
                counts[base + total] += c
    return counts


def class_size(n: int, tag: ClassTag) -> int:
    return sum(1 for _ in enumerate_class(n, tag))


__all__ = [
    "ALL",
    "ALTERNATING",
    "BIEXCEDENT",
    "BudgetError",
    "CIRCULAR",
    "ClassTag",
    "DEFAULT_MAP_SCAN_BUDGET",
    "DEFAULT_PERM_BUDGET",
    "DERANGEMENT",
    "FIRST_IS_N",
    "LAST_IS_1",
    "SUCCESSION_FREE",
    "check_budget",
    "class_size",
    "cycle_count",
    "delta",
    "delta_power",
    "delta_prime",
    "delta_second",
    "descent_plus_certificate",
    "descent_vector",
    "dprime_vector",
    "enumerate_class",
    "excedance_vector",
    "fixed_point_vector",
    "is_in_class",
    "lambda_op",
    "left_to_right_maxima",
    "ltr_maximum_count",
    "orbits",
    "position_sum_counts",
    "positive_count",
    "r_tail_ordered",
    "rise_vector",
    "signature",
]
