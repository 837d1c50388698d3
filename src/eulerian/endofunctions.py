"""
Self-maps of {1..n}: connected-component structure, the canonical
factorization into connected factors on relabelled domains, and exhaustive
counts of the ultimately idempotent maps.

A map f is its image word (f(1), ..., f(n)), a plain tuple. Two points are
equivalent when some forward iterates of f meet; the classes of that
equivalence are the sub-domains of f, and f is connected when there is a
single class. For a permutation the sub-domains are exactly the orbits.
"""
from __future__ import annotations

import itertools
from typing import Iterable

from .permutations import DEFAULT_MAP_SCAN_BUDGET, check_budget


def trusted_map(image: Iterable[int]) -> tuple[int, ...]:
    """The image word as a plain tuple. Nothing in the package calls this;
    it stays only because perfbench/layers.py builds its maps with it."""
    return tuple(image)


def subdomains(f) -> tuple[tuple[int, ...], ...]:
    """Classes of the coarsest equivalence merging each i with f(i), i.e. the
    weakly connected pieces of the functional graph. Each class is returned
    sorted, classes ordered by smallest element."""
    n = len(f)
    comp = [0] * (n + 1)
    groups: list[list[int]] = []
    for start in range(1, n + 1):
        if comp[start]:
            continue
        path = [start]
        comp[start] = -1
        k = f[start - 1]
        while not comp[k]:
            comp[k] = -1
            path.append(k)
            k = f[k - 1]
        cid = comp[k]
        if cid == -1:
            groups.append([])
            cid = len(groups)
        for v in path:
            comp[v] = cid
        groups[cid - 1].extend(path)
    return tuple(tuple(sorted(g)) for g in groups)


def canonical_factorization(f) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Pairs (factor, sub-domain), sub-domains by smallest element.

    Each factor is the restriction of f to one sub-domain, conjugated onto
    {1..card} by the unique increasing relabelling; factors are connected,
    and the relabelling preserves the sign of f(i) - i pointwise, so
    excedances, fixed points and deficiencies survive the factorization.

    >>> canonical_factorization((6, 4, 1, 2, 5, 3))
    (((3, 1, 2), (1, 3, 6)), ((2, 1), (2, 4)), ((1,), (5,)))
    """
    out = []
    for dom in subdomains(f):
        rank = {v: i for i, v in enumerate(dom, start=1)}
        out.append((tuple([rank[f[v - 1]] for v in dom]), dom))
    return tuple(out)


def count_class_functions(n: int, kind: str) -> int:
    """Exhaustively count the maps of {1..n} to itself of one class; the
    only kind is 'ultimately_idempotent': the n-th iterate equals the
    (n-1)-st, which happens exactly when every cycle of the functional graph
    is a loop.

    Every map is a prefix (f(1), ..., f(n-1)) and a last letter j = f(n).
    The scan walks each of the n^(n-1) prefixes once and labels each point
    by where its chain ends: on a fixed point, at n (the one point not yet
    mapped), or on a longer cycle. A longer cycle rules out all n maps of
    the prefix; otherwise the map prefix + (j,) is valid exactly when its
    chain from j settles on a fixed point, and j = n closes a loop at n. So
    after the label of n is set to "settles", counting that label judges
    each of the n maps by one lookup, at C speed; every map still gets its
    own verdict.
    """
    if kind != "ultimately_idempotent":
        raise ValueError(f"unknown kind {kind!r}")
    if n == 0:
        return 1
    check_budget(n, DEFAULT_MAP_SCAN_BUDGET, "endofunction scan")
    count = 0
    for prefix in itertools.product(range(1, n + 1), repeat=n - 1):
        # 0 unlabelled, -1 on the current walk; then 1 settles on a fixed
        # point, 2 reaches n, 3 falls into a longer cycle
        end = [0] * (n + 1)
        end[n] = 2
        for start in range(1, n):
            if end[start]:
                continue
            path = []
            k = start
            while not end[k]:
                end[k] = -1
                path.append(k)
                k = prefix[k - 1]
            label = end[k] if end[k] > 0 else (1 if prefix[k - 1] == k else 3)
            if label == 3:
                break
            for v in path:
                end[v] = label
        else:
            end[n] = 1
            count += end.count(1)
    return count


__all__ = [
    "canonical_factorization",
    "count_class_functions",
    "subdomains",
    "trusted_map",
]
