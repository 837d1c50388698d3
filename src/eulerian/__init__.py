"""
Exact combinatorics of permutation statistics: excedance / descent / rise
vectors and their operator calculus, the fundamental transformation with its
companion bijections, Eulerian and derangement polynomials by independent
routes, a division-free truncated exponential-generating-function engine
over integer EGF values, and the four-letter word calculus behind the tangent and secant
numbers. Every identity is backed by an exhaustive desk-scale verification
suite (see the ``eulerian verify`` command).
"""

from .permutations import (
    ALL,
    ALTERNATING,
    BIEXCEDENT,
    BudgetError,
    CIRCULAR,
    ClassTag,
    DERANGEMENT,
    FIRST_IS_N,
    LAST_IS_1,
    SUCCESSION_FREE,
)
from .polynomials import Identity, Poly
from .series import SquareMatrix, TruncSeries

__all__ = [
    "ALL",
    "ALTERNATING",
    "BIEXCEDENT",
    "BudgetError",
    "CIRCULAR",
    "ClassTag",
    "DERANGEMENT",
    "FIRST_IS_N",
    "Identity",
    "LAST_IS_1",
    "Poly",
    "SquareMatrix",
    "SUCCESSION_FREE",
    "TruncSeries",
]
