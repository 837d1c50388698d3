"""
Exact combinatorics of permutation statistics: excedance / descent / rise
vectors and their operator calculus, the fundamental transformation with its
companion bijections, Eulerian and derangement polynomials by independent
routes, a division-free truncated exponential-generating-function engine
over integer EGF values, and the four-letter word calculus behind the tangent and secant
numbers. Every identity is backed by an exhaustive desk-scale verification
suite (see the ``eulerian verify`` command).
"""
