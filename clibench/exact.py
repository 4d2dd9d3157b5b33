"""Exact rational helpers of the benchmark's own.

The output checks recompute what they need here, in plain ``Fraction``
lists, so that no check leans on ``cone_audit``'s own linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def vec(values) -> list[Fraction]:
    return [Fraction(a) for a in values]


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def quad(m, v) -> Fraction:
    """v^T m v."""
    return dot([dot(row, v) for row in m], v)


def primitive(v) -> tuple[Fraction, ...]:
    """Positive multiple of ``v`` with coprime integer entries."""
    den = 1
    for a in v:
        den = den * a.denominator // gcd(den, a.denominator)
    ints = [int(a * den) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, a)
    if g == 0:
        return tuple(Fraction(0) for _ in v)
    return tuple(Fraction(a // g) for a in ints)


def rank(rows) -> int:
    """Rank of a list of rational rows, by Gaussian elimination."""
    work = [list(r) for r in rows if any(a != 0 for a in r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r
