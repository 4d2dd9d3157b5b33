"""Double description: generator enumeration for polyhedral cones.

Converts a homogeneous system  {v | B v = 0, G v <= 0}  into generators
(extreme rays plus a lineality basis), the way cddlib does (Fukuda & Prodon,
"Double description method revisited", 1996).  Each row enters as its
integer form made primitive, which leaves the cone unchanged, so the whole
computation runs on Python ints, down to the output vectors' integer forms.
The incremental algorithm keeps the pair (lineality basis L, ray list R)
exact at every step:

* L is held as integer rows in reduced echelon form: each row's first
  nonzero entry sits in its pivot column, where every other row is zero.
  Rays are primitive integer vectors that vanish in every pivot column,
  i.e. canonical representatives modulo L;
* a constraint that cuts L removes the cutting row with the largest pivot,
  which re-enters the ray list oriented to the feasible side, and projects
  every other generator onto the constraint hyperplane along it.  Taking
  the largest pivot keeps the remaining rows in echelon form and every
  projected vector zero in the remaining pivot columns, so nothing needs
  reducing again;
* a constraint orthogonal to L performs the classical ray step, pairing
  strictly-feasible with strictly-violating rays.  Each ray carries its
  incidence set (the processed rows it is tight on) as an int bitmask, and
  a pair is adjacent when no third ray's mask contains the pair's common
  mask.  Before that scan a rank test rejects the pair when its common
  mask has fewer than  dim - dim L - 2 + e  bits, e the number of processed
  equality rows: the rows tight on an edge (a two-dimensional face modulo
  L) have rank  dim - dim L - 2, and a mask counts at least its rank plus e
  (each equality is two opposing rows, tight on every ray: two bits, rank
  at most one).  Fukuda & Prodon give both tests; the rank one is only
  necessary, so it drops no edge.  The new ray is tight exactly on
  common | bit:  a positive combination of two rays that are <= 0 on a
  processed row, one of them strictly, is strictly < 0 on it.  A
  projection along a vector of L keeps every processed row's value, so the
  cut step derives its masks too, and no mask is ever recomputed against
  the processed rows.

All choices are index-ordered, and output rays are reduced modulo the
lineality space and scaled to coprime integers, so identical inputs give
bit-identical generator sets.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionCapExceededError, DimensionMismatchError
from .linalg import RationalVector

DEFAULT_DIMENSION_CAP = 10


class GeneratorSet(NamedTuple):
    """V-representation of a polyhedral cone: cone(rays) + span(lineality)."""

    dim: int
    rays: tuple[RationalVector, ...]
    lineality: tuple[RationalVector, ...]

    def is_origin(self) -> bool:
        return not self.rays and not self.lineality

    def spanning_vectors(self) -> tuple[RationalVector, ...]:
        """Rays followed by +-each lineality basis vector (conic generators)."""
        negs = tuple(-v for v in self.lineality)
        return self.rays + self.lineality + negs


def _primitive(entries: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*entries)
    return tuple(k // g for k in entries)


def _integer_row(row: RationalVector, dim: int) -> tuple[int, ...]:
    if row.dim != dim:
        raise DimensionMismatchError(f"row of dimension {row.dim} in a cone of dimension {dim}")
    return _primitive(row.integer_form[0])


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


class _State:
    def __init__(self, dim: int):
        self.dim = dim
        self.lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        self.rays: list[tuple[int, ...]] = []
        self.masks: list[int] = []
        self.processed = 0
        self.equalities = 0

    def add_constraint(self, normal: tuple[int, ...]) -> None:
        """Intersect the current cone with {v | normal . v <= 0}."""
        bit = 1 << self.processed
        self.processed += 1
        lin_values = [_dot(normal, l) for l in self.lineality]
        cut = next((i for i in reversed(range(len(lin_values))) if lin_values[i]), None)
        if cut is not None:
            pivot_vec, pivot_val = self.lineality.pop(cut), lin_values.pop(cut)
            if pivot_val > 0:
                pivot_vec, pivot_val = tuple(-x for x in pivot_vec), -pivot_val

            def project(v: tuple[int, ...], val: int) -> tuple[int, ...]:
                # -pivot_val * (v - (val / pivot_val) * pivot_vec): a positive multiple
                if not val:
                    return v
                return _primitive([val * p - pivot_val * x for x, p in zip(v, pivot_vec)])

            self.lineality = [project(l, val) for l, val in zip(self.lineality, lin_values)]
            self.rays = [project(r, _dot(normal, r)) for r in self.rays] + [pivot_vec]
            self.masks = [m | bit for m in self.masks] + [bit - 1]
            return
        values = [_dot(normal, r) for r in self.rays]
        masks = self.masks
        keep = [i for i, val in enumerate(values) if val <= 0]
        rays = [self.rays[i] for i in keep]
        new_masks = [masks[i] | bit if values[i] == 0 else masks[i] for i in keep]
        minus = [i for i in keep if values[i] < 0]
        edge_rank = self.dim - len(self.lineality) - 2 + self.equalities
        for p, vp in enumerate(values):
            if vp <= 0:
                continue
            rp, mp = self.rays[p], masks[p]
            for m in minus:
                common = mp & masks[m]
                # p and m contain common themselves; a third ray doing so
                # means the pair spans no edge of the cone
                if common.bit_count() < edge_rank or next(
                    islice((1 for o in masks if o & common == common), 2, None), 0
                ):
                    continue
                vm = values[m]
                rays.append(_primitive([vp * x - vm * y for x, y in zip(self.rays[m], rp)]))
                new_masks.append(common | bit)
        self.rays, self.masks = rays, new_masks

    def result(self) -> GeneratorSet:
        lineality = sorted(
            l if next(x for x in l if x) > 0 else tuple(-x for x in l) for l in self.lineality
        )
        return GeneratorSet(
            dim=self.dim,
            rays=tuple(RationalVector.from_ints(r) for r in sorted(self.rays)),
            lineality=tuple(RationalVector.from_ints(l) for l in lineality),
        )


def double_description(
    dim: int,
    eq_rows: Sequence[RationalVector] = (),
    ineq_rows: Sequence[RationalVector] = (),
) -> GeneratorSet:
    """Generators of {v in R^dim | eq_rows . v = 0, ineq_rows . v <= 0}.

    Equalities are processed first (as opposing inequality pairs), which
    shrinks the lineality space early and keeps ray counts small.
    """
    if dim > DEFAULT_DIMENSION_CAP:
        raise DimensionCapExceededError(dim, DEFAULT_DIMENSION_CAP)
    state = _State(dim)
    for row in eq_rows:
        if not row.is_zero():
            normal = _integer_row(row, dim)
            state.add_constraint(normal)
            state.add_constraint(tuple(-x for x in normal))
            state.equalities += 1
    for row in ineq_rows:
        if not row.is_zero():
            state.add_constraint(_integer_row(row, dim))
    return state.result()
