"""Polyhedral constraint sets and their first/second-order cones.

A :class:`Polyhedron` is the H-form set {x | A x = y, <row_i, x> <= bound_i}.
From a feasible base point it produces, in exact arithmetic:

* the contingent (tangent) cone,
* second-order tangent sets in a tangent direction, together with the
  active rows that remain tight along that direction,
* the normal cone, as the tangent cone's polar (by generators: active rows
  plus the row space of A),
* polars.

Memberships and active sets are decided on integer forms (see
:mod:`cone_audit.linalg`), each vector scaled once however often it is
tested.  The tests cross-check these formulas against brute-force step
oracles that decide tangency by stepping into the set at an exactly
computed step length, and against membership decided in `Fraction`s.

Inequality rows are numbered 1..p on all public surfaces (a tangent cone's
``ineq_origins``, error messages).
"""

from __future__ import annotations

from .dd import GeneratorSet, double_description
from .errors import (
    DimensionMismatchError,
    NotInSetError,
    NotTangentDirectionError,
)
from .linalg import RationalMatrix, RationalVector, row_space_basis

class PolyhedralCone:
    """A polyhedral cone, held as {v | eq v = 0, ineq v <= 0} and/or generators.

    Whichever representation is missing is computed on demand and cached:
    the generators by double description, the H-form as the polar's
    generators, read from the cone :meth:`polar` was called on where there
    is one (the normal cone N(x) = T(x)° reads the tangent cone's).
    Instances are immutable apart from those caches, so concurrent read-only
    use is safe.  ``ineq_origins`` tags each inequality row with the 1-based
    row of the polyhedron it came from (None for rows without such
    provenance).
    """

    def __init__(
        self,
        dim: int,
        eq_rows: RationalMatrix | None = None,
        ineq_rows: RationalMatrix | None = None,
        ineq_origins: tuple[int | None, ...] | None = None,
        *,
        generators: GeneratorSet | None = None,
    ):
        if eq_rows is None and ineq_rows is None and generators is None:
            eq_rows = RationalMatrix([], dim)
            ineq_rows = RationalMatrix([], dim)
        self.dim = dim
        has_h = eq_rows is not None or ineq_rows is not None
        self._eq = eq_rows if eq_rows is not None else (RationalMatrix([], dim) if has_h else None)
        self._ineq = ineq_rows if ineq_rows is not None else (RationalMatrix([], dim) if has_h else None)
        if self._eq is not None and self._eq.ncols != dim:
            raise DimensionMismatchError("equality rows do not match cone dimension")
        if self._ineq is not None and self._ineq.ncols != dim:
            raise DimensionMismatchError("inequality rows do not match cone dimension")
        if ineq_origins is not None and self._ineq is not None and len(ineq_origins) != self._ineq.nrows:
            raise DimensionMismatchError("one origin tag per inequality row is required")
        if ineq_origins is None and self._ineq is not None:
            ineq_origins = (None,) * self._ineq.nrows
        self.ineq_origins = ineq_origins if self._ineq is not None else ()
        if generators is not None and generators.dim != dim:
            raise DimensionMismatchError("generators do not match cone dimension")
        self._generators = generators
        self._extreme: GeneratorSet | None = None
        self._polar: PolyhedralCone | None = None

    # -- constructors --------------------------------------------------

    @classmethod
    def nonnegative_orthant(cls, dim: int) -> "PolyhedralCone":
        return cls(
            dim,
            eq_rows=RationalMatrix([], dim),
            ineq_rows=RationalMatrix([-RationalVector.unit(dim, i) for i in range(dim)], dim),
            ineq_origins=tuple(range(1, dim + 1)),
        )

    # -- representations ------------------------------------------------

    @property
    def eq_rows(self) -> RationalMatrix:
        self._ensure_h()
        return self._eq

    @property
    def ineq_rows(self) -> RationalMatrix:
        self._ensure_h()
        return self._ineq

    def generators(self) -> GeneratorSet:
        if self._generators is None:
            self._generators = self.extreme_generators()
        return self._generators

    def extreme_generators(self) -> GeneratorSet:
        """Extreme rays and a lineality basis by double description of the
        H-form; computed apart from :meth:`generators` only for given ones."""
        if self._extreme is None:
            self._ensure_h()
            self._extreme = double_description(self.dim, tuple(self._eq.rows), tuple(self._ineq.rows))
        return self._extreme

    def _ensure_h(self) -> None:
        if self._eq is not None:
            return
        # H-form of cone(R) + span(L): each polar ray gives one inequality,
        # each polar lineality vector one equality
        polar_gens = (self._polar if self._polar is not None else self.polar()).generators()
        self._eq = RationalMatrix(polar_gens.lineality, self.dim)
        self._ineq = RationalMatrix(polar_gens.rays, self.dim)
        self.ineq_origins = (None,) * self._ineq.nrows

    # -- queries ----------------------------------------------------------

    def contains(self, v: RationalVector) -> bool:
        if v.dim != self.dim:
            raise DimensionMismatchError(
                f"vector dimension {v.dim} does not match cone dimension {self.dim}"
            )
        self._ensure_h()
        return all(row.scaled_dot(v) == 0 for row in self._eq.rows) and all(
            row.scaled_dot(v) <= 0 for row in self._ineq.rows
        )

    def polar(self) -> "PolyhedralCone":
        """The cone of functionals nonpositive on this cone.

        Each representation of the polar is this cone's other one.  H-form
        rows give the polar's generators: inequality rows as rays, the RREF
        basis of the equality rows as lineality, primitive and sorted.
        Generators give its H-form: one inequality per ray, one equality per
        lineality basis vector.
        """
        if self._eq is None:
            gens = self._generators
            polar = PolyhedralCone(
                self.dim,
                eq_rows=RationalMatrix(gens.lineality, self.dim),
                ineq_rows=RationalMatrix(gens.rays, self.dim),
            )
        else:
            rays = {r.integer_form[0]: r for r in map(RationalVector.primitive, self._ineq.rows)}
            lineality = [l.primitive() for l in row_space_basis(self._eq)]
            gens = GeneratorSet(
                self.dim,
                tuple(rays[key] for key in sorted(rays)),
                tuple(sorted(lineality, key=lambda r: r.integer_form[0])),
            )
            polar = PolyhedralCone(self.dim, generators=gens)
        polar._polar = self
        return polar

    def tangent_cone_at(self, v: RationalVector) -> "PolyhedralCone":
        """The tangent cone at a member v: the equality rows and the
        inequality rows tight at v, with their origins.

        For the tangent cone T(x) of a polyhedron this is the second-order
        tangent set T2(x, v).  Raises :class:`NotTangentDirectionError` when
        v is not in the cone.
        """
        eq, ineq = self.eq_rows, self.ineq_rows
        values = [row.scaled_dot(v) for row in ineq.rows]
        if any(row.scaled_dot(v) != 0 for row in eq.rows) or any(a > 0 for a in values):
            raise NotTangentDirectionError(
                "direction is not tangent at the base point; the second-order "
                "tangent set is only defined for tangent directions"
            )
        tight = [k for k, a in enumerate(values) if a == 0]
        return PolyhedralCone(
            self.dim,
            eq_rows=eq,
            ineq_rows=RationalMatrix([ineq.row(k) for k in tight], self.dim),
            ineq_origins=tuple(self.ineq_origins[k] for k in tight),
        )

    def __repr__(self) -> str:
        if self._eq is not None:
            return f"PolyhedralCone(dim={self.dim}, eq={self._eq.nrows}, ineq={self._ineq.nrows})"
        return f"PolyhedralCone(dim={self.dim}, generators cached)"


def cone_subset(inner: PolyhedralCone, outer: PolyhedralCone) -> tuple[bool, RationalVector | None]:
    """Decide cone inclusion; on failure return a generator of ``inner`` outside ``outer``."""
    if inner.dim != outer.dim:
        raise DimensionMismatchError("cones live in different ambient dimensions")
    for vec in inner.generators().spanning_vectors():
        if not outer.contains(vec):
            return False, vec
    return True, None


def cone_equal(first: PolyhedralCone, second: PolyhedralCone) -> tuple[bool, RationalVector | None]:
    """Mutual inclusion test; the witness vector lies in one cone only."""
    ok, witness = cone_subset(first, second)
    if not ok:
        return False, witness
    ok, witness = cone_subset(second, first)
    if not ok:
        return False, witness
    return True, None


class Polyhedron:
    """H-form convex polyhedron {x | A x = y, <row_i, x> <= bound_i}.

    The set may be empty; methods that take a point check its membership.
    All data is exact, all methods are pure.
    """

    def __init__(
        self,
        dim: int,
        eq_matrix: RationalMatrix | None = None,
        eq_rhs: RationalVector | None = None,
        ineq_matrix: RationalMatrix | None = None,
        ineq_rhs: RationalVector | None = None,
    ):
        self.dim = dim
        self.eq_matrix = eq_matrix if eq_matrix is not None else RationalMatrix([], dim)
        self.eq_rhs = eq_rhs if eq_rhs is not None else RationalVector([])
        self.ineq_matrix = ineq_matrix if ineq_matrix is not None else RationalMatrix([], dim)
        self.ineq_rhs = ineq_rhs if ineq_rhs is not None else RationalVector([])
        if self.eq_matrix.ncols != dim or self.ineq_matrix.ncols != dim:
            raise DimensionMismatchError("constraint rows do not match the ambient dimension")
        if self.eq_matrix.nrows != self.eq_rhs.dim:
            raise DimensionMismatchError("equality block and its right-hand side differ in size")
        if self.ineq_matrix.nrows != self.ineq_rhs.dim:
            raise DimensionMismatchError("inequality rows and bounds differ in size")

    # -- constructors ------------------------------------------------------

    @classmethod
    def nonnegative_orthant(cls, dim: int) -> "Polyhedron":
        rows = RationalMatrix([-RationalVector.unit(dim, i) for i in range(dim)], dim)
        return cls(dim, ineq_matrix=rows, ineq_rhs=RationalVector.zero(dim))

    # -- cones -------------------------------------------------------------

    def tangent_cone(self, x: RationalVector) -> PolyhedralCone:
        """Contingent cone: {v | A v = 0, <row_i, v> <= 0 for active i}.

        One pass over the rows checks that x is a member, raising
        :class:`NotInSetError` at the first violated row (equalities
        first), and collects the active inequality rows.
        """
        if x.dim != self.dim:
            raise DimensionMismatchError(
                f"point dimension {x.dim} does not match ambient dimension {self.dim}"
            )

        def excess(row: RationalVector, bound) -> int:
            """A positive multiple of row . x - bound, in integers."""
            scales = row.integer_form[1] * x.integer_form[1]
            return row.scaled_dot(x) * bound.denominator - bound.numerator * scales

        for i, row in enumerate(self.eq_matrix.rows):
            if excess(row, self.eq_rhs[i]):
                value = row.dot(x)
                raise NotInSetError(
                    f"point violates equality row {i + 1}: got {value}, expected {self.eq_rhs[i]}",
                    violation=value - self.eq_rhs[i],
                )
        active = []
        for k, row in enumerate(self.ineq_matrix.rows):
            sign = excess(row, self.ineq_rhs[k])
            if sign > 0:
                value = row.dot(x)
                raise NotInSetError(
                    f"point violates inequality row {k + 1}: {value} > {self.ineq_rhs[k]}",
                    violated_row=k + 1,
                    violation=value - self.ineq_rhs[k],
                )
            if sign == 0:
                active.append(k)
        return PolyhedralCone(
            self.dim,
            eq_rows=self.eq_matrix,
            ineq_rows=RationalMatrix([self.ineq_matrix.row(k) for k in active], self.dim),
            ineq_origins=tuple(k + 1 for k in active),
        )

    def second_order_tangent_set(self, x: RationalVector, v: RationalVector) -> PolyhedralCone:
        """{w | A w = 0, <row_i, w> <= 0 for active rows orthogonal to v}.

        The returned cone's ``ineq_origins`` are exactly those row numbers,
        so callers can report which constraints stay binding at second order.
        Raises :class:`NotTangentDirectionError` when v is not tangent.
        """
        return self.tangent_cone(x).tangent_cone_at(v)

    def normal_cone(self, x: RationalVector) -> PolyhedralCone:
        """N(x) = T(x)°, by generators: active rows as rays, row space of A
        as lineality.  Its H-form is the tangent cone's generators."""
        return self.tangent_cone(x).polar()

    def __repr__(self) -> str:
        return (
            f"Polyhedron(dim={self.dim}, equalities={self.eq_matrix.nrows}, "
            f"inequalities={self.ineq_matrix.nrows})"
        )
