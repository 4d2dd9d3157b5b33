"""Brute-force oracles: the reference the cone formulas are tested against.

The step oracles decide tangency by actually stepping into the polyhedron
at an exactly computed step length.  For polyhedra the finite step test is
equivalent to the limit definition, which makes them an independent
cross-check of ``Polyhedron.tangent_cone`` and
``PolyhedralCone.tangent_cone_at``.

Membership, active rows, cone membership, tight rows and polars are decided
here in `Fraction` arithmetic of their own, independent of the integer
forms the package computes them from.
"""

import math
from fractions import Fraction

from cone_audit.dd import GeneratorSet
from cone_audit.errors import DimensionMismatchError, NotInSetError, NotTangentDirectionError
from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalVector, row_space_basis

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def _dot(a: RationalVector, b: RationalVector) -> Fraction:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"vector dimensions differ: {a.dim} vs {b.dim}")
    return sum((x * y for x, y in zip(a.entries, b.entries)), Fraction(0))


def _check_point(polyhedron: Polyhedron, x: RationalVector) -> None:
    if x.dim != polyhedron.dim:
        raise DimensionMismatchError(
            f"point dimension {x.dim} does not match ambient dimension {polyhedron.dim}"
        )


def contains(polyhedron: Polyhedron, x: RationalVector) -> bool:
    _check_point(polyhedron, x)
    return all(
        _dot(row, x) == polyhedron.eq_rhs[i] for i, row in enumerate(polyhedron.eq_matrix.rows)
    ) and all(
        _dot(row, x) <= polyhedron.ineq_rhs[k] for k, row in enumerate(polyhedron.ineq_matrix.rows)
    )


def require_member(polyhedron: Polyhedron, x: RationalVector) -> None:
    """Raise the :class:`NotInSetError` ``Polyhedron.tangent_cone`` raises
    for a point outside the set: the first violated row, equalities first."""
    _check_point(polyhedron, x)
    for i, row in enumerate(polyhedron.eq_matrix.rows):
        value = _dot(row, x)
        if value != polyhedron.eq_rhs[i]:
            raise NotInSetError(
                f"point violates equality row {i + 1}: got {value}, expected {polyhedron.eq_rhs[i]}",
                violation=value - polyhedron.eq_rhs[i],
            )
    for k, row in enumerate(polyhedron.ineq_matrix.rows):
        value = _dot(row, x)
        if value > polyhedron.ineq_rhs[k]:
            raise NotInSetError(
                f"point violates inequality row {k + 1}: {value} > {polyhedron.ineq_rhs[k]}",
                violated_row=k + 1,
                violation=value - polyhedron.ineq_rhs[k],
            )


def active_rows(polyhedron: Polyhedron, x: RationalVector) -> list[int]:
    """0-based indices of the inequality rows tight at x."""
    return [
        k
        for k, row in enumerate(polyhedron.ineq_matrix.rows)
        if _dot(row, x) == polyhedron.ineq_rhs[k]
    ]


def cone_contains(cone: PolyhedralCone, v: RationalVector) -> bool:
    return all(_dot(row, v) == 0 for row in cone.eq_rows.rows) and all(
        _dot(row, v) <= 0 for row in cone.ineq_rows.rows
    )


def tight_rows(cone: PolyhedralCone, v: RationalVector) -> list[int]:
    """Positions of the cone's inequality rows tight at a member v; raises
    ``PolyhedralCone.tangent_cone_at``'s error when v is not a member."""
    if not cone_contains(cone, v):
        raise NotTangentDirectionError(
            "direction is not tangent at the base point; the second-order "
            "tangent set is only defined for tangent directions"
        )
    return [k for k, row in enumerate(cone.ineq_rows.rows) if _dot(row, v) == 0]


def _primitive(v: RationalVector) -> RationalVector:
    if all(a == 0 for a in v.entries):
        return v
    denom_lcm = 1
    for a in v.entries:
        denom_lcm = denom_lcm * a.denominator // math.gcd(denom_lcm, a.denominator)
    ints = [int(a * denom_lcm) for a in v.entries]
    g = 0
    for k in ints:
        g = math.gcd(g, abs(k))
    return RationalVector(Fraction(k, g) for k in ints)


def polar_generators(cone: PolyhedralCone) -> GeneratorSet:
    """The polar of an H-form cone by generators: its inequality rows as
    rays, the RREF basis of its equality rows as lineality, primitive and
    sorted."""
    rays = {_primitive(r) for r in cone.ineq_rows.rows}
    lineality = [_primitive(l) for l in row_space_basis(cone.eq_rows)]
    return GeneratorSet(
        cone.dim,
        tuple(sorted(rays, key=lambda r: r.entries)),
        tuple(sorted(lineality, key=lambda r: r.entries)),
    )


def _is_tangent(polyhedron: Polyhedron, x: RationalVector, v: RationalVector, active: list[int]) -> bool:
    return all(_dot(row, v) == 0 for row in polyhedron.eq_matrix.rows) and all(
        _dot(polyhedron.ineq_matrix.row(k), v) <= 0 for k in active
    )


def tangent_step_oracle(polyhedron: Polyhedron, x: RationalVector, v: RationalVector) -> bool:
    """Decide tangency by stepping: is x + t* v in the set?

    t* is half of min(slack_i / max(1, |<row_i, v>|)) over inactive rows,
    so no inactive row can flip within the step; membership of the
    stepped point is then exactly equivalent to tangency of v.
    """
    require_member(polyhedron, x)
    if v.dim != polyhedron.dim:
        raise DimensionMismatchError("direction dimension does not match the set")
    step = _ONE
    for k, row in enumerate(polyhedron.ineq_matrix.rows):
        slack = polyhedron.ineq_rhs[k] - _dot(row, x)
        if slack > 0:
            speed = abs(_dot(row, v))
            step = min(step, slack / max(_ONE, speed))
    return contains(polyhedron, x + v.scale(step * _HALF))


def second_order_step_oracle(
    polyhedron: Polyhedron, x: RationalVector, v: RationalVector, w: RationalVector
) -> bool:
    """Decide membership in the second-order tangent set by stepping.

    Tests x + t v + (t^2/2) w at a rational t small enough that neither
    inactive rows nor active rows with strictly negative <row, v> can be
    violated by the quadratic term; the remaining rows then decide
    membership exactly.  Requires v tangent at x.
    """
    require_member(polyhedron, x)
    active = set(active_rows(polyhedron, x))
    if not _is_tangent(polyhedron, x, v, sorted(active)):
        raise NotTangentDirectionError(
            "direction is not tangent at the base point"
        )
    if w.dim != polyhedron.dim:
        raise DimensionMismatchError("second-order direction dimension mismatch")
    step = _ONE
    for k, row in enumerate(polyhedron.ineq_matrix.rows):
        first = _dot(row, v)
        second = abs(_dot(row, w))
        if k in active:
            if first < 0:
                step = min(step, -first / max(_ONE, second * _HALF))
        else:
            slack = polyhedron.ineq_rhs[k] - _dot(row, x)
            step = min(step, slack / max(_ONE, abs(first) + second * _HALF))
    t = step * _HALF
    probe = x + v.scale(t) + w.scale(t * t * _HALF)
    return contains(polyhedron, probe)
