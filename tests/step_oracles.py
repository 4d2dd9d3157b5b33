"""Brute-force step oracles: the reference the cone formulas are tested against.

Each oracle decides tangency by actually stepping into the polyhedron at an
exactly computed step length.  For polyhedra the finite step test is
equivalent to the limit definition, which makes the oracles an independent
cross-check of ``Polyhedron.tangent_cone`` and
``PolyhedralCone.tangent_cone_at``.
"""

from fractions import Fraction

from cone_audit.errors import DimensionMismatchError, NotTangentDirectionError
from cone_audit.geometry import Polyhedron
from cone_audit.linalg import RationalVector

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def _is_tangent(polyhedron: Polyhedron, x: RationalVector, v: RationalVector, active: list[int]) -> bool:
    return all(row.dot(v) == 0 for row in polyhedron.eq_matrix.rows) and all(
        polyhedron.ineq_matrix.row(k).dot(v) <= 0 for k in active
    )


def tangent_step_oracle(polyhedron: Polyhedron, x: RationalVector, v: RationalVector) -> bool:
    """Decide tangency by stepping: is x + t* v in the set?

    t* is half of min(slack_i / max(1, |<row_i, v>|)) over inactive rows,
    so no inactive row can flip within the step; membership of the
    stepped point is then exactly equivalent to tangency of v.
    """
    polyhedron.require_member(x)
    if v.dim != polyhedron.dim:
        raise DimensionMismatchError("direction dimension does not match the set")
    step = _ONE
    for k, row in enumerate(polyhedron.ineq_matrix.rows):
        slack = polyhedron.ineq_rhs[k] - row.dot(x)
        if slack > 0:
            speed = abs(row.dot(v))
            step = min(step, slack / max(_ONE, speed))
    return polyhedron.contains(x + v.scale(step * _HALF))


def second_order_step_oracle(
    polyhedron: Polyhedron, x: RationalVector, v: RationalVector, w: RationalVector
) -> bool:
    """Decide membership in the second-order tangent set by stepping.

    Tests x + t v + (t^2/2) w at a rational t small enough that neither
    inactive rows nor active rows with strictly negative <row, v> can be
    violated by the quadratic term; the remaining rows then decide
    membership exactly.  Requires v tangent at x.
    """
    polyhedron.require_member(x)
    active = set(polyhedron._active_rows(x))
    if not _is_tangent(polyhedron, x, v, sorted(active)):
        raise NotTangentDirectionError(
            "direction is not tangent at the base point"
        )
    if w.dim != polyhedron.dim:
        raise DimensionMismatchError("second-order direction dimension mismatch")
    step = _ONE
    for k, row in enumerate(polyhedron.ineq_matrix.rows):
        first = row.dot(v)
        second = abs(row.dot(w))
        if k in active:
            if first < 0:
                step = min(step, -first / max(_ONE, second * _HALF))
        else:
            slack = polyhedron.ineq_rhs[k] - row.dot(x)
            step = min(step, slack / max(_ONE, abs(first) + second * _HALF))
    t = step * _HALF
    probe = x + v.scale(t) + w.scale(t * t * _HALF)
    return polyhedron.contains(probe)
