"""Objective models and single smooth level-set constraints.

Two arithmetic regimes coexist behind one interface, ``gradient_at(x)`` and
``curvature_at(x, v)``.  :class:`QuadraticObjective` is exact rational data
(symmetric matrix, linear term, constant) and answers both exactly for the
tolerance-free polyhedral checkers.  :class:`SmoothObjective` wraps binary64
evaluators for the gradient and Hessian and is used wherever the candidate
point is irrational; verdicts in that regime carry explicit tolerances.

The float regime is tuples of Python floats: a vector is a tuple, a matrix
a tuple of rows.  Plain float arithmetic overflows to inf or NaN silently,
so every evaluator output, pairing and Hessian action is checked where it
enters (:func:`_finite`, :func:`_dot`): an infinity raises
``FloatingPointError("overflow encountered in ...")`` and a NaN
``FloatingPointError("invalid value encountered in ...")``.

A :class:`SmoothLevelSetConstraint` describes a set {g <= 0} or {h = 0} cut
out by one smooth function.  At a regular active point its tangent cone is
the half-space (or hyperplane) of the constraint gradient, a
:class:`TangentRegion`, which gives the second-order tangent set as a
polyhedral tangent cone does: in a boundary-tangential direction the affine
translate whose offset is the negated curvature of the constraint, and in a
direction into an inequality's set the whole space.

The worked examples used by the CLI and acceptance suite ship as named
fixtures: "ex31", "ex32", "ex41".
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from operator import add
from typing import Callable, NamedTuple

from .errors import (
    DimensionMismatchError,
    InactiveConstraintError,
    NotTangentDirectionError,
    VanishingGradientError,
)
from .geometry import PolyhedralCone, Polyhedron
from .linalg import RationalMatrix, RationalVector

# the float regime's default verdict and activity tolerance
DEFAULT_FLOAT_TOL = 1e-9

Floats = tuple[float, ...]


def _finite(values, where: str) -> Floats:
    """``values`` as floats, each finite: an infinity overflowed and a NaN is
    an invalid value, each a ``FloatingPointError`` naming ``where``."""
    floats = tuple(map(float, values))
    for a in floats:
        if not math.isfinite(a):
            raise FloatingPointError(f"{'invalid value' if a != a else 'overflow'} encountered in {where}")
    return floats


def _dot(a, b) -> float:
    """<a, b> in binary64, the products summed left to right; a product or
    the sum that overflows raises ``FloatingPointError``."""
    products = _finite((x * y for x, y in zip(a, b, strict=True)), "multiply")
    return _finite([functools.reduce(add, products, 0.0)], "add")[0]


def _norm(a) -> float:
    """|a| by ``math.hypot``, which overflows only where |a| does, not where
    <a, a> does; an overflow raises ``FloatingPointError``."""
    return _finite([math.hypot(*a)], "hypot")[0]


def _action(hessian, v) -> Floats:
    """v H, each column of H paired with v: the Hessian action H^T v."""
    return tuple(_dot(v, column) for column in zip(*hessian))


def _point(x, dimension: int) -> Floats:
    point = tuple(map(float, x))
    if len(point) != dimension:
        raise DimensionMismatchError(f"a point of {len(point)} entries in dimension {dimension}")
    return point


class _QuadraticData(NamedTuple):  # a NamedTuple cannot override __new__ itself
    matrix: RationalMatrix
    linear: RationalVector
    constant: Fraction


class QuadraticObjective(_QuadraticData):
    """f(x) = (1/2) <M x, x> + <q, x> + constant with M exactly symmetric."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates too

    def __new__(cls, matrix: RationalMatrix, linear: RationalVector, constant: Fraction = Fraction(0)):
        if matrix.nrows != matrix.ncols:
            raise DimensionMismatchError("quadratic matrix must be square")
        if not matrix.is_symmetric():
            raise ValueError("quadratic matrix must be exactly symmetric")
        if linear.dim != matrix.ncols:
            raise DimensionMismatchError("linear term does not match the matrix size")
        return super().__new__(cls, matrix, linear, constant)

    @property
    def dim(self) -> int:
        return self.matrix.ncols

    def value(self, x: RationalVector) -> Fraction:
        return Fraction(1, 2) * self.matrix.matvec(x).dot(x) + self.linear.dot(x) + self.constant

    def gradient(self, x: RationalVector) -> RationalVector:
        """Exact M x + q."""
        return self.matrix.matvec(x) + self.linear

    def gradient_at(self, x) -> RationalVector:
        """Exact M x + q at a :class:`RationalVector`, as it is, or at a point of entries ``Fraction`` accepts."""
        return self.gradient(x if isinstance(x, RationalVector) else RationalVector(map(Fraction, x)))

    def quadratic_form(self, v: RationalVector) -> Fraction:
        return self.matrix.matvec(v).dot(v)

    def curvature_at(self, x, v: RationalVector) -> Fraction:
        """Exact <M v, v>, the same at every x."""
        return self.quadratic_form(v)

    def as_smooth(self) -> "SmoothObjective":
        """The float evaluators, and the exact slopes (M, M) at every point."""
        m = self.matrix.as_float_rows()
        q = self.linear.as_floats()
        return SmoothObjective(
            dimension=self.dim,
            gradient=lambda x: [_dot(row, x) + b for row, b in zip(m, q)],
            hessian=lambda x: m,
            slopes=lambda x: (self.matrix, self.matrix),
        )


class SmoothObjective(NamedTuple):
    """Black-box C1 (optionally C2) objective with float evaluators; it may
    also give the exact one-sided slopes of its gradient at a point."""

    dimension: int
    gradient: Callable[[Floats], Floats]
    hessian: Callable[[Floats], tuple[Floats, ...]] | None = None
    slopes: Callable[[tuple[Fraction, ...]], tuple[RationalMatrix, RationalMatrix]] | None = None

    def one_sided_slopes(self, x) -> tuple[RationalMatrix, RationalMatrix]:
        """(A, B), the second-order data of the gradient at x, exact at x's
        exact value (a float's binary64 value): in 1-D the derivatives of f'
        from the left and from the right, and for a C2 objective the Hessian
        twice."""
        if self.slopes is None:
            raise ValueError("the one-sided slopes need an objective with a slope evaluator")
        point = tuple(map(Fraction, x))
        if len(point) != self.dimension:
            raise DimensionMismatchError(f"a point of {len(point)} entries in dimension {self.dimension}")
        return self.slopes(point)

    def gradient_at(self, x) -> Floats:
        grad = _finite(self.gradient(_point(x, self.dimension)), "the gradient evaluator")
        if len(grad) != self.dimension:
            raise DimensionMismatchError("gradient evaluator returned a wrong shape")
        return grad

    def hessian_at(self, x) -> tuple[Floats, ...]:
        if self.hessian is None:
            raise ValueError("objective has no Hessian evaluator")
        hess = tuple(_finite(row, "the Hessian evaluator") for row in self.hessian(_point(x, self.dimension)))
        if len(hess) != self.dimension or any(len(row) != self.dimension for row in hess):
            raise DimensionMismatchError("Hessian evaluator returned a wrong shape")
        scale = max(1.0, *(abs(a) for row in hess for a in row))
        if max(abs(a - b) for row, column in zip(hess, zip(*hess)) for a, b in zip(row, column)) > 1e-12 * scale:
            raise ValueError("Hessian evaluator is not symmetric at the queried point")
        return hess

    def curvature_at(self, x, v) -> float:
        """<Hess f(x) v, v> in binary64."""
        vec = _point(v, self.dimension)
        return _dot(_action(self.hessian_at(x), vec), vec)


class RegionKind(Enum):
    HALF_SPACE = "half-space"
    HYPERPLANE = "hyperplane"


class AffineRegion:
    """{w | <normal, w> <= offset} or {w | <normal, w> = offset}, float data."""

    def __init__(self, kind: RegionKind, normal, offset: float):
        self.kind = kind
        self.normal = tuple(map(float, normal))
        self.offset = float(offset)
        if not any(self.normal):
            raise VanishingGradientError("affine region needs a nonzero normal")

    @property
    def dim(self) -> int:
        return len(self.normal)

    def normalized_offset(self) -> float:
        """Offset after scaling the normal to unit Euclidean length."""
        return self.offset / _norm(self.normal)

    def contains(self, w, tol: float = DEFAULT_FLOAT_TOL) -> bool:
        """<normal, w> against the offset within tol * max(1, |normal| |w|)."""
        excess = _dot(self.normal, w) - self.offset
        bound = tol * max(1.0, _norm(self.normal) * _norm(w))
        if self.kind is RegionKind.HYPERPLANE:
            return abs(excess) <= bound
        return excess <= bound

    def linear_infimum(self, direction, tol: float = DEFAULT_FLOAT_TOL):
        """inf of <direction, w> over the region.

        Returns (value, attained point, None) when finite and
        (-inf, feasible base point, descent ray) when unbounded below.  The
        infimum is finite only when ``direction`` is parallel to the normal:
        any nonparallel direction descends along the region, and for a
        half-space a positive multiple of the normal descends through the
        interior.
        """
        norm_sq = _dot(self.normal, self.normal)
        mu = _dot(direction, self.normal) / norm_sq
        residual = _finite((g - mu * a for g, a in zip(direction, self.normal)), "subtract")
        base = _finite((self.offset / norm_sq * a for a in self.normal), "multiply")
        if _norm(residual) > tol * max(1.0, _norm(direction)):
            return float("-inf"), base, tuple(-a for a in residual)
        if self.kind is RegionKind.HALF_SPACE and mu > tol:
            return float("-inf"), base, tuple(-a for a in self.normal)
        return mu * self.offset, base, None


class ConstraintKind(Enum):
    INEQUALITY = "inequality"
    EQUALITY = "equality"


class SmoothLevelSetConstraint(NamedTuple):
    """One smooth constraint g(x) <= 0 or h(x) = 0 with supplied derivatives."""

    kind: ConstraintKind
    dimension: int
    value: Callable[[Floats], float]
    gradient: Callable[[Floats], Floats]
    hessian: Callable[[Floats], tuple[Floats, ...]] | None = None

    def tangent_cone(self, x, activity_tol: float = DEFAULT_FLOAT_TOL) -> "TangentRegion":
        """Half-space {v | <grad g, v> <= 0}, or the hyperplane for an
        equality, at an active point.  Activity is capped at the default
        tolerance, so a loose verdict tolerance cannot accept a point off
        the set."""
        point = _point(x, self.dimension)
        (level,) = _finite([self.value(point)], "the constraint evaluator")
        bound = min(activity_tol, DEFAULT_FLOAT_TOL)
        if abs(level) > bound:
            raise InactiveConstraintError(
                f"constraint value {level} at the queried point exceeds the "
                f"activity tolerance {bound}"
            )
        grad = _finite(self.gradient(point), "the constraint's gradient evaluator")
        if _norm(grad) <= activity_tol:
            raise VanishingGradientError(
                "constraint gradient vanishes at the queried point"
            )
        kind = (
            RegionKind.HALF_SPACE
            if self.kind is ConstraintKind.INEQUALITY
            else RegionKind.HYPERPLANE
        )
        hessian = None if self.hessian is None else functools.partial(self.hessian, point)
        return TangentRegion(kind, grad, hessian, activity_tol)


class TangentRegion(AffineRegion):
    """T(x) of a level set at an active point x, {v | <grad g(x), v> <=/= 0},
    with the means to evaluate the constraint's Hessian at x and the
    tolerance it was built at, from which it reads T2(x, v)."""

    def __init__(self, kind: RegionKind, gradient, hessian: Callable[[], tuple[Floats, ...]] | None, tol: float):
        super().__init__(kind, gradient, 0.0)
        self.hessian = hessian
        self.tol = tol

    def tangent_cone_at(self, v) -> AffineRegion | PolyhedralCone:
        """T2(x, v) for v in T(x) (Bonnans & Shapiro 2000): the region
        {w | <grad g, w> <=/= -<Hess g v, v>} when <grad g, v> = 0, and the
        whole space when v points into an inequality's set.  Both tests run
        at the region's tolerance."""
        if self.hessian is None:
            raise ValueError("constraint has no Hessian evaluator")
        direction = _point(v, self.dim)
        if not AffineRegion(RegionKind.HYPERPLANE, self.normal, 0.0).contains(direction, self.tol):
            if self.contains(direction, self.tol):
                return PolyhedralCone(self.dim)
            raise NotTangentDirectionError(
                "direction is not tangential to the constraint boundary: "
                f"<grad, v> = {_dot(self.normal, direction)}"
            )
        hess = tuple(_finite(row, "the constraint's Hessian evaluator") for row in self.hessian())
        return AffineRegion(self.kind, self.normal, -_dot(_action(hess, direction), direction))


# ---------------------------------------------------------------------------
# Built-in worked-example fixtures
# ---------------------------------------------------------------------------


class ExampleFixture(NamedTuple):
    """A named, self-contained worked example for the CLI and test suites."""

    name: str
    dimension: int
    objective: SmoothObjective
    constraint: SmoothLevelSetConstraint | None
    polyhedron: Polyhedron | None
    candidate_point: tuple[float, ...]
    default_direction: tuple[float, ...]


def _ex31() -> ExampleFixture:
    # -2 x^2 - y^2
    objective = QuadraticObjective(RationalMatrix([[-4, 0], [0, -2]]), RationalVector([0, 0])).as_smooth()
    constraint = SmoothLevelSetConstraint(
        kind=ConstraintKind.INEQUALITY,
        dimension=2,
        value=lambda x: 2.0 * (x[0] * x[0]) + 3.0 * (x[1] * x[1]) - 6.0,
        gradient=lambda x: (4.0 * x[0], 6.0 * x[1]),
        hessian=lambda x: ((4.0, 0.0), (0.0, 6.0)),
    )
    return ExampleFixture(
        name="ex31",
        dimension=2,
        objective=objective,
        constraint=constraint,
        polyhedron=None,
        candidate_point=(math.sqrt(3.0), 0.0),
        default_direction=(0.0, 1.0),
    )


def _ex32() -> ExampleFixture:
    # -x^2 - y^2
    objective = QuadraticObjective(RationalMatrix([[-2, 0], [0, -2]]), RationalVector([0, 0])).as_smooth()
    constraint = SmoothLevelSetConstraint(
        kind=ConstraintKind.EQUALITY,
        dimension=2,
        value=lambda x: x[0] * x[0] + 2.0 * (x[1] * x[1]) - 1.0,
        gradient=lambda x: (2.0 * x[0], 4.0 * x[1]),
        hessian=lambda x: ((2.0, 0.0), (0.0, 4.0)),
    )
    return ExampleFixture(
        name="ex32",
        dimension=2,
        objective=objective,
        constraint=constraint,
        polyhedron=None,
        candidate_point=(-1.0, 0.0),
        default_direction=(0.0, 1.0),
    )


def _ex41_gradient(x: float) -> float:
    return -x if x <= 0.0 else x * x


def _ex41_slopes(point: tuple[Fraction]) -> tuple[RationalMatrix, RationalMatrix]:
    """f'' from the left and from the right: -1 on x < 0, 2x on x > 0."""
    (x,) = point
    return RationalMatrix([[-1 if x <= 0 else 2 * x]]), RationalMatrix([[-1 if x < 0 else 2 * x]])


def _ex41() -> ExampleFixture:
    # C1 but not C2 at the origin: gradient -x on the left, x^2 on the right.
    objective = SmoothObjective(
        dimension=1,
        gradient=lambda x: (_ex41_gradient(x[0]),),
        slopes=_ex41_slopes,
    )
    halfline = Polyhedron(
        1,
        ineq_matrix=RationalMatrix([RationalVector([-1])], 1),
        ineq_rhs=RationalVector([0]),
    )
    return ExampleFixture(
        name="ex41",
        dimension=1,
        objective=objective,
        constraint=None,
        polyhedron=halfline,
        candidate_point=(0.0,),
        default_direction=(1.0,),
    )


_FIXTURE_BUILDERS = {"ex31": _ex31, "ex32": _ex32, "ex41": _ex41}

FIXTURE_NAMES = tuple(sorted(_FIXTURE_BUILDERS))


def fixture(name: str) -> ExampleFixture:
    """Look up a shipped worked example by name ("ex31", "ex32", "ex41")."""
    try:
        builder = _FIXTURE_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return builder()
