"""Objective models and single smooth level-set constraints.

Two arithmetic regimes coexist behind one interface, ``gradient_at(x)`` and
``curvature_at(x, v)``.  :class:`QuadraticObjective` is exact rational data
(symmetric matrix, linear term, constant) and answers both exactly for the
tolerance-free polyhedral checkers.  :class:`SmoothObjective` wraps binary64
evaluators for the gradient and Hessian and is used wherever the candidate
point is irrational; verdicts in that regime carry explicit tolerances.

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
from typing import TYPE_CHECKING, Callable, NamedTuple

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

if TYPE_CHECKING:  # numpy is imported where floats are computed
    from numpy import ndarray as Array


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
        """Exact M x + q at a point of any entries ``Fraction`` accepts."""
        return self.gradient(RationalVector(map(Fraction, x)))

    def quadratic_form(self, v: RationalVector) -> Fraction:
        return self.matrix.matvec(v).dot(v)

    def curvature_at(self, x, v: RationalVector) -> Fraction:
        """Exact <M v, v>, the same at every x."""
        return self.quadratic_form(v)

    def as_smooth(self) -> "SmoothObjective":
        import numpy as np
        m = np.array(self.matrix.as_float_rows(), dtype=float).reshape(self.dim, self.dim)
        q = np.array(self.linear.as_floats(), dtype=float)
        return SmoothObjective(
            dimension=self.dim,
            gradient=lambda x: m @ x + q,
            hessian=lambda x: m,
        )


class SmoothObjective(NamedTuple):
    """Black-box C1 (optionally C2) objective with float evaluators."""

    dimension: int
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array] | None = None

    def gradient_at(self, x) -> Array:
        import numpy as np
        point = np.asarray(x, dtype=float).reshape(self.dimension)
        grad = np.asarray(self.gradient(point), dtype=float).reshape(-1)
        if grad.shape != (self.dimension,):
            raise DimensionMismatchError("gradient evaluator returned a wrong shape")
        return grad

    def hessian_at(self, x) -> Array:
        if self.hessian is None:
            raise ValueError("objective has no Hessian evaluator")
        import numpy as np
        point = np.asarray(x, dtype=float).reshape(self.dimension)
        hess = np.asarray(self.hessian(point), dtype=float)
        if hess.shape != (self.dimension, self.dimension):
            raise DimensionMismatchError("Hessian evaluator returned a wrong shape")
        scale = max(1.0, float(np.max(np.abs(hess))))
        if float(np.max(np.abs(hess - hess.T))) > 1e-12 * scale:
            raise ValueError("Hessian evaluator is not symmetric at the queried point")
        return hess

    def curvature_at(self, x, v) -> float:
        """<Hess f(x) v, v> in binary64."""
        import numpy as np
        vec = np.asarray(v, dtype=float)
        return float(vec @ self.hessian_at(x) @ vec)


class RegionKind(Enum):
    HALF_SPACE = "half-space"
    HYPERPLANE = "hyperplane"


class AffineRegion:
    """{w | <normal, w> <= offset} or {w | <normal, w> = offset}, float data."""

    def __init__(self, kind: RegionKind, normal, offset: float):
        import numpy as np
        self.kind = kind
        self.normal = np.asarray(normal, dtype=float).reshape(-1)
        self.offset = float(offset)
        if not self.normal.any():
            raise VanishingGradientError("affine region needs a nonzero normal")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def normalized_offset(self) -> float:
        """Offset after scaling the normal to unit Euclidean length."""
        import numpy as np
        return self.offset / float(np.linalg.norm(self.normal))

    def contains(self, w, tol: float = DEFAULT_FLOAT_TOL) -> bool:
        """<normal, w> against the offset within tol * max(1, |normal| |w|)."""
        import numpy as np
        vec = np.asarray(w, dtype=float)
        excess = float(self.normal @ vec) - self.offset
        bound = tol * max(1.0, float(np.linalg.norm(self.normal)) * float(np.linalg.norm(vec)))
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
        import numpy as np
        grad = np.asarray(direction, dtype=float).reshape(-1)
        norm_sq = float(self.normal @ self.normal)
        mu = float(grad @ self.normal) / norm_sq
        residual = grad - mu * self.normal
        base = (self.offset / norm_sq) * self.normal
        scale = max(1.0, float(np.linalg.norm(grad)))
        if float(np.linalg.norm(residual)) > tol * scale:
            return float("-inf"), base, -residual
        if self.kind is RegionKind.HALF_SPACE and mu > tol:
            return float("-inf"), base, -self.normal
        return mu * self.offset, base, None


class ConstraintKind(Enum):
    INEQUALITY = "inequality"
    EQUALITY = "equality"


class SmoothLevelSetConstraint(NamedTuple):
    """One smooth constraint g(x) <= 0 or h(x) = 0 with supplied derivatives."""

    kind: ConstraintKind
    dimension: int
    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    hessian: Callable[[Array], Array] | None = None

    def tangent_cone(self, x, activity_tol: float = DEFAULT_FLOAT_TOL) -> "TangentRegion":
        """Half-space {v | <grad g, v> <= 0}, or the hyperplane for an
        equality, at an active point.  Activity is capped at the default
        tolerance, so a loose verdict tolerance cannot accept a point off
        the set."""
        import numpy as np
        point = np.asarray(x, dtype=float).reshape(self.dimension)
        level = float(self.value(point))
        bound = min(activity_tol, DEFAULT_FLOAT_TOL)
        if abs(level) > bound:
            raise InactiveConstraintError(
                f"constraint value {level} at the queried point exceeds the "
                f"activity tolerance {bound}"
            )
        grad = np.asarray(self.gradient(point), dtype=float).reshape(-1)
        if float(np.linalg.norm(grad)) <= activity_tol:
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

    def __init__(self, kind: RegionKind, gradient, hessian: Callable[[], Array] | None, tol: float):
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
        import numpy as np
        direction = np.asarray(v, dtype=float).reshape(self.dim)
        if not AffineRegion(RegionKind.HYPERPLANE, self.normal, 0.0).contains(direction, self.tol):
            if self.contains(direction, self.tol):
                return PolyhedralCone(self.dim)
            raise NotTangentDirectionError(
                "direction is not tangential to the constraint boundary: "
                f"<grad, v> = {float(self.normal @ direction)}"
            )
        hess = np.asarray(self.hessian(), dtype=float)
        return AffineRegion(self.kind, self.normal, -float(direction @ hess @ direction))


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
    description: str


def _ex31() -> ExampleFixture:
    import numpy as np
    objective = SmoothObjective(
        dimension=2,
        gradient=lambda x: np.array([-4.0 * x[0], -2.0 * x[1]]),
        hessian=lambda x: np.array([[-4.0, 0.0], [0.0, -2.0]]),
    )
    constraint = SmoothLevelSetConstraint(
        kind=ConstraintKind.INEQUALITY,
        dimension=2,
        value=lambda x: 2.0 * x[0] ** 2 + 3.0 * x[1] ** 2 - 6.0,
        gradient=lambda x: np.array([4.0 * x[0], 6.0 * x[1]]),
        hessian=lambda x: np.array([[4.0, 0.0], [0.0, 6.0]]),
    )
    return ExampleFixture(
        name="ex31",
        dimension=2,
        objective=objective,
        constraint=constraint,
        polyhedron=None,
        candidate_point=(math.sqrt(3.0), 0.0),
        default_direction=(0.0, 1.0),
        description="concave quadratic over one smooth inequality (elliptic disk)",
    )


def _ex32() -> ExampleFixture:
    import numpy as np
    objective = SmoothObjective(
        dimension=2,
        gradient=lambda x: np.array([-2.0 * x[0], -2.0 * x[1]]),
        hessian=lambda x: np.array([[-2.0, 0.0], [0.0, -2.0]]),
    )
    constraint = SmoothLevelSetConstraint(
        kind=ConstraintKind.EQUALITY,
        dimension=2,
        value=lambda x: x[0] ** 2 + 2.0 * x[1] ** 2 - 1.0,
        gradient=lambda x: np.array([2.0 * x[0], 4.0 * x[1]]),
        hessian=lambda x: np.array([[2.0, 0.0], [0.0, 4.0]]),
    )
    return ExampleFixture(
        name="ex32",
        dimension=2,
        objective=objective,
        constraint=constraint,
        polyhedron=None,
        candidate_point=(-1.0, 0.0),
        default_direction=(0.0, 1.0),
        description="negative square norm over one smooth equality (ellipse)",
    )


def _ex41_gradient(x: float) -> float:
    return -x if x <= 0.0 else x * x


def _ex41() -> ExampleFixture:
    # C1 but not C2 at the origin: gradient -x on the left, x^2 on the right.
    import numpy as np
    objective = SmoothObjective(
        dimension=1,
        gradient=lambda x: np.array([_ex41_gradient(float(x[0]))]),
        hessian=None,
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
        description="piecewise C1 objective on the nonnegative half-line",
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
