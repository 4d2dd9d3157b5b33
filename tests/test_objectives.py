import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cone_audit.errors import (
    DimensionMismatchError,
    InactiveConstraintError,
    NotTangentDirectionError,
    VanishingGradientError,
)
from cone_audit.linalg import RationalVector, matrix, vector
from cone_audit.objectives import (
    AffineRegion,
    ConstraintKind,
    QuadraticObjective,
    RegionKind,
    SmoothLevelSetConstraint,
    SmoothObjective,
    fixture,
)
from cone_audit.optimality import theorem33_check

from step_oracles import contains


def test_quadratic_gradient():
    identity = QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0))
    assert identity.gradient(vector(2, 3)) == vector(2, 3)
    mixed = QuadraticObjective(matrix([[2, 0], [0, -1]]), vector(1, 0))
    assert mixed.gradient(vector(1, 1)) == vector(3, -1)
    swap = QuadraticObjective(matrix([[0, 1], [1, 0]]), vector(0, 0))
    assert swap.gradient(vector(1, 0)) == vector(0, 1)


def test_both_objectives_answer_the_same_calls():
    """gradient_at and curvature_at: exact for quadratic data at a point
    of strings, ints, Fractions or floats, binary64 for its evaluators."""
    q = QuadraticObjective(matrix([[2, 1], [1, 4]]), vector("1/2", -3))
    for point in (("1/3", 2), (Fraction(1, 3), 2), vector("1/3", 2)):
        assert q.gradient_at(point) == vector("19/6", "16/3")
    assert q.gradient_at((0.5, 0)) == vector("3/2", "-5/2")
    v = vector("1/3", 1)
    assert q.curvature_at(None, v) == q.quadratic_form(v) == Fraction(2 * 1 + 2 * 3 + 4 * 9, 9)
    smooth = q.as_smooth()
    assert list(smooth.gradient_at((0.5, 0.0))) == [1.5, -2.5]
    assert smooth.curvature_at((0.5, 0.0), v) == float(np.asarray(v.as_floats()) @ smooth.hessian_at((0.5, 0.0)) @ v.as_floats())
    assert math.isclose(smooth.curvature_at((0.0, 0.0), (1.0, 3.0)), 2 + 6 + 36)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticObjective(matrix([[1, 2], [0, 1]]), vector(0, 0))
    with pytest.raises(DimensionMismatchError):
        QuadraticObjective(matrix([[1, 0, 0], [0, 1, 0]]), vector(0, 0, 0))
    with pytest.raises(DimensionMismatchError):
        QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0, 0))


def test_quadratic_is_an_immutable_record():
    q = QuadraticObjective(matrix([[2, 0], [0, 4]]), vector(1, -1), 3)
    assert q == QuadraticObjective(matrix([[2, 0], [0, 4]]), vector(1, -1), Fraction(3))
    assert hash(q) == hash(QuadraticObjective(matrix([[2, 0], [0, 4]]), vector(1, -1), 3))
    assert QuadraticObjective(q.matrix, q.linear).constant == 0
    assert q._replace(constant=Fraction(5)).value(vector(0, 0)) == 5
    with pytest.raises(ValueError):
        q._replace(matrix=matrix([[1, 2], [0, 1]]))
    for name in ("matrix", "constant", "extra"):
        with pytest.raises(AttributeError):
            setattr(q, name, None)


def test_quadratic_value_and_form():
    q = QuadraticObjective(matrix([[2, 0], [0, 4]]), vector(1, -1), 3)
    # (1/2)(2 + 4) + (1 - 1) + 3
    assert q.value(vector(1, 1)) == 6
    assert q.quadratic_form(vector(1, 2)) == 2 + 16


def test_smooth_wrapper_matches_exact():
    rng = random.Random(3)
    q = QuadraticObjective(matrix([[2, 1], [1, 4]]), vector("1/2", -3))
    smooth = q.as_smooth()
    for _ in range(20):
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        exact_point = RationalVector([Fraction(v) for v in x])
        exact = [float(a) for a in q.gradient(exact_point)]
        approx = smooth.gradient_at(x)
        assert np.allclose(approx, exact, atol=1e-12)


def test_hessian_finite_difference_consistency():
    def gradient(x):
        return np.array([math.cos(x[0]) + x[1] ** 2, 2 * x[0] * x[1]])

    def hessian(x):
        return np.array([[-math.sin(x[0]), 2 * x[1]], [2 * x[1], 2 * x[0]]])

    obj = SmoothObjective(2, gradient, hessian)
    rng = random.Random(5)
    step = 1e-6
    for _ in range(10):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        hess = np.asarray(obj.hessian_at(x))
        for j in range(2):
            offset = np.zeros(2)
            offset[j] = step
            column = (np.asarray(obj.gradient_at(x + offset)) - np.asarray(obj.gradient_at(x - offset))) / (2 * step)
            denominator = max(1.0, float(np.max(np.abs(hess[:, j]))))
            assert np.max(np.abs(column - hess[:, j])) / denominator < 1e-5


def test_hessian_symmetry_enforced():
    obj = SmoothObjective(
        2,
        gradient=lambda x: np.zeros(2),
        hessian=lambda x: np.array([[0.0, 1.0], [0.0, 0.0]]),
    )
    with pytest.raises(ValueError):
        obj.hessian_at([0.0, 0.0])


def test_region_infimum():
    half = AffineRegion(RegionKind.HALF_SPACE, [1.0, 0.0], 0.0)
    value, point, ray = half.linear_infimum([-2.0, 0.0])
    assert value == 0.0 and ray is None
    value, _, ray = half.linear_infimum([1.0, 0.0])
    assert value == float("-inf") and ray is not None
    value, _, ray = half.linear_infimum([0.0, 1.0])
    assert value == float("-inf")
    assert abs(float(np.asarray(ray) @ np.array([1.0, 0.0]))) < 1e-12
    plane = AffineRegion(RegionKind.HYPERPLANE, [2.0, 0.0], -4.0)
    value, point, ray = plane.linear_infimum([-1.0, 0.0])
    assert ray is None and abs(value - 2.0) < 1e-12


def test_smooth_tangent_cone_ex31():
    fx = fixture("ex31")
    point = fx.candidate_point
    region = fx.constraint.tangent_cone(point)
    assert region.kind is RegionKind.HALF_SPACE
    assert np.allclose(region.normal, [4 * math.sqrt(3), 0.0], atol=1e-9)
    assert region.offset == 0.0
    assert region.contains([-1.0, 5.0])
    assert not region.contains([1.0, 0.0])


def test_smooth_tangent_cone_ex32():
    fx = fixture("ex32")
    region = fx.constraint.tangent_cone(fx.candidate_point)
    assert region.kind is RegionKind.HYPERPLANE
    assert np.allclose(region.normal, [-2.0, 0.0])
    assert region.contains([0.0, 3.0])
    assert not region.contains([1.0, 0.0])


def test_smooth_tangent_cone_affine_constraint():
    linear = SmoothLevelSetConstraint(
        kind=ConstraintKind.INEQUALITY,
        dimension=2,
        value=lambda x: x[0],
        gradient=lambda x: np.array([1.0, 0.0]),
        hessian=lambda x: np.zeros((2, 2)),
    )
    region = linear.tangent_cone([0.0, 0.0])
    assert region.kind is RegionKind.HALF_SPACE
    assert np.allclose(region.normal, [1.0, 0.0])
    second = linear.tangent_cone([0.0, 0.0]).tangent_cone_at([0.0, 1.0])
    assert second.offset == 0.0


def test_smooth_second_order_sets():
    fx31 = fixture("ex31")
    second = fx31.constraint.tangent_cone(fx31.candidate_point).tangent_cone_at([0.0, 1.0])
    assert abs(second.normalized_offset() * np.linalg.norm(second.normal) / second.normal[0]
               - (-6 / (4 * math.sqrt(3)))) < 1e-9
    fx32 = fixture("ex32")
    second32 = fx32.constraint.tangent_cone(fx32.candidate_point).tangent_cone_at([0.0, 1.0])
    # hyperplane -2 w1 = -4, i.e. w1 = 2
    assert abs(second32.offset / second32.normal[0] - 2.0) < 1e-12
    with pytest.raises(NotTangentDirectionError):
        fx31.constraint.tangent_cone(fx31.candidate_point).tangent_cone_at([1.0, 0.0])
    # <(-2, 0), (0.4, 1)> = -0.8 lies within 0.5 |normal| |v|: at tolerance
    # 0.5 the tangent flag and T2 both accept v, at 1e-9 neither does
    v = [0.4, 1.0]
    tangent = fx32.constraint.tangent_cone(fx32.candidate_point, 0.5)
    (bundle,) = theorem33_check(fx32.objective, tangent, fx32.candidate_point, [v], 0.5)
    assert bundle.direction.in_tangent_cone and bundle.direction.negation_in_tangent_cone
    assert abs(bundle.second_order_set.offset + 4.32) < 1e-12
    assert not fx32.constraint.tangent_cone(fx32.candidate_point).contains(v)
    with pytest.raises(NotTangentDirectionError):
        fx32.constraint.tangent_cone(fx32.candidate_point).tangent_cone_at(v)


def test_constraint_preconditions():
    fx = fixture("ex31")
    with pytest.raises(InactiveConstraintError):
        fx.constraint.tangent_cone([0.0, 0.0])  # interior point
    degenerate = SmoothLevelSetConstraint(
        kind=ConstraintKind.INEQUALITY,
        dimension=1,
        value=lambda x: x[0] ** 2,
        gradient=lambda x: np.array([2 * x[0]]),
    )
    with pytest.raises(VanishingGradientError):
        degenerate.tangent_cone([0.0])
    without_hessian = SmoothLevelSetConstraint(
        kind=ConstraintKind.INEQUALITY,
        dimension=1,
        value=lambda x: x[0],
        gradient=lambda x: np.array([1.0]),
    )
    with pytest.raises(ValueError, match="no Hessian"):
        without_hessian.tangent_cone([0.0]).tangent_cone_at([0.0])


def test_fixtures_catalog():
    assert fixture("ex31").dimension == 2
    assert fixture("ex32").constraint.kind is ConstraintKind.EQUALITY
    ex41 = fixture("ex41")
    assert ex41.dimension == 1
    assert contains(ex41.polyhedron, vector(0))
    assert ex41.objective.hessian is None
    grad = ex41.objective.gradient_at([-0.5])
    assert abs(float(grad[0]) - 0.5) < 1e-15
    grad = ex41.objective.gradient_at([0.5])
    assert abs(float(grad[0]) - 0.25) < 1e-15
    with pytest.raises(KeyError):
        fixture("ex99")
