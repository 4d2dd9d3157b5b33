"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import functools
import math
import random
import time
from fractions import Fraction

from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalMatrix, RationalVector, matrix, vector
from cone_audit.objectives import QuadraticObjective, fixture
from cone_audit.optimality import (
    CopositivityStatus,
    Verdict,
    check_c1,
    check_c2_copositivity,
    check_qp,
    classical_second_order_check,
    critical_cone,
    first_order_check,
    theorem33_check,
)
from cone_audit.linalg import solve_linear
from cone_audit.ssd import (
    estimate_calmness,
    ssd_membership,
    theorem41_check,
)

from conftest import (
    cone_equal,
    cone_subset,
    orthant_cone,
    orthant_polyhedron,
    random_feasible_polyhedron,
    random_vector,
)
from step_oracles import contains, second_order_step_oracle, tangent_step_oracle


def criterion(number, budget_seconds, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:2d}] FAIL - {description}")
                raise
            elapsed = time.monotonic() - start
            print(f"[criterion {number:2d}] PASS - {description} ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded"
        return run
    return wrap


@criterion(1, 1.0, "strict inclusion of tangent cone in second-order tangent set")
def test_criterion_1_strict_inclusion_fixture():
    orthant = orthant_polyhedron(2)
    origin = vector(0, 0)
    tangent = orthant.tangent_cone(origin)
    second = orthant.second_order_tangent_set(origin, vector(1, 0))
    equal, _ = cone_equal(tangent, orthant_cone(2))
    assert equal
    upper = PolyhedralCone(2, ineq_rows=matrix([[0, -1]]))
    equal, _ = cone_equal(second, upper)
    assert equal
    included, _ = cone_subset(tangent, second)
    assert included
    equal, witness = cone_equal(tangent, second)
    assert not equal
    assert witness == vector(-1, 0)


@criterion(2, 1.0, "smooth inequality example at the boundary minimizer")
def test_criterion_2_ex31():
    fx = fixture("ex31")
    point = fx.candidate_point
    direction = (0.0, 1.0)
    region = fx.constraint.tangent_cone(point)
    grad = fx.objective.gradient_at(point)
    assert first_order_check(grad, region, 1e-9).verdict is Verdict.HOLDS

    second = fx.constraint.tangent_cone(point).tangent_cone_at(direction)
    rhs = second.offset / second.normal[0]
    assert abs(rhs - (-6.0 / (4.0 * math.sqrt(3.0)))) <= 1e-9

    (bundle,) = theorem33_check(fx.objective, fx.constraint.tangent_cone(point, 1e-9), point, [direction], 1e-9)
    assert bundle.strengthened_gradient.verdict is Verdict.HOLDS
    assert bundle.classical.verdict is Verdict.HOLDS
    assert abs(bundle.classical.margin - 4.0) <= 1e-9
    assert bundle.curvature_at_direction.verdict is Verdict.FAILS
    assert abs(bundle.curvature_at_direction.margin - (-2.0)) <= 1e-9


@criterion(3, 1.0, "smooth equality example at the boundary minimizer")
def test_criterion_3_ex32():
    fx = fixture("ex32")
    point = fx.candidate_point
    direction = (0.0, 1.0)
    second = fx.constraint.tangent_cone(point).tangent_cone_at(direction)
    rhs = second.offset / second.normal[0]
    assert abs(rhs - 2.0) <= 1e-12

    grad = fx.objective.gradient_at(point)
    pairing_on_set = grad[0] * rhs  # <grad, w> is constant on the hyperplane
    assert abs(pairing_on_set - 4.0) <= 1e-12

    (bundle,) = theorem33_check(fx.objective, fx.constraint.tangent_cone(point, 1e-9), point, [direction], 1e-9)
    assert bundle.classical.verdict is Verdict.HOLDS
    assert abs(bundle.classical.margin - 2.0) <= 1e-12
    assert bundle.curvature_at_direction.verdict is Verdict.FAILS
    assert abs(bundle.curvature_at_direction.margin - (-2.0)) <= 1e-12


@criterion(4, 5.0, "piecewise C1 example: interval, oracle grid, hypothesis check, calmness")
def test_criterion_4_ex41():
    fx = fixture("ex41")
    # the second-order subdifferential at 0 in direction v >= 0 is [-v, 0]
    for v in (0, 1, 2):
        for z in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5):
            member = ssd_membership(fx.objective, (0.0,), (float(v),), (z,)).member
            assert member == (-v <= z <= 0), (v, z)

    tangent = fx.polyhedron.tangent_cone(vector(0))
    (report,) = theorem41_check(fx.objective, tangent, (0.0,), [(1.0,)], [(-1.0,)])
    assert report.status == "HypothesisViolated"
    assert report.pairings[0].pairing == -1.0
    assert report.gradient_condition.verdict is Verdict.HOLDS

    estimate = estimate_calmness(fx.objective, (0.0,))
    assert estimate == 1


def _shared_corpus():
    """The 200 random polyhedra (with known feasible base points) used by
    both oracle-equivalence and direction-symmetry criteria."""
    rng = random.Random(2024)
    corpus = []
    for _ in range(200):
        dim = rng.randint(1, 5)
        corpus.append(
            random_feasible_polyhedron(rng, dim, rng.randint(1, 8), rng.randint(0, 2))
        )
    return corpus


@criterion(5, 60.0, "oracle equivalence on 200 random polyhedra")
def test_criterion_5_oracle_equivalence():
    rng = random.Random(2024 + 1)
    first_order_checked = second_order_checked = 0
    for polyhedron, base in _shared_corpus():
        tangent = polyhedron.tangent_cone(base)
        for _ in range(10):
            v = random_vector(rng, polyhedron.dim)
            assert tangent_step_oracle(polyhedron, base, v) == tangent.contains(v)
            first_order_checked += 1
        for v in tangent.generators().spanning_vectors():
            second = polyhedron.second_order_tangent_set(base, v)
            for _ in range(3):
                w = random_vector(rng, polyhedron.dim)
                assert second_order_step_oracle(polyhedron, base, v, w) == second.contains(w)
                second_order_checked += 1
    assert first_order_checked == 2000
    assert second_order_checked > 500


@criterion(6, 30.0, "second-order tangent sets agree for opposite tangent directions")
def test_criterion_6_direction_symmetry():
    checked = 0
    for polyhedron, base in _shared_corpus():
        tangent = polyhedron.tangent_cone(base)
        candidates = list(tangent.generators().spanning_vectors())
        candidates.append(RationalVector.zero(polyhedron.dim))
        for v in candidates:
            if not tangent.contains(-v):
                continue
            forward = polyhedron.second_order_tangent_set(base, v)
            backward = polyhedron.second_order_tangent_set(base, -v)
            equal, _ = cone_equal(forward, backward)
            assert equal
            checked += 1
    assert checked > 200


@criterion(7, 30.0, "polarity and bipolarity of tangent and normal cones")
def test_criterion_7_polarity():
    rng = random.Random(2026)
    for _ in range(100):
        dim = rng.randint(1, 4)
        polyhedron, base = random_feasible_polyhedron(
            rng, dim, rng.randint(1, 6), rng.randint(0, 2)
        )
        tangent = polyhedron.tangent_cone(base)
        normal = polyhedron.normal_cone(base)
        equal, _ = cone_equal(tangent.polar(), normal)
        assert equal
        equal, _ = cone_equal(normal.polar(), tangent)
        assert equal
    for _ in range(100):
        dim = rng.randint(1, 4)
        cone = PolyhedralCone(
            dim,
            eq_rows=RationalMatrix(
                [random_vector(rng, dim) for _ in range(rng.randint(0, 1))], dim
            ),
            ineq_rows=RationalMatrix(
                [random_vector(rng, dim) for _ in range(rng.randint(1, 5))], dim
            ),
        )
        double_polar = cone.polar().polar()
        assert cone.generators() == double_polar.generators()  # canonical comparison
        equal, _ = cone_equal(cone, double_polar)
        assert equal


@criterion(8, 30.0, "classical condition equals strengthened gradient plus curvature sign")
def test_criterion_8_equivalence_on_cones():
    rng = random.Random(2027)
    agreements = 0
    for _ in range(100):
        dim = rng.randint(1, 3)
        polyhedron, base = random_feasible_polyhedron(rng, dim, rng.randint(1, 5))
        entries = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        m = RationalMatrix(
            [
                [Fraction(entries[i][j] + entries[j][i], 2) for j in range(dim)]
                for i in range(dim)
            ],
            dim,
        )
        quad = QuadraticObjective(m, random_vector(rng, dim))
        gradient = quad.gradient(base)
        tangent = polyhedron.tangent_cone(base)
        for v in critical_cone(gradient, tangent).generators().spanning_vectors():
            second = polyhedron.second_order_tangent_set(base, v)
            curvature = quad.quadratic_form(v)
            classical = classical_second_order_check(gradient, curvature, second)
            c1 = check_c1(gradient, second)
            assert (classical.verdict is Verdict.HOLDS) == (
                c1.verdict is Verdict.HOLDS and curvature >= 0
            )
            agreements += 1
    assert agreements > 100


def _kkt_minima(quad: QuadraticObjective, polyhedron: Polyhedron):
    """Brute-force active-set enumeration of KKT points of a convex QP."""
    dim = polyhedron.dim
    rows = list(polyhedron.ineq_matrix.rows)
    minima = []
    for mask in range(1 << len(rows)):
        active = [k for k in range(len(rows)) if mask & (1 << k)]
        size = dim + len(active) + polyhedron.eq_matrix.nrows
        system_rows = []
        rhs = []
        for i in range(dim):  # stationarity: Mx + sum lam_k g_k + A^T mu = -q
            row = [quad.matrix.entry(i, j) for j in range(dim)]
            row += [rows[k][i] for k in active]
            row += [polyhedron.eq_matrix.entry(e, i) for e in range(polyhedron.eq_matrix.nrows)]
            system_rows.append(row)
            rhs.append(-quad.linear[i])
        for k in active:  # active rows hold with equality
            row = list(rows[k].entries) + [Fraction(0)] * (size - dim)
            system_rows.append(row)
            rhs.append(polyhedron.ineq_rhs[k])
        for e in range(polyhedron.eq_matrix.nrows):
            row = list(polyhedron.eq_matrix.row(e).entries) + [Fraction(0)] * (size - dim)
            system_rows.append(row)
            rhs.append(polyhedron.eq_rhs[e])
        solution = solve_linear(
            RationalMatrix(system_rows, size), RationalVector(rhs)
        )
        if solution is None:
            continue
        x = RationalVector(solution.entries[:dim])
        lams = solution.entries[dim : dim + len(active)]
        if any(l < 0 for l in lams):
            continue
        if not contains(polyhedron, x):
            continue
        if all(existing != x for existing in minima):
            minima.append(x)
    return minima


@criterion(9, 60.0, "convex QP minima found by enumeration satisfy all three conditions")
def test_criterion_9_qp_sanity():
    rng = random.Random(2028)
    verified = 0
    for _ in range(50):
        dim = rng.randint(1, 3)
        polyhedron, base = random_feasible_polyhedron(
            rng, dim, rng.randint(1, 5), rng.randint(0, 1)
        )
        factor = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)], dim
        )
        gram = RationalMatrix(
            [
                [
                    sum(
                        (factor.entry(k, i) * factor.entry(k, j) for k in range(dim)),
                        Fraction(0),
                    )
                    for j in range(dim)
                ]
                for i in range(dim)
            ],
            dim,
        )
        quad = QuadraticObjective(gram, random_vector(rng, dim))
        for x in _kkt_minima(quad, polyhedron):
            # convex objective: any KKT point is a global minimum
            assert quad.value(x) <= quad.value(base)
            report = check_qp(quad, polyhedron.tangent_cone(x), x)
            assert report.stationarity.verdict is Verdict.HOLDS
            assert report.strengthened_gradient.verdict is Verdict.HOLDS
            assert report.curvature_on_critical_cone.verdict is Verdict.HOLDS
            verified += 1
    assert verified >= 20


@criterion(10, 1.0, "copositivity unit set")
def test_criterion_10_copositivity():
    orthant = orthant_cone(2)
    assert (
        check_c2_copositivity(matrix([[1, 0], [0, 1]]), orthant).status
        is CopositivityStatus.COPOSITIVE
    )
    assert (
        check_c2_copositivity(matrix([[0, 1], [1, 0]]), orthant).status
        is CopositivityStatus.COPOSITIVE
    )
    indefinite = check_c2_copositivity(matrix([[1, 0], [0, -1]]), orthant)
    assert indefinite.status is CopositivityStatus.NOT_COPOSITIVE
    witness = indefinite.witness
    assert orthant.contains(witness)
    assert matrix([[1, 0], [0, -1]]).matvec(witness).dot(witness) < 0
    line = PolyhedralCone(2, eq_rows=matrix([[1, 0]]))
    subspace = check_c2_copositivity(matrix([[-4, 0], [0, -2]]), line)
    assert subspace.status is CopositivityStatus.NOT_COPOSITIVE
    assert subspace.witness in (vector(0, 1), vector(0, -1))
    assert subspace.witness_value == -2
