from fractions import Fraction

import numpy as np
import pytest

from cone_audit.analysis import run_analysis
from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalVector, matrix, vector
from cone_audit.objectives import QuadraticObjective, SmoothObjective, fixture
from cone_audit.optimality import Verdict, theorem33_check
from cone_audit.problem import parse_problem_dict
from cone_audit.ssd import (
    estimate_calmness,
    ssd_hessian_closed_form,
    ssd_interval,
    ssd_membership,
    theorem41_check,
)

from conftest import orthant_polyhedron
from ssd_mesh_oracle import TAIL_DELTAS, mesh_member


def ex41_objective():
    return fixture("ex41").objective


def quadratic_1d(m, q=0):
    return QuadraticObjective(matrix([[m]]), vector(q)).as_smooth()


def test_tail_deltas_are_the_nine_fixed_offsets():
    """The reference mesh probes at the offsets the former oracle used."""
    assert TAIL_DELTAS == (
        10.0 ** -4.0, 10.0 ** -4.5, 10.0 ** -5.0, 10.0 ** -5.5, 10.0 ** -6.0,
        10.0 ** -6.5, 10.0 ** -7.0, 10.0 ** -7.5, 10.0 ** -8.0,
    )


def test_membership_example_values():
    """ex41 at 0 in direction 1: the set is [-1, 0], decided exactly, so
    its ends are members and a candidate 2^-60 past an end is not."""
    obj = ex41_objective()
    assert ssd_membership(obj, 0.0, 1.0, -0.5).member
    assert not ssd_membership(obj, 0.0, 1.0, 0.25).member
    assert ssd_membership(obj, 0.0, 1.0, -1.0).member and ssd_membership(obj, 0.0, 1.0, 0.0).member
    assert not ssd_membership(obj, 0.0, 1.0, 2.0 ** -60).member
    assert not ssd_membership(obj, 0.0, 1.0, -1.0 - 2.0 ** -52).member
    # a tolerance widens the set by its width at both ends, never an empty set
    assert ssd_membership(obj, 0.0, 1.0, 2.0 ** -60, 1e-9).member
    assert not ssd_membership(obj, 0.0, -1.0, 0.0, 1.0).member
    assert ssd_interval(obj, 0.0, 1.0) == (-1, 0)
    assert ssd_interval(obj, 0.0, -1.0) is None


def test_membership_quadratic_hessian_action():
    half_sq = quadratic_1d(1)
    assert ssd_membership(half_sq, 0.0, 1.0, 1.0).member
    assert not ssd_membership(half_sq, 0.0, 1.0, 1.5).member
    assert not ssd_membership(half_sq, 0.0, 1.0, 0.5).member
    # the slopes are the exact data: M = 1/3 stays 1/3, at any point
    third = QuadraticObjective(matrix([["1/3"]]), vector(5)).as_smooth()
    assert ssd_interval(third, 7.0, 3) == (1, 1)
    assert ssd_membership(third, Fraction(1, 3), Fraction(3, 7), Fraction(1, 7)).member


def test_membership_rejects_high_dimension():
    q = QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0)).as_smooth()
    with pytest.raises(ValueError):
        ssd_membership(q, 0.0, 1.0, 1.0)
    # a 1-D objective without exact slopes has no exact set either
    with pytest.raises(ValueError, match="slope evaluator"):
        ssd_membership(SmoothObjective(1, gradient=lambda x: x), 0.0, 1.0, 1.0)


def test_interval_family():
    """The ssd report on ex41 writes the interval [-v, 0] for each v >= 0."""
    problem = parse_problem_dict({
        "version": "1",
        "constraint": {"type": "fixture", "name": "ex41"},
        "query": {"regime": "float", "point": [0.0], "directions": [[1.0], [0.0], [2.0], [0.25], [-1.0]],
                  "z_candidates": [[-0.5]]},
    })
    intervals = run_analysis(problem, "ssd")["results"]["closed_form_intervals"]
    assert intervals == [
        {"direction": 1.0, "interval": ["-1", "0"]},
        {"direction": 0.0, "interval": ["0", "0"]},
        {"direction": 2.0, "interval": ["-2", "0"]},
        {"direction": 0.25, "interval": ["-1/4", "0"]},
    ]


def test_ex41_sets_follow_the_point():
    """ex41's slopes are (-1, -1) left of 0, (-1, 0) at 0 and (2x, 2x) right
    of it, so the set at v is {-v}, [-v, 0] (empty for v < 0) and {2xv}."""
    obj = ex41_objective()
    assert ssd_interval(obj, -0.5, 2.0) == (-2, -2)
    assert ssd_interval(obj, 0.5, -1.0) == (-1, -1)
    assert ssd_interval(obj, 1e9, 1.0) == (2 * 10**9, 2 * 10**9)
    assert ssd_interval(obj, 0.1, 1.0) == (2 * Fraction(0.1),) * 2  # the binary64 point


def test_oracle_agrees_with_closed_form_on_grid():
    obj = ex41_objective()
    for v in (0, 1, 2):
        for z in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5):
            member = ssd_membership(obj, 0.0, float(v), z).member
            assert member == (-v <= z <= 0), (v, z)


def test_scaling_invariance():
    obj = ex41_objective()
    for v in (0, 1, 2):
        for z in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5):
            base = ssd_membership(obj, 0.0, float(v), z).member
            scaled = ssd_membership(obj, 0.0, 2.0 * v, 2.0 * z).member
            assert base == scaled


def _mesh_cases():
    """ex41 at five points and 1-D dyadic quadratics at dyadic points."""
    yield from ((ex41_objective(), base) for base in (-2.0, -0.5, 0.0, 0.5, 2.0))
    for m, q, base in ((1, 0, 0.0), ("-2", "1/2", 0.75), ("3/4", "-1", -1.5), (0, 2, 0.25), ("-1/8", 0, 4.0)):
        yield quadratic_1d(m, q), base


def test_exact_verdicts_agree_with_the_mesh_oracle():
    """The exact verdict equals the former mesh oracle's for candidates at
    least 1e-3 from either end of the set, where the mesh's finite tail
    cannot blur the verdict."""
    compared = 0
    for objective, base in _mesh_cases():
        for v in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
            a, b = objective.one_sided_slopes((base,))
            ends = (float(a * Fraction(v)), float(b * Fraction(v)))
            grid = [k / 8 for k in range(-40, 41)] + [e + s for e in ends for s in (-0.5, -1e-3, 1e-3, 0.5)]
            for z in grid:
                if min(abs(z - e) for e in ends) < 1e-3:
                    continue
                exact = ssd_membership(objective, base, v, z).member
                assert exact == mesh_member(objective, base, v, z), (base, v, z)
                compared += 1
    assert compared > 5000


def test_quadratic_interval_is_the_hessian_action():
    """On 1-D quadratic data the set [a v, b v] is the singleton {M v} of
    the Hessian closed form."""
    for m in ("-2", "-1/2", "0", "1/4", "3/2", "5"):
        objective = quadratic_1d(m, "1/2")
        for base in (-1.0, 0.0, 3.5):
            for v in (-2.0, -0.5, 1.0, 4.0):
                (action,) = ssd_hessian_closed_form(objective, (base,), (v,))
                assert ssd_interval(objective, base, v) == (Fraction(action), Fraction(action))
                assert estimate_calmness(objective, (base,)) == abs(Fraction(m))


def test_hessian_closed_form():
    diag = QuadraticObjective(matrix([[2, 0], [0, 3]]), vector(0, 0)).as_smooth()
    assert np.allclose(ssd_hessian_closed_form(diag, (0, 0), (1, 1)), [2.0, 3.0])
    rank_one = SmoothObjective(
        2,
        gradient=lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
        hessian=lambda x: np.ones((2, 2)),
    )
    assert np.allclose(ssd_hessian_closed_form(rank_one, (0, 0), (1, 0)), [1.0, 1.0])
    ex32 = fixture("ex32").objective
    assert np.allclose(
        ssd_hessian_closed_form(ex32, (-1.0, 0.0), (0.0, 1.0)), [0.0, -2.0]
    )
    with pytest.raises(ValueError):
        ssd_hessian_closed_form(ex41_objective(), (0.0,), (1.0,))


def test_calmness_estimates():
    """The calmness modulus max(|a|, |b|) of f' is exact: 1 at ex41's
    origin, 2x right of it, and |M| for quadratic data."""
    assert estimate_calmness(ex41_objective(), (0.0,)) == 1
    assert estimate_calmness(ex41_objective(), (-3.0,)) == 1
    assert estimate_calmness(ex41_objective(), (1e9,)) == 2 * 10**9
    assert estimate_calmness(quadratic_1d(1), (0.0,)) == 1
    assert estimate_calmness(quadratic_1d("-1/3"), (2.0,)) == Fraction(1, 3)


def test_calmness_dimension_limit():
    """Calmness is computed in one dimension; any other is refused before
    any gradient is evaluated."""
    calls = []

    def gradient(x):
        calls.append(x)
        return x

    plane = SmoothObjective(2, gradient=gradient)
    with pytest.raises(ValueError, match="1-D objective"):
        estimate_calmness(plane, np.zeros(2))
    with pytest.raises(ValueError, match="1-D objective"):
        estimate_calmness(QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0)).as_smooth(), (0.0, 0.0))
    assert calls == []


def test_theorem41_counterexample_fixture():
    fx = fixture("ex41")
    tangent = fx.polyhedron.tangent_cone(vector(0))
    (report,) = theorem41_check(fx.objective, tangent, (0.0,), [(1.0,)], [(-1.0,)])
    assert report.status == "HypothesisViolated"
    assert report.direction.in_tangent_cone
    assert not report.direction.negation_in_tangent_cone
    assert report.direction.gradient_orthogonal
    assert report.pairings[0].pairing == -1.0
    assert not report.pairings[0].holds
    # gradient condition still evaluated and satisfied (gradient is zero)
    assert report.gradient_condition.verdict is Verdict.HOLDS


def test_theorem41_reports_a_direction_out_of_a_level_set():
    """ex31 at (sqrt 3, 0) along (1, 0), out of the disk: the hypothesis
    fails and no gradient condition is evaluated, as on a polyhedron (ex41
    along -1), instead of raising on T2(x, v)."""
    fx = fixture("ex31")
    tangent = fx.constraint.tangent_cone(fx.candidate_point, 1e-9)
    (report,) = theorem41_check(fx.objective, tangent, fx.candidate_point, [(1.0, 0.0)], [(0.0, 0.0)])
    ex41 = fixture("ex41")
    (polyhedral,) = theorem41_check(ex41.objective, ex41.polyhedron.tangent_cone(vector(0)), (0.0,), [(-1.0,)], [])
    for outward in (report, polyhedral):
        assert outward.status == "HypothesisViolated"
        assert not outward.direction.in_tangent_cone
        assert outward.gradient_condition is None
    assert report.pairings[0].holds
    # T2(x, v) is read at the region's tolerance whatever the verdict's is
    (bundle,) = theorem33_check(fx.objective, tangent, fx.candidate_point, [(1e-10, 1.0)], 1e-12)
    assert not bundle.direction.in_tangent_cone and bundle.second_order_set.kind.value == "half-space"


def test_theorem41_hypothesis_satisfied():
    half_sq = SmoothObjective(
        1,
        gradient=lambda x: np.array([x[0]]),
        hessian=lambda x: np.array([[1.0]]),
    )
    (report,) = theorem41_check(half_sq, PolyhedralCone(1), (0.0,), [(1.0,)], [(1.0,)])
    assert report.status == "Holds"
    assert report.direction.is_bidirectional

    plane = SmoothObjective(
        2,
        gradient=lambda x: np.array([x[0], 0.0]),
        hessian=lambda x: np.array([[1.0, 0.0], [0.0, 0.0]]),
    )
    (report,) = theorem41_check(
        plane,
        Polyhedron(2, eq_matrix=matrix([[0, 1]]), eq_rhs=-vector(0)).tangent_cone(vector(0, 0)),
        (0.0, 0.0),
        [(1.0, 0.0)],
        [(1.0, 0.0)],
    )
    assert report.status == "Holds"
    assert report.gradient_condition.verdict is Verdict.HOLDS
    assert report.pairings[0].holds


def test_theorem41_fails_on_bad_pairing():
    half_sq = SmoothObjective(
        1,
        gradient=lambda x: np.array([x[0]]),
        hessian=lambda x: np.array([[1.0]]),
    )
    (report,) = theorem41_check(half_sq, PolyhedralCone(1), (0.0,), [(1.0,)], [(-1.0,)])
    assert report.status == "Fails"


def test_theorem41_checks_exact_data_at_tolerance_zero():
    """Exact quadratic data run at tolerance 0 whatever tolerance is asked
    for, in theorem41_check as in theorem33_check: a gradient of 1e-12
    along v = (1, 0) is not orthogonal to it."""
    quad = QuadraticObjective(matrix([[1, 0], [0, 1]]), RationalVector([Fraction(1e-12), Fraction(0)]))
    origin = vector(0, 0)
    tangent = orthant_polyhedron(2).tangent_cone(origin)
    (report,) = theorem41_check(quad, tangent, origin, [vector(1, 0)], [])
    (bundle,) = theorem33_check(quad, tangent, origin, [vector(1, 0)])
    assert not bundle.direction.gradient_orthogonal
    assert not report.direction.gradient_orthogonal
    assert report.direction.vector == vector(1, 0)
