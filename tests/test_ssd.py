import math
import random
from fractions import Fraction

import numpy as np
import pytest

from calmness_oracle import _van_der_corput as van_der_corput_digit_loop
from calmness_oracle import reference_calmness
from cone_audit.analysis import run_analysis
from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalVector, matrix, vector
from cone_audit.objectives import QuadraticObjective, SmoothObjective, fixture
from cone_audit.optimality import Verdict, theorem33_check
from cone_audit.problem import parse_problem_dict
from cone_audit.ssd import (
    TAIL_DELTAS,
    _van_der_corput,
    estimate_calmness,
    ssd_hessian_closed_form,
    ssd_membership,
    theorem41_check,
)

from conftest import orthant_polyhedron


def ex41_objective():
    return fixture("ex41").objective


def test_tail_deltas_are_the_nine_fixed_offsets():
    assert TAIL_DELTAS == (
        10.0 ** -4.0, 10.0 ** -4.5, 10.0 ** -5.0, 10.0 ** -5.5, 10.0 ** -6.0,
        10.0 ** -6.5, 10.0 ** -7.0, 10.0 ** -7.5, 10.0 ** -8.0,
    )


def test_membership_example_values():
    obj = ex41_objective()
    assert ssd_membership(obj, 0.0, 1.0, -0.5).member
    verdict = ssd_membership(obj, 0.0, 1.0, 0.25)
    assert not verdict.member
    assert verdict.worst_quotient > 1e-6
    # the attaining sample reproduces the worst quotient on re-evaluation
    repeat = ssd_membership(obj, 0.0, 1.0, 0.25)
    assert repeat.worst_quotient == verdict.worst_quotient
    assert repeat.attaining_sample == verdict.attaining_sample


def test_membership_quadratic_hessian_action():
    half_sq = SmoothObjective(
        1,
        gradient=lambda x: np.array([x[0]]),
        hessian=lambda x: np.array([[1.0]]),
    )
    assert ssd_membership(half_sq, 0.0, 1.0, 1.0).member
    # a perturbation of 0.5 decisively clears the tolerance
    assert not ssd_membership(half_sq, 0.0, 1.0, 1.5).member
    assert not ssd_membership(half_sq, 0.0, 1.0, 0.5).member


def test_membership_rejects_high_dimension():
    q = QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0)).as_smooth()
    with pytest.raises(ValueError):
        ssd_membership(q, 0.0, 1.0, 1.0)


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
    est = estimate_calmness(ex41_objective(), (0.0,), 0.5, samples=256)
    assert est <= 1 + 1e-6
    assert est > 0.9  # the left branch has slope exactly 1
    half_sq = SmoothObjective(
        1, gradient=lambda x: np.array([x[0]])
    )
    assert abs(estimate_calmness(half_sq, (0.0,), 1.0, samples=256) - 1.0) < 1e-6
    cubic = SmoothObjective(
        1, gradient=lambda x: np.array([x[0] ** 2])
    )
    est = estimate_calmness(cubic, (0.0,), 0.1, samples=256)
    assert est <= 0.1 + 1e-9
    assert est > 0.09


def test_calmness_dimension_limit():
    """Calmness is estimated in one dimension; any other is refused before
    any gradient is evaluated."""
    calls = []

    def gradient(x):
        calls.append(x)
        return x

    plane = SmoothObjective(2, gradient=gradient)
    with pytest.raises(ValueError, match="calmness estimation is one-dimensional"):
        estimate_calmness(plane, np.zeros(2), 0.5, samples=8)
    assert calls == []


def _calmness_objectives():
    """ex41 and 30 seeded gradients a x^3 + b sin(c x) + d x."""
    yield ex41_objective()
    rng = random.Random(0)
    for _ in range(30):
        a, b, c, d = (rng.uniform(-3, 3) for _ in range(4))
        yield SmoothObjective(
            1,
            gradient=lambda x, a=a, b=b, c=c, d=d: np.array([a * x[0] ** 3 + b * math.sin(c * x[0]) + d * x[0]]),
        )


def test_van_der_corput_by_bit_reversal():
    """Mirroring the binary digits of i gives the same binary64 point as
    summing them digit by digit, for every i below 2^16."""
    assert all(_van_der_corput(i) == van_der_corput_digit_loop(i, 2) for i in range(1, 2**16 + 1))


def test_calmness_matches_the_halton_reference():
    """The one-dimensional estimate is bit-identical to the Halton-ball
    estimator restricted to one coordinate, at base points from 1e-300 to
    1e6 and radii from 1e-3 to 1."""
    compared = 0
    for objective in _calmness_objectives():
        for base in (0.0, 0.3, -1.7, 1e6, 1e-300):
            for radius in (0.5, 1, 0.1, 1e-3):
                for samples in (1, 8, 256, 512):
                    expected = reference_calmness(objective, (base,), radius, samples)
                    assert estimate_calmness(objective, (base,), radius, samples) == expected
                    compared += 1
    assert compared == 2480


def test_calmness_monotone_in_samples():
    obj = ex41_objective()
    values = [
        estimate_calmness(obj, (0.0,), 0.5, samples=n)
        for n in (8, 32, 128, 512)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


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
