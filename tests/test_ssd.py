from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_audit.analysis import revalidate_report, run_analysis
from cone_audit.errors import DimensionMismatchError
from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalVector, matrix, vector
from cone_audit.objectives import QuadraticObjective, SmoothObjective, fixture
from cone_audit.optimality import Verdict, theorem33_check
from cone_audit.problem import parse_problem_dict
from cone_audit.ssd import (
    estimate_calmness,
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

    def member(base, v, z, tolerance=0.0):
        return ssd_membership(obj, (base,), (v,), (z,), tolerance).member

    assert member(0.0, 1.0, -0.5)
    assert not member(0.0, 1.0, 0.25)
    assert member(0.0, 1.0, -1.0) and member(0.0, 1.0, 0.0)
    assert not member(0.0, 1.0, 2.0 ** -60)
    assert not member(0.0, 1.0, -1.0 - 2.0 ** -52)
    # a tolerance widens the set by its width at both ends, never an empty set
    assert member(0.0, 1.0, 2.0 ** -60, 1e-9)
    assert not member(0.0, -1.0, 0.0, 1.0)
    assert ssd_interval(obj, (0.0,), (1.0,)) == ((-1,), (0,))
    assert ssd_interval(obj, (0.0,), (-1.0,)) is None


def test_membership_quadratic_hessian_action():
    half_sq = quadratic_1d(1)
    assert ssd_membership(half_sq, (0.0,), (1.0,), (1.0,)).member
    assert not ssd_membership(half_sq, (0.0,), (1.0,), (1.5,)).member
    assert not ssd_membership(half_sq, (0.0,), (1.0,), (0.5,)).member
    # the slopes are the exact data: M = 1/3 stays 1/3, at any point
    third = QuadraticObjective(matrix([["1/3"]]), vector(5)).as_smooth()
    assert ssd_interval(third, (7.0,), (3,)) == ((1,), (1,))
    assert ssd_membership(third, (Fraction(1, 3),), (Fraction(3, 7),), (Fraction(1, 7),)).member


def test_membership_rejects_high_dimension():
    """Beyond 1-D the set has the box form only for a C2 pair (A = B): an
    objective whose slopes differ is refused, as is one without slopes."""
    kinked = SmoothObjective(2, gradient=lambda x: x, slopes=lambda x: (matrix([[0, 0], [0, 1]]), matrix([[1, 0], [0, 1]])))
    with pytest.raises(ValueError, match="equal slopes"):
        ssd_membership(kinked, (0.0, 0.0), (1.0, 0.0), (0.5, 0.0))
    # an objective without exact slopes has no exact set either
    with pytest.raises(ValueError, match="slope evaluator"):
        ssd_membership(SmoothObjective(1, gradient=lambda x: x), (0.0,), (1.0,), (1.0,))
    with pytest.raises(ValueError, match="slope evaluator"):
        ssd_interval(SmoothObjective(2, gradient=lambda x: x), (0.0, 0.0), (1.0, 0.0))


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
    assert ssd_interval(obj, (-0.5,), (2.0,)) == ((-2,), (-2,))
    assert ssd_interval(obj, (0.5,), (-1.0,)) == ((-1,), (-1,))
    assert ssd_interval(obj, (1e9,), (1.0,)) == ((2 * 10**9,), (2 * 10**9,))
    assert ssd_interval(obj, (0.1,), (1.0,)) == ((2 * Fraction(0.1),),) * 2  # the binary64 point


def test_oracle_agrees_with_closed_form_on_grid():
    obj = ex41_objective()
    for v in (0, 1, 2):
        for z in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5):
            member = ssd_membership(obj, (0.0,), (float(v),), (z,)).member
            assert member == (-v <= z <= 0), (v, z)


def test_scaling_invariance():
    obj = ex41_objective()
    for v in (0, 1, 2):
        for z in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5):
            base = ssd_membership(obj, (0.0,), (float(v),), (z,)).member
            scaled = ssd_membership(obj, (0.0,), (2.0 * v,), (2.0 * z,)).member
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
            a, b = (slope.entry(0, 0) for slope in objective.one_sided_slopes((base,)))
            ends = (float(a * Fraction(v)), float(b * Fraction(v)))
            grid = [k / 8 for k in range(-40, 41)] + [e + s for e in ends for s in (-0.5, -1e-3, 1e-3, 0.5)]
            for z in grid:
                if min(abs(z - e) for e in ends) < 1e-3:
                    continue
                exact = ssd_membership(objective, (base,), (v,), (z,)).member
                assert exact == mesh_member(objective, base, v, z), (base, v, z)
                compared += 1
    assert compared > 5000


def test_quadratic_interval_is_the_hessian_action():
    """On 1-D quadratic data the set [a v, b v] is the singleton {M v} of
    the Hessian action, exact."""
    for m in ("-2", "-1/2", "0", "1/4", "3/2", "5"):
        objective = quadratic_1d(m, "1/2")
        for base in (-1.0, 0.0, 3.5):
            for v in (-2.0, -0.5, 1.0, 4.0):
                action = Fraction(m) * Fraction(v)
                assert ssd_interval(objective, (base,), (v,)) == ((action,), (action,))
                assert estimate_calmness(objective, (base,)) == abs(Fraction(m))


def test_hessian_closed_form():
    """A C2 objective of any dimension has the singleton {M v}, from the
    exact data: M v of a float direction is its binary64 value's."""
    diag = QuadraticObjective(matrix([[2, 0], [0, 3]]), vector(0, 0)).as_smooth()
    assert ssd_interval(diag, (0, 0), (1, 1)) == ((2, 3), (2, 3))
    rank_one = QuadraticObjective(matrix([[1, 1], [1, 1]]), vector(0, 0)).as_smooth()
    assert ssd_interval(rank_one, (0, 0), (1, 0)) == ((1, 1), (1, 1))
    ex32 = fixture("ex32").objective
    assert ssd_interval(ex32, (-1.0, 0.0), (0.0, 1.0)) == ((0, -2), (0, -2))
    third = QuadraticObjective(matrix([["1/3", 0], [0, 1]]), vector(0, 0)).as_smooth()
    assert ssd_interval(third, (0.1, 0.0), (0.1, 3)) == ((Fraction(0.1) / 3, 3), (Fraction(0.1) / 3, 3))
    with pytest.raises(DimensionMismatchError):
        ssd_interval(ex32, (-1.0, 0.0), (1.0,))


SMALL_FRACTIONS = st.fractions(-4, 4, max_denominator=6)
# how far a candidate's entry lies off M v's: inside and just past 1e-9, and far
OFFSETS = st.sampled_from((0, Fraction(1, 10**12), Fraction(-1, 10**9), Fraction(1, 10**8), Fraction(-1, 3)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_memberships_agree_with_a_fraction_oracle(data):
    """ssd on quadratic data of dimension 1 to 4, in both regimes, against
    M v computed by hand in Fractions: a candidate is a member iff each of
    its entries, at its exact value, lies within 0 (exact regime) or 1e-9
    (float regime) of M v's; the report writes {M v} and re-verifies."""
    dim = data.draw(st.integers(1, 4), "dimension")
    regime = data.draw(st.sampled_from(("exact", "float")), "regime")
    number = str if regime == "exact" else float
    upper = {(i, j): data.draw(SMALL_FRACTIONS) for i in range(dim) for j in range(i, dim)}
    m = [[upper[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)]
    v = [Fraction(number(data.draw(SMALL_FRACTIONS))) for _ in range(dim)]  # a float direction's binary64 value
    action = [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]
    candidates = []
    for _ in range(data.draw(st.integers(1, 3), "candidates")):
        z = list(action)
        z[data.draw(st.integers(0, dim - 1))] += data.draw(OFFSETS)
        candidates.append([Fraction(number(a)) for a in z])
    tolerance = 0 if regime == "exact" else Fraction(1e-9)
    expected = [
        "Member" if all(abs(a - b) <= tolerance for a, b in zip(z, action)) else "NotMember" for z in candidates
    ]
    document = {
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": dim,
                       "inequalities": {"rows": [["-1"] + ["0"] * (dim - 1)], "bounds": ["0"]}},
        "objective": {"type": "quadratic", "matrix": [[str(a) for a in row] for row in m]},
        "query": {"regime": regime, "point": [number(0)] * dim, "directions": [[number(a) for a in v]],
                  "z_candidates": [[number(a) for a in z] for z in candidates]},
    }
    report = run_analysis(parse_problem_dict(document), "ssd")
    results = report["results"]
    assert [entry["verdict"] for entry in results["memberships"]] == expected
    (interval,) = [entry["interval"] for entry in results["closed_form_intervals"]]
    written = [str(a) for a in action]
    assert interval == [written[0] if dim == 1 else written] * 2
    assert ("calmness" in results) == (dim == 1)
    assert report["exit_code"] == (0 if set(expected) == {"Member"} else 1)
    assert revalidate_report(report)[0]


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
