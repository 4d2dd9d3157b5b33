import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cone_audit.dd import GeneratorSet
from cone_audit.errors import (
    DimensionMismatchError,
    NotInSetError,
    NotTangentDirectionError,
)
from cone_audit.geometry import PolyhedralCone, Polyhedron, cone_equal, cone_subset
from cone_audit.linalg import RationalMatrix, RationalVector, matrix, vector

from conftest import (
    feasibility,
    random_feasible_polyhedron,
    random_vector,
    tangent_membership_by_rows,
)
from lp_oracle import OracleStatus
from step_oracles import (
    active_rows,
    cone_contains,
    contains,
    polar_generators,
    require_member,
    second_order_step_oracle,
    tangent_step_oracle,
    tight_rows,
)


def simplex_face():
    # {x | x1 + x2 = 1, x1 >= 0}
    return Polyhedron(
        2,
        eq_matrix=matrix([[1, 1]]),
        eq_rhs=vector(1),
        ineq_matrix=matrix([[-1, 0]]),
        ineq_rhs=vector(0),
    )


def test_contains():
    """``tangent_cone`` accepts exactly the members the oracle accepts."""
    orthant = Polyhedron.nonnegative_orthant(2)
    assert contains(orthant, vector(0, 0))
    orthant.tangent_cone(vector(0, 0))
    assert not contains(orthant, vector(-1, 0))
    with pytest.raises(NotInSetError, match="inequality row 1"):
        orthant.tangent_cone(vector(-1, 0))
    assert contains(simplex_face(), vector("1/3", "2/3"))
    simplex_face().tangent_cone(vector("1/3", "2/3"))
    for bad in (orthant.tangent_cone, lambda x: contains(orthant, x)):
        with pytest.raises(DimensionMismatchError):
            bad(vector(1))


def test_active_set():
    # the active rows, 1-based, are the tangent cone's row origins
    orthant = Polyhedron.nonnegative_orthant(2)
    assert orthant.tangent_cone(vector(0, 0)).ineq_origins == (1, 2)
    assert orthant.tangent_cone(vector(1, 1)).ineq_origins == ()
    assert orthant.tangent_cone(vector(0, 3)).ineq_origins == (1,)
    with pytest.raises(NotInSetError) as info:
        orthant.tangent_cone(vector(-1, 0))
    assert info.value.violated_row == 1


def test_tangent_cone():
    orthant = Polyhedron.nonnegative_orthant(2)
    at_corner = orthant.tangent_cone(vector(0, 0))
    equal, _ = cone_equal(at_corner, PolyhedralCone.nonnegative_orthant(2))
    assert equal
    interior = orthant.tangent_cone(vector(1, 1))
    equal, _ = cone_equal(interior, PolyhedralCone(2))
    assert equal
    # face point of {x1+x2=1, x1>=0}: tangent cone {v1+v2=0, v1>=0}
    cone = simplex_face().tangent_cone(vector(0, 1))
    expected = PolyhedralCone(2, eq_rows=matrix([[1, 1]]), ineq_rows=matrix([[-1, 0]]))
    equal, _ = cone_equal(cone, expected)
    assert equal
    # cross-checked by the step oracle on a direction grid
    grid = [Fraction(a) for a in (-2, -1, 0, 1, 2)]
    face = simplex_face()
    for a in grid:
        for b in grid:
            v = RationalVector([a, b])
            assert tangent_step_oracle(face, vector(0, 1), v) == cone.contains(v)


def test_second_order_tangent_set():
    orthant = Polyhedron.nonnegative_orthant(2)
    origin = vector(0, 0)
    cone = orthant.second_order_tangent_set(origin, vector(1, 0))
    expected = PolyhedralCone(2, ineq_rows=matrix([[0, -1]]))
    equal, _ = cone_equal(cone, expected)
    assert equal
    assert cone.ineq_origins == (2,)
    # zero direction reproduces the tangent cone
    cone0 = orthant.second_order_tangent_set(origin, vector(0, 0))
    equal, _ = cone_equal(cone0, orthant.tangent_cone(origin))
    assert equal
    assert cone0.ineq_origins == (1, 2)
    # strictly inward direction frees every row
    cone_in = orthant.second_order_tangent_set(origin, vector(1, 1))
    equal, _ = cone_equal(cone_in, PolyhedralCone(2))
    assert equal
    with pytest.raises(NotTangentDirectionError):
        orthant.second_order_tangent_set(origin, vector(-1, 0))


def test_normal_cone():
    orthant = Polyhedron.nonnegative_orthant(2)
    corner = orthant.normal_cone(vector(0, 0))
    assert set(corner.generators().rays) == {vector(-1, 0), vector(0, -1)}
    edge = orthant.normal_cone(vector(1, 0))
    polar_tangent = orthant.tangent_cone(vector(1, 0)).polar()
    equal, _ = cone_equal(edge, polar_tangent)
    assert equal
    interior = orthant.normal_cone(vector(1, 1))
    assert interior.generators().is_origin()


def test_polar():
    orthant = PolyhedralCone.nonnegative_orthant(2)
    negated, _ = cone_equal(
        orthant.polar(), PolyhedralCone(2, ineq_rows=matrix([[1, 0], [0, 1]]))
    )
    assert negated
    line = PolyhedralCone(2, eq_rows=matrix([[1, 0]]))
    equal, _ = cone_equal(line.polar(), PolyhedralCone(2, eq_rows=matrix([[0, 1]])))
    assert equal
    full = PolyhedralCone(2)
    assert full.polar().generators().is_origin()
    # bipolar returns the original cone
    equal, _ = cone_equal(orthant.polar().polar(), orthant)
    assert equal


def test_extreme_generators():
    """A cone's generators are its extreme generators, computed once; a
    polar's generators are its cone's rows and keep their non-extreme ray,
    and the extreme ones come from the polar's H-form."""
    orthant = PolyhedralCone.nonnegative_orthant(2)
    assert orthant.extreme_generators() is orthant.generators()
    rays = (vector(0, 1), vector(1, 0), vector(1, 1))
    cone = PolyhedralCone(2, ineq_rows=RationalMatrix(rays, 2)).polar()
    assert cone.generators() == GeneratorSet(2, rays, ())
    assert set(cone.extreme_generators().rays) == {vector(1, 0), vector(0, 1)}
    assert cone.extreme_generators() is cone.extreme_generators()


def test_cone_equal_strictness_witness():
    orthant = PolyhedralCone.nonnegative_orthant(2)
    upper = PolyhedralCone(2, ineq_rows=matrix([[0, -1]]))
    equal, _ = cone_equal(orthant, orthant)
    assert equal
    equal, witness = cone_equal(orthant, upper)
    assert not equal
    assert witness == vector(-1, 0)
    included, _ = cone_subset(orthant, upper)
    assert included


def test_step_oracles_known_values():
    orthant = Polyhedron.nonnegative_orthant(2)
    origin = vector(0, 0)
    assert tangent_step_oracle(orthant, origin, vector(0, 1))
    assert not tangent_step_oracle(orthant, origin, vector(-1, 0))
    assert tangent_step_oracle(simplex_face(), vector(0, 1), vector(1, -1))
    assert second_order_step_oracle(orthant, origin, vector(1, 0), vector(-5, 1))
    assert not second_order_step_oracle(orthant, origin, vector(1, 0), vector(0, -1))
    assert second_order_step_oracle(orthant, origin, vector(0, 0), vector(1, 1))
    with pytest.raises(NotTangentDirectionError):
        second_order_step_oracle(orthant, origin, vector(-1, 0), vector(0, 0))


def test_second_order_oracle_large_coefficients():
    """An active row moving strictly away from its facet must tolerate huge
    opposing second-order terms (threshold must shrink accordingly)."""
    orthant = Polyhedron.nonnegative_orthant(2)
    origin = vector(0, 0)
    v = vector(1, Fraction(1, 50))  # row 1 strictly negative, row 2 too
    w = vector(-1, -200)            # second-order pull against row 2
    # both rows leave the active set at first order, so any w is admissible
    assert second_order_step_oracle(orthant, origin, v, w)


def test_empty_polyhedron():
    empty = Polyhedron(
        1, ineq_matrix=matrix([[1], [-1]]), ineq_rhs=vector(-1, 0)
    )
    result = feasibility(empty)
    assert result.status is OracleStatus.INFEASIBLE
    assert result.dual_inequalities is not None
    with pytest.raises(NotInSetError):
        empty.tangent_cone(vector(0))
    feasible = feasibility(Polyhedron.nonnegative_orthant(2))
    assert feasible.status is OracleStatus.OPTIMAL


def test_oracle_equivalence_random():
    rng = random.Random(11)
    for _ in range(40):
        dim = rng.randint(1, 4)
        polyhedron, base = random_feasible_polyhedron(
            rng, dim, rng.randint(1, 6), rng.randint(0, 2)
        )
        tangent = polyhedron.tangent_cone(base)
        for _ in range(8):
            v = random_vector(rng, dim)
            by_formula = tangent.contains(v)
            assert by_formula == tangent_step_oracle(polyhedron, base, v)
            assert by_formula == tangent_membership_by_rows(polyhedron, base, v)


def _cone_as_polyhedron(cone: PolyhedralCone) -> Polyhedron:
    return Polyhedron(
        cone.dim,
        eq_matrix=cone.eq_rows,
        eq_rhs=RationalVector.zero(cone.eq_rows.nrows),
        ineq_matrix=cone.ineq_rows,
        ineq_rhs=RationalVector.zero(cone.ineq_rows.nrows),
    )


def test_second_order_set_is_tangent_cone_of_tangent_cone():
    """T2(x, v) equals the tangent cone, at v, of the tangent cone viewed as
    a polyhedron in its own right."""
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        dim = rng.randint(1, 4)
        polyhedron, base = random_feasible_polyhedron(
            rng, dim, rng.randint(1, 6), rng.randint(0, 2)
        )
        tangent = polyhedron.tangent_cone(base)
        nested = _cone_as_polyhedron(tangent)
        for v in tangent.generators().spanning_vectors():
            second = polyhedron.second_order_tangent_set(base, v)
            of_nested = nested.tangent_cone(v)
            equal, witness = cone_equal(second, of_nested)
            assert equal, witness
            checked += 1
    assert checked > 30


def test_tangent_cone_included_in_second_order_sets():
    """Every tangent direction remains second-order admissible (the
    second-order set only drops constraints relative to the tangent cone)."""
    rng = random.Random(19)
    for _ in range(30):
        dim = rng.randint(1, 4)
        polyhedron, base = random_feasible_polyhedron(
            rng, dim, rng.randint(1, 6), rng.randint(0, 2)
        )
        tangent = polyhedron.tangent_cone(base)
        for v in tangent.generators().spanning_vectors():
            second = polyhedron.second_order_tangent_set(base, v)
            included, witness = cone_subset(tangent, second)
            assert included, witness


fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 5, 7)))
# a row's bound is its value at the point plus one of these: 0 makes the
# row active, a positive offset slack, a negative one violated
ineq_offsets = st.sampled_from((0, 0, 0, Fraction(1, 3), 1, 2, Fraction(-2, 7), -1))
eq_offsets = st.sampled_from((0, 0, 0, 0, Fraction(2, 5)))


@st.composite
def polyhedra_with_points(draw):
    """A polyhedron with rational rows, a non-dyadic point that is usually a
    member with active rows, and directions, some of them tangent."""
    dim = draw(st.integers(1, 4))
    vectors = st.lists(fractions, min_size=dim, max_size=dim).map(RationalVector)
    x = draw(vectors)
    eq_rows = draw(st.lists(vectors, max_size=2))
    ineq_rows = draw(st.lists(vectors, min_size=1, max_size=6))
    polyhedron = Polyhedron(
        dim,
        eq_matrix=RationalMatrix(eq_rows, dim),
        eq_rhs=RationalVector(row.dot(x) + draw(eq_offsets) for row in eq_rows),
        ineq_matrix=RationalMatrix(ineq_rows, dim),
        ineq_rhs=RationalVector(row.dot(x) + draw(ineq_offsets) for row in ineq_rows),
    )
    directions = draw(st.lists(vectors, min_size=1, max_size=4))
    return polyhedron, x, directions + [-v for v in directions] + [RationalVector.zero(dim)]


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(polyhedra_with_points())
def test_integer_cone_layer_matches_fraction_oracles(case):
    """``tangent_cone``, ``tangent_cone_at``, ``contains`` and ``polar`` decide
    on integer forms; the oracles of ``step_oracles`` decide in `Fraction`s.
    They agree on membership, the error and its text for points outside
    the set, active and tight rows, and polar generators."""
    polyhedron, x, directions = case
    try:
        require_member(polyhedron, x)
    except NotInSetError as expected:
        with pytest.raises(NotInSetError) as raised:
            polyhedron.tangent_cone(x)
        got = raised.value
        assert (str(got), got.violated_row, got.violation) == (
            str(expected), expected.violated_row, expected.violation
        )
        return
    tangent = polyhedron.tangent_cone(x)
    active = active_rows(polyhedron, x)
    assert tangent.ineq_origins == tuple(k + 1 for k in active)
    assert tangent.ineq_rows.rows == tuple(polyhedron.ineq_matrix.row(k) for k in active)
    normal = tangent.polar()
    assert normal.generators() == polar_generators(tangent)
    for v in directions:
        assert tangent.contains(v) == cone_contains(tangent, v)
        assert normal.contains(v) == cone_contains(normal, v)
        try:
            tight = tight_rows(tangent, v)
        except NotTangentDirectionError as expected:
            with pytest.raises(NotTangentDirectionError, match=str(expected)):
                tangent.tangent_cone_at(v)
            continue
        second = tangent.tangent_cone_at(v)
        assert second.ineq_origins == tuple(tangent.ineq_origins[k] for k in tight)
        assert second.polar().generators() == polar_generators(second)
