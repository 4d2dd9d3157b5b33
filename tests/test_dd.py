import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cone_audit.dd import double_description
from cone_audit.errors import DimensionCapExceededError
from cone_audit.geometry import PolyhedralCone
from cone_audit.linalg import RationalMatrix, RationalVector, kernel_basis, rref, vector

from conftest import membership_lp, random_feasible_polyhedron, random_vector
from lp_oracle import OracleStatus


def brute_force_generators(dim, eq_rows, ineq_rows):
    """Independent generator enumeration by face analysis.

    The lineality space is the kernel of all rows; every extreme ray spans a
    one-dimensional face (modulo lineality) obtained by making some subset of
    inequalities tight, so enumerating subsets and keeping the feasible
    direction of each such kernel recovers exactly the extreme rays.
    """
    stacked = RationalMatrix(list(eq_rows) + list(ineq_rows), dim)
    lineality = kernel_basis(stacked)
    lin_rows, lin_pivots = rref(RationalMatrix(lineality, dim)) if lineality else ([], [])

    def reduce_mod_lineality(vec):
        entries = list(vec.entries)
        for row, pivot in zip(lin_rows, lin_pivots):
            factor = entries[pivot]
            if factor != 0:
                entries = [a - factor * b for a, b in zip(entries, row)]
        return RationalVector(entries)

    rays = set()
    for size in range(0, min(dim, len(ineq_rows)) + 1):
        for subset in itertools.combinations(range(len(ineq_rows)), size):
            tight = RationalMatrix(
                list(eq_rows) + [ineq_rows[k] for k in subset], dim
            )
            face_space = kernel_basis(tight)
            if len(face_space) != len(lineality) + 1:
                continue
            direction = next(
                (
                    reduced
                    for reduced in (reduce_mod_lineality(v) for v in face_space)
                    if not reduced.is_zero()
                ),
                None,
            )
            if direction is None:
                continue
            direction = direction.primitive()
            if all(g.dot(direction) <= 0 for g in ineq_rows):
                rays.add(direction)
            elif all(g.dot(-direction) <= 0 for g in ineq_rows):
                rays.add((-direction).primitive())
    canonical_lineality = tuple(
        sorted(
            (RationalVector(row).primitive() for row in lin_rows),
            key=lambda v: v.entries,
        )
    )
    return tuple(sorted(rays, key=lambda v: v.entries)), canonical_lineality


def test_halfplane():
    gens = double_description(2, ineq_rows=[vector(1, 0)])
    assert gens.rays == (vector(-1, 0),)
    assert gens.lineality == (vector(0, 1),)


def test_first_orthant():
    gens = double_description(2, ineq_rows=[vector(-1, 0), vector(0, -1)])
    assert gens.rays == (vector(0, 1), vector(1, 0))
    assert gens.lineality == ()


def test_origin_from_identity_equalities():
    gens = double_description(2, eq_rows=[vector(1, 0), vector(0, 1)])
    assert gens.is_origin()


def test_full_space():
    gens = double_description(3)
    assert gens.rays == ()
    assert len(gens.lineality) == 3


def test_dimension_cap():
    with pytest.raises(DimensionCapExceededError):
        double_description(11)
    gens = double_description(11, dim_cap=12)
    assert len(gens.lineality) == 11


def test_ice_cream_like_cone():
    # {v | v1 <= 0, v1 + v2 <= 0, v1 - v2 <= 0}: a pointed wedge
    gens = double_description(
        2, ineq_rows=[vector(1, 0), vector(1, 1), vector(1, -1)]
    )
    assert gens.lineality == ()
    assert set(gens.rays) == {vector(-1, 1), vector(-1, -1)}


def test_soundness_and_completeness_random():
    """Every generator satisfies the H-system, and grid rays of the H-system
    lie in the generator cone (membership LP)."""
    rng = random.Random(7)
    grid = [Fraction(a) for a in (-1, 0, 1)]
    for _ in range(60):
        dim = rng.randint(1, 5)
        rows = [random_vector(rng, dim) for _ in range(rng.randint(1, 8))]
        eqs = [random_vector(rng, dim) for _ in range(rng.randint(0, 2))]
        cone = PolyhedralCone(
            dim,
            eq_rows=RationalMatrix(eqs, dim),
            ineq_rows=RationalMatrix(rows, dim),
        )
        gens = cone.generators()
        for ray in gens.rays:
            assert cone.contains(ray)
        for line in gens.lineality:
            assert cone.contains(line) and cone.contains(-line)
        # sample small grid points satisfying the H-system; each must be a
        # conic combination of the generators
        samples = 0
        for _ in range(30):
            candidate = RationalVector([rng.choice(grid) for _ in range(dim)])
            if candidate.is_zero() or not cone.contains(candidate):
                continue
            samples += 1
            assert membership_lp(cone, candidate).status is OracleStatus.OPTIMAL
            if samples >= 5:
                break


def test_determinism_bit_identical():
    rows = [vector(1, 2, -1), vector(-3, 1, 0), vector(0, -1, 1)]
    first = double_description(3, ineq_rows=rows)
    second = double_description(3, ineq_rows=rows)
    assert first == second


def test_cone_over_square():
    rows = [vector(1, 0, -1), vector(-1, 0, -1), vector(0, 1, -1), vector(0, -1, -1)]
    gens = double_description(3, ineq_rows=rows)
    assert gens.lineality == ()
    assert set(gens.rays) == {
        vector(1, 1, 1),
        vector(1, -1, 1),
        vector(-1, 1, 1),
        vector(-1, -1, 1),
    }


def test_redundant_rows_pruned():
    gens = double_description(2, ineq_rows=[vector(-1, 0), vector(-1, 0), vector(-2, -1)])
    assert set(gens.rays) == {vector(0, 1), vector(1, -2)}


def test_agrees_with_brute_force_face_enumeration():
    """Exact agreement with the independent subset-of-tight-rows oracle."""
    rng = random.Random(271828)
    for _ in range(120):
        dim = rng.randint(1, 5)
        n_in = rng.randint(1, 7)
        n_eq = rng.randint(0, 2)
        ineq = [random_vector(rng, dim) for _ in range(n_in)]
        eqs = [random_vector(rng, dim) for _ in range(n_eq)]
        ineq = [r for r in ineq if not r.is_zero()]
        eqs = [r for r in eqs if not r.is_zero()]
        gens = double_description(dim, eqs, ineq)
        expected_rays, expected_lineality = brute_force_generators(dim, eqs, ineq)
        assert gens.rays == expected_rays, (eqs, ineq)
        assert gens.lineality == expected_lineality, (eqs, ineq)


def test_output_rays_are_extreme():
    """No reported ray may be a conic combination of the other generators."""
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(2, 5)
        rows = [random_vector(rng, dim) for _ in range(rng.randint(2, 8))]
        cone = PolyhedralCone(dim, ineq_rows=RationalMatrix(rows, dim))
        gens = cone.generators()
        rays = list(gens.rays)
        for i, ray in enumerate(rays):
            sub = PolyhedralCone(
                dim, RationalMatrix(gens.lineality, dim), RationalMatrix(rays[:i] + rays[i + 1:], dim)
            ).polar()
            assert membership_lp(sub, ray).status is not OracleStatus.OPTIMAL


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 5)))
positive_fractions = st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2, 3, 7)))


def derandomized(max_examples):
    return settings(
        derandomize=True,
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=[HealthCheck.too_slow],
    )


def rows_of(dim, min_size, max_size):
    vectors = st.lists(small_fractions, min_size=dim, max_size=dim).map(RationalVector)
    return st.lists(vectors, min_size=min_size, max_size=max_size)


@st.composite
def degenerate_systems(draw):
    """Small systems with duplicated (rescaled) rows, negated row pairs,
    equality rows, non-integer entries and several rows tight at one apex.
    Rows ending in -1 make the cone one over a polygon or polytope."""
    dim = draw(st.integers(2, 4))
    ineq = draw(rows_of(dim, 1, 5))
    if draw(st.booleans()):
        ineq = [RationalVector(r.entries[:-1] + (Fraction(-1),)) for r in ineq]
    apex = draw(rows_of(dim, 1, 1))[0]
    if not apex.is_zero():
        for row in draw(rows_of(dim, 0, 3)):
            ineq.append(row - apex.scale(row.dot(apex) / apex.dot(apex)))
    for row in draw(st.lists(st.sampled_from(ineq), max_size=1)):
        ineq.append(row.scale(draw(positive_fractions)))
    for row in draw(st.lists(st.sampled_from(ineq), max_size=1)):
        ineq.append(-row)
    eqs = draw(rows_of(dim, 0, 1))
    ineq = draw(st.permutations(ineq))
    return dim, [r for r in eqs if not r.is_zero()], [r for r in ineq if not r.is_zero()]


@derandomized(max_examples=150)
@given(degenerate_systems())
def test_degenerate_systems_agree_with_brute_force(system):
    dim, eqs, ineq = system
    gens = double_description(dim, eqs, ineq)
    assert (gens.rays, gens.lineality) == brute_force_generators(dim, eqs, ineq)


@st.composite
def systems_with_equalities(draw):
    """Cones cut by one or two equality rows, sometimes repeated as a positive
    multiple (two more mask bits for no more rank), and by inequality rows
    that either pass through one apex ray in the equality subspace or, with
    equality rows ending in 0, make a cone over a polytope; both give many
    pairs of rays that share tight rows without spanning an edge."""
    dim = draw(st.integers(4, 6))
    ineq = draw(rows_of(dim, 4, 7))
    eqs = draw(rows_of(dim, 1, 2))
    if draw(st.booleans()):
        ineq = [RationalVector(r.entries[:-1] + (Fraction(-1),)) for r in ineq]
        eqs = [RationalVector(r.entries[:-1] + (Fraction(0),)) for r in eqs]
    else:
        apex = draw(rows_of(dim, 1, 1))[0]
        assume(not apex.is_zero())
        eqs, ineq = ([r - apex.scale(r.dot(apex) / apex.dot(apex)) for r in rows] for rows in (eqs, ineq))
        ineq += draw(rows_of(dim, 1, 2))
    for row in draw(st.lists(st.sampled_from(eqs), max_size=1)):
        eqs.append(row.scale(draw(positive_fractions)))
    ineq = draw(st.permutations(ineq))
    return dim, [r for r in eqs if not r.is_zero()], [r for r in ineq if not r.is_zero()]


@derandomized(max_examples=80)
@given(systems_with_equalities())
def test_systems_with_equalities_lose_no_edge(system):
    """DD agrees with brute force after every inequality row.  Each adjacent
    pair of a step gives an extreme ray of that step's cone, so an edge the
    rank test rejected in error would leave a ray out of some prefix."""
    dim, eqs, ineq = system
    for k in range(1, len(ineq) + 1):
        gens = double_description(dim, eqs, ineq[:k])
        assert (gens.rays, gens.lineality) == brute_force_generators(dim, eqs, ineq[:k])


@st.composite
def systems_with_lineality(draw):
    """Systems whose rows all vanish on one or two drawn vectors, so the
    cone keeps a lineality space to the end, with zero to two equality rows:
    the rank bound of the adjacency test depends on both."""
    dim = draw(st.integers(3, 5))
    basis = []

    def off_basis(row):
        for b in basis:
            row = row - b.scale(row.dot(b) / b.dot(b))
        return row

    for u in draw(rows_of(dim, 1, 2)):
        if not off_basis(u).is_zero():
            basis.append(off_basis(u))
    assume(basis)
    eqs = [off_basis(r) for r in draw(rows_of(dim, 0, 2))]
    ineq = [off_basis(r) for r in draw(rows_of(dim, 2, 7))]
    for row in draw(st.lists(st.sampled_from(ineq), max_size=1)):
        ineq.append(row.scale(draw(positive_fractions)))
    return dim, [r for r in eqs if not r.is_zero()], [r for r in ineq if not r.is_zero()]


@derandomized(max_examples=150)
@given(systems_with_lineality())
def test_systems_with_lineality_agree_with_brute_force(system):
    dim, eqs, ineq = system
    gens = double_description(dim, eqs, ineq)
    assert gens.lineality
    assert (gens.rays, gens.lineality) == brute_force_generators(dim, eqs, ineq)


@derandomized(max_examples=80)
@given(st.integers(0, 2**32), st.integers(2, 6), st.integers(0, 2))
def test_normal_cone_generators_give_tangent_generators(seed, dim, num_eq):
    """DD output is canonical: enumerating the polar of the normal cone's
    generator set (the active rows and a basis of the row space of A) gives
    the tangent cone's generators field for field, and so do the tangent
    cone's rows permuted or with a positive combination of two appended."""
    rng = random.Random(seed)
    polyhedron, base = random_feasible_polyhedron(
        rng, dim, rng.randint(1, 2 * dim), num_eq, active_probability=0.7
    )
    tangent = polyhedron.tangent_cone(base)
    expected = tangent.generators()
    normal = polyhedron.normal_cone(base).generators()
    assert double_description(dim, normal.lineality, normal.rays) == expected
    eqs, ineq = list(tangent.eq_rows.rows), list(tangent.ineq_rows.rows)
    rng.shuffle(eqs)
    rng.shuffle(ineq)
    assert double_description(dim, eqs, ineq) == expected
    if len(ineq) >= 2:
        first, second = rng.sample(ineq, 2)
        combination = first.scale(Fraction(rng.randint(1, 3))) + second.scale(
            Fraction(1, rng.randint(1, 3))
        )
        assert double_description(dim, eqs, ineq + [combination]) == expected


@st.composite
def scaled_wide_systems(draw):
    """A system of the size the ``cones`` command meets (dimension 8-10,
    12-13 rows), with every row multiplied by its own positive rational."""
    dim = draw(st.integers(8, 10))
    eqs = draw(rows_of(dim, 0, 1))
    ineq = draw(rows_of(dim, 12 - len(eqs), 13 - len(eqs)))
    scaled_eqs = [r.scale(draw(positive_fractions)) for r in eqs]
    scaled_ineq = [r.scale(draw(positive_fractions)) for r in ineq]
    return dim, (eqs, ineq), (scaled_eqs, scaled_ineq)


@derandomized(max_examples=25)
@given(scaled_wide_systems())
def test_positive_row_scaling_gives_identical_generators(system):
    dim, (eqs, ineq), (scaled_eqs, scaled_ineq) = system
    assert double_description(dim, scaled_eqs, scaled_ineq) == double_description(dim, eqs, ineq)
