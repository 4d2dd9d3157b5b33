import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from cone_audit import optimality
from cone_audit.analysis import run_analysis
from cone_audit.dd import double_description
from cone_audit.geometry import PolyhedralCone, Polyhedron
from cone_audit.linalg import RationalMatrix, RationalVector, matrix, row_space_basis, vector
from cone_audit.objectives import AffineRegion, QuadraticObjective, RegionKind, SmoothObjective, fixture
from cone_audit.optimality import (
    CopositivityStatus,
    LagrangeCertificate,
    Verdict,
    check_c1,
    check_c2_copositivity,
    check_qp,
    classical_second_order_check,
    critical_cone,
    first_order_check,
    theorem33_check,
)
from cone_audit.problem import parse_problem

from conftest import (
    cone_equal,
    orthant_cone,
    orthant_polyhedron,
    random_feasible_polyhedron,
    random_vector,
    small_fraction,
)
from copositivity_oracle import fraction_psd_witness, oracle_copositivity


# --- first_order_check -----------------------------------------------------


def test_first_order_holds_with_certificate():
    report = first_order_check(vector(1, 0), orthant_cone())
    assert report.verdict is Verdict.HOLDS
    cert = report.certificate
    assert cert is not None
    # -grad = 1 * (-1, 0) + 0 * (0, -1)
    assert cert.inequality_multipliers[0][2] == 1
    assert cert.verify(vector(1, 0), orthant_cone())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 4), st.integers(0, 2))
def test_lagrange_certificate_verify_rejects_every_single_perturbation(seed, dim, num_ineq, num_eq):
    """verify holds for -gradient = sum(lambda_i row_i) + sum(mu_j eq_j) with
    lambda >= 0, and fails when any one multiplier moves, when a lambda is
    negative (the identity rebuilt to hold), or with one mu too few or too many."""
    rng = random.Random(seed)

    def row():
        r = random_vector(rng, dim)
        return r if not r.is_zero() else RationalVector.unit(dim, 0)

    cone = PolyhedralCone(
        dim,
        eq_rows=RationalMatrix([row() for _ in range(num_eq)], dim),
        ineq_rows=RationalMatrix([row() for _ in range(num_ineq)], dim),
    )
    lams = [abs(small_fraction(rng)) for _ in range(num_ineq)]
    mus = [small_fraction(rng) for _ in range(num_eq)]

    def certificate(lams, mus):
        return LagrangeCertificate(tuple((i, None, lam) for i, lam in enumerate(lams)), RationalVector(mus))

    def gradient(lams, mus):
        total = RationalVector.zero(dim)
        for lam, r in zip(lams + mus, cone.ineq_rows.rows + cone.eq_rows.rows):
            total = total + r.scale(lam)
        return -total

    grad = gradient(lams, mus)
    assert certificate(lams, mus).verify(grad, cone)
    delta = Fraction(rng.choice((-1, 1)), rng.choice((1, 3, 10007)))
    for i in range(num_ineq):
        moved = lams[:i] + [lams[i] + abs(delta)] + lams[i + 1:]
        assert not certificate(moved, mus).verify(grad, cone)
        negative = lams[:i] + [-abs(delta)] + lams[i + 1:]
        assert not certificate(negative, mus).verify(gradient(negative, mus), cone)
    for j in range(num_eq):
        assert not certificate(lams, mus[:j] + [mus[j] + delta] + mus[j + 1:]).verify(grad, cone)
    assert not certificate(lams, mus + [Fraction(0)]).verify(grad, cone)
    if num_eq:
        assert not certificate(lams, mus[:-1]).verify(gradient(lams, mus[:-1]), cone)


def test_first_order_fails_with_ray():
    report = first_order_check(vector(-1, 0), orthant_cone())
    assert report.verdict is Verdict.FAILS
    assert report.witness == vector(1, 0)
    # witness re-check: in the cone, strictly negative pairing
    assert orthant_cone().contains(report.witness)
    assert vector(-1, 0).dot(report.witness) < 0


def test_first_order_smooth_ex31():
    fx = fixture("ex31")
    region = fx.constraint.tangent_cone(fx.candidate_point)
    grad = fx.objective.gradient_at(fx.candidate_point)
    report = first_order_check(grad, region, 1e-9)
    assert report.verdict is Verdict.HOLDS
    assert abs(report.margin) <= 1e-9


# --- critical_cone ----------------------------------------------------------


def test_critical_cone():
    crit = critical_cone(vector(1, 0), orthant_cone())
    expected = PolyhedralCone(2, eq_rows=matrix([[1, 0]]), ineq_rows=matrix([[0, -1]]))
    equal, _ = cone_equal(crit, expected)
    assert equal
    full = critical_cone(vector(0, 0), orthant_cone())
    equal, _ = cone_equal(full, orthant_cone())
    assert equal
    line = PolyhedralCone(2, eq_rows=matrix([[1, 0]]))
    crit_line = critical_cone(vector(2, 0), line)
    equal, _ = cone_equal(crit_line, line)
    assert equal


# --- check_c1 ---------------------------------------------------------------


def test_check_c1_cases():
    right = PolyhedralCone(2, ineq_rows=matrix([[-1, 0]]))  # {w | w1 >= 0}
    assert check_c1(vector(1, 0), right).verdict is Verdict.HOLDS
    full = PolyhedralCone(2)
    report = check_c1(vector(1, 0), full)
    assert report.verdict is Verdict.FAILS
    assert report.witness == vector(-1, 0)
    upper = PolyhedralCone(2, ineq_rows=matrix([[0, -1]]))
    assert check_c1(vector(0, 0), upper).verdict is Verdict.HOLDS


# --- copositivity -----------------------------------------------------------


def test_copositivity_identity():
    result = check_c2_copositivity(matrix([[1, 0], [0, 1]]), orthant_cone())
    assert result.status is CopositivityStatus.COPOSITIVE


def test_copositivity_offdiagonal_not_psd():
    # 2 v1 v2 >= 0 on the orthant although the matrix is indefinite
    m = matrix([[0, 1], [1, 0]])
    result = check_c2_copositivity(m, orthant_cone())
    assert result.status is CopositivityStatus.COPOSITIVE
    # dense grid sampling oracle confirms nonnegativity on the cone
    for a in range(0, 5):
        for b in range(0, 5):
            v = vector(a, b)
            assert m.matvec(v).dot(v) >= 0


def test_copositivity_witness_on_orthant():
    result = check_c2_copositivity(matrix([[1, 0], [0, -1]]), orthant_cone())
    assert result.status is CopositivityStatus.NOT_COPOSITIVE
    witness = result.witness
    assert orthant_cone().contains(witness)
    value = matrix([[1, 0], [0, -1]]).matvec(witness).dot(witness)
    assert value < 0 and value == result.witness_value


def test_copositivity_subspace():
    line = PolyhedralCone(2, eq_rows=matrix([[1, 0]]))
    result = check_c2_copositivity(matrix([[-4, 0], [0, -2]]), line)
    assert result.status is CopositivityStatus.NOT_COPOSITIVE
    assert result.witness in (vector(0, 1), vector(0, -1))
    assert result.witness_value == -2
    assert result.method == "subspace-factorization"
    psd_on_line = check_c2_copositivity(matrix([[-4, 0], [0, 2]]), line)
    assert psd_on_line.status is CopositivityStatus.COPOSITIVE


def test_copositivity_subspace_zero_pivot_witness():
    # The plane's lineality basis is (0, 1), (1, 0), so the Gram matrix is
    # [[0, 2], [2, 3]]: a zero pivot with a nonzero off-diagonal entry, whose
    # 2x2 witness has coefficients (-(3 + 2), 2 * 2) and value -4 * 2^2 * 2.
    m = matrix([[3, 2], [2, 0]])
    result = check_c2_copositivity(m, PolyhedralCone(2))
    assert result.status is CopositivityStatus.NOT_COPOSITIVE
    assert (result.witness, result.witness_value) == (vector(4, -5), -32)
    assert m.matvec(result.witness).dot(result.witness) == -32
    assert result.method == "subspace-factorization"


def test_copositivity_trivial_cone():
    origin = PolyhedralCone(1, eq_rows=matrix([[1]]))
    result = check_c2_copositivity(matrix([[-5]]), origin)
    assert result.status is CopositivityStatus.COPOSITIVE


def test_copositivity_mixed_lineality_and_rays():
    # K = {v in R^2 | v2 >= 0}: lineality (1,0), ray (0,1)
    k = PolyhedralCone(2, ineq_rows=matrix([[0, -1]]))
    assert check_c2_copositivity(matrix([[1, 0], [0, 1]]), k).status is CopositivityStatus.COPOSITIVE
    result = check_c2_copositivity(matrix([[-1, 0], [0, 1]]), k)
    assert result.status is CopositivityStatus.NOT_COPOSITIVE
    value = matrix([[-1, 0], [0, 1]]).matvec(result.witness).dot(result.witness)
    assert value < 0


def test_copositivity_needs_subdivision():
    # A negative pairwise product, so the generators cannot certify it; the
    # matrix is positive definite, which the factorization on the span shows.
    m = matrix([[1, -1], [-1, 2]])
    result = check_c2_copositivity(m, orthant_cone())
    assert result.status is CopositivityStatus.COPOSITIVE
    assert (result.method, result.cells_certified) == ("subspace-factorization", 0)


def test_copositivity_depth_limit_is_honest():
    # copositive but PSD-singular: the generators cannot certify it, and it
    # is decided with no depth or sample budget, by a factorization
    m = matrix([[1, -1], [-1, 1]])
    res = check_c2_copositivity(m, orthant_cone())
    assert res.status is CopositivityStatus.COPOSITIVE
    assert (res.method, res.depth_reached) == ("subspace-factorization", 0)


def test_copositivity_horn_matrix_copositive():
    # Horn's matrix is copositive, not PSD and not a sum of a PSD and a
    # nonnegative matrix; its form vanishes on the cone's boundary, so no
    # subdivision certifies it
    horn = matrix(
        [
            [1, -1, 1, 1, -1],
            [-1, 1, -1, 1, 1],
            [1, -1, 1, -1, 1],
            [1, 1, -1, 1, -1],
            [-1, 1, 1, -1, 1],
        ]
    )
    res = check_c2_copositivity(horn, orthant_cone(5))
    assert res.status is CopositivityStatus.COPOSITIVE
    assert (res.method, res.cells_certified) == ("cottle-habetler-lemke", 1)


def test_copositivity_strictly_copositive_not_psd():
    """Unit diagonal, off-diagonal 1, -1/4, -1/2: strictly copositive, and
    bisection left it Inconclusive after 12 certified cells."""
    m = matrix([["1", "1", "-1/4"], ["1", "1", "-1/2"], ["-1/4", "-1/2", "1"]])
    res = check_c2_copositivity(m, orthant_cone(3))
    assert res.status is CopositivityStatus.COPOSITIVE
    assert res.method == "cottle-habetler-lemke"


def test_copositivity_verdict_independent_of_coordinate_order():
    """Bisection broke ties between equally long edges by index, so one
    permutation of this matrix was certified and another left Inconclusive."""
    base = [[1, 1, 1], [1, 1, -1], [1, -1, 1]]
    orthant = orthant_cone(3)
    results = set()
    for p in itertools.permutations(range(3)):
        permuted = matrix([[base[p[i]][p[j]] for j in range(3)] for i in range(3)])
        res = check_c2_copositivity(permuted, orthant)
        results.add((res.status, res.method, res.cells_certified))
    assert results == {(CopositivityStatus.COPOSITIVE, "cottle-habetler-lemke", 1)}


def test_copositivity_witness_after_subdivision():
    m = matrix([[1, -3, 1], [-3, 1, -3], [1, -3, 1]])
    res = check_c2_copositivity(m, orthant_cone(3))
    assert res.status is CopositivityStatus.NOT_COPOSITIVE
    assert orthant_cone(3).contains(res.witness)
    assert m.matvec(res.witness).dot(res.witness) == res.witness_value < 0


def test_copositivity_rejects_non_symmetric_matrix():
    # (1, 1) gives -1, but the upper triangle alone looks copositive
    with pytest.raises(ValueError, match="exactly symmetric"):
        check_c2_copositivity(matrix([[1, -6], [3, 1]]), orthant_cone())


def test_copositivity_takes_only_exact_matrices_and_polyhedral_cones():
    half_space = AffineRegion(RegionKind.HALF_SPACE, [1.0, 0.0], 0.0)
    with pytest.raises(TypeError):
        check_c2_copositivity(matrix([[1, 0], [0, 1]]), half_space)
    with pytest.raises(TypeError):
        check_c2_copositivity(np.eye(2), orthant_cone())


@pytest.mark.parametrize("with_lineality", [False, True])
def test_copositivity_span_test_picks_a_basis_among_dependent_generators(with_lineality):
    """Given generators, repeated and not all extreme, whose extreme rays
    sort as a square cone in w = 0 first and then (1, 1, 1, 1, 0): the first
    rank-many generators (lineality e5 first, when present) are dependent.
    M is PSD on the span, yet some generators pair negatively, so only the
    span test certifies it; with M44 = 1 it is negative on the span but not
    on the square's subspace, so the span test must not certify it."""
    square = [vector(-1, 0, 1, 0, 0), vector(0, -1, 1, 0, 0), vector(0, 1, 1, 0, 0), vector(1, 0, 1, 0, 0)]
    rays = (vector(1, 1, 1, 1, 0), vector(0, 0, 2, 0, 0), square[2].scale(2), *square)
    lineality = (vector(0, 0, 0, 0, 1),) if with_lineality else ()
    cone = PolyhedralCone(5, RationalMatrix(lineality, 5), RationalMatrix(rays, 5)).polar()
    extreme = cone.extreme_generators()
    leading = (extreme.lineality + extreme.rays)[: len(lineality) + 4]
    assert len(row_space_basis(RationalMatrix(leading, 5))) < len(leading)
    spanning = cone.generators().spanning_vectors()
    for m44, copositive in ((5, True), (1, False)):
        # M55 < 0 is off the span without lineality, and in its Gram block with it
        m = matrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, -2, 0], [0, 0, -2, m44, 0],
                    [0, 0, 0, 0, 1 if with_lineality else -1]])
        gram = [[m.matvec(a).dot(b) for b in spanning] for a in spanning]
        assert min(map(min, gram)) < 0 and _kaplan_copositive(gram) is copositive
        result = check_c2_copositivity(m, cone)
        if copositive:
            assert (result.status, result.method) == (CopositivityStatus.COPOSITIVE, "subspace-factorization")
        else:
            assert (result.status, result.method) == (CopositivityStatus.NOT_COPOSITIVE, "cottle-habetler-lemke")
            assert cone.contains(result.witness)
            assert m.matvec(result.witness).dot(result.witness) == result.witness_value < 0


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4)))


def vectors_of(dim):
    return st.lists(small_fractions, min_size=dim, max_size=dim).map(RationalVector)


@st.composite
def copositivity_problems(draw):
    """A symmetric M with non-integer entries and a small cone: H-form with
    few rows (hence lineality), or V-form with non-integer rays and
    lineality vectors, which need be neither extreme nor independent; and
    the oracle's depth and sample budgets."""
    dim = draw(st.integers(2, 4))
    # mostly positive diagonals, so that cells need bisecting before a verdict
    diagonal = st.builds(Fraction, st.integers(-1, 4), st.sampled_from((1, 2, 3)))
    entries = {
        (i, j): draw(diagonal if i == j else small_fractions)
        for i in range(dim)
        for j in range(i, dim)
    }
    m = RationalMatrix(
        [[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)], dim
    )
    if draw(st.booleans()):
        eq = draw(st.lists(vectors_of(dim), max_size=1))
        ineq = draw(st.lists(vectors_of(dim), min_size=1, max_size=dim))
        cone = PolyhedralCone(dim, RationalMatrix(eq, dim), RationalMatrix(ineq, dim))
    else:
        rays = draw(st.lists(vectors_of(dim), max_size=5))
        lineality = draw(st.lists(vectors_of(dim), max_size=2))
        cone = PolyhedralCone(dim, RationalMatrix(lineality, dim), RationalMatrix(rays, dim)).polar()
    max_depth = draw(st.integers(0, 6))
    samples = draw(st.one_of(st.integers(0, 40), st.integers(4090, 4200)))
    return m, cone, max_depth, samples


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(copositivity_problems())
def test_copositivity_matches_fraction_oracle(problem):
    """Every verdict the bisection partition reached stands, every one it
    left Inconclusive is decided, every refutation substitutes back, and
    every certificate passes Kaplan's test apart from the cell test."""
    m, cone, max_depth, samples = problem
    expected = oracle_copositivity(m, cone, max_depth, samples)
    result = check_c2_copositivity(m, cone)
    if expected is not None:
        assert result.status is expected.status
    if result.status is CopositivityStatus.NOT_COPOSITIVE:
        assert cone.contains(result.witness)
        assert m.matvec(result.witness).dot(result.witness) == result.witness_value < 0
    else:
        assert result.status is CopositivityStatus.COPOSITIVE
        # the cone is the nonnegative hull of its spanning vectors G (given
        # ones, not necessarily extreme), so M is copositive on it iff
        # G M G^T is copositive on the orthant
        spanning = cone.generators().spanning_vectors()
        assert _kaplan_copositive([[m.matvec(a).dot(b) for b in spanning] for a in spanning])


def _kaplan_copositive(m: list[list[Fraction]]) -> bool:
    """Kaplan (LAA 2000): m is copositive iff no principal submatrix has an
    eigenvector with all entries positive and a negative eigenvalue."""
    q = np.array(m, dtype=float)
    for size in range(1, len(q) + 1):
        for subset in itertools.combinations(range(len(q)), size):
            values, vectors = np.linalg.eigh(q[np.ix_(subset, subset)])
            for value, vec in zip(values, vectors.T):
                if value < -1e-9 and (np.all(vec > 0) or np.all(vec < 0)):
                    return False
    return True


def test_copositivity_agrees_with_kaplan_on_the_orthant():
    rng = random.Random(3)
    decided = Counter()
    for _ in range(500):
        n = rng.randint(1, 5)
        m = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    m[i][i] = Fraction(rng.randint(-1, 4), rng.choice((1, 2, 3)))
                else:
                    m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
        res = check_c2_copositivity(RationalMatrix(m), orthant_cone(n))
        copositive = res.status is CopositivityStatus.COPOSITIVE
        assert copositive == _kaplan_copositive(m), m
        decided[copositive, res.method] += 1
    # every path is exercised, the cell test both ways
    assert min(decided.values()) >= 10 and len(decided) == 5, decided


def test_copositivity_agrees_with_kaplan_on_cones_with_lineality():
    """H-form cones with fewer rows than dimensions (hence lineality) and
    cones given by generators that need be neither extreme nor pointed:
    the verdict is Kaplan's on the Gram matrix of the spanning vectors,
    whose nonnegative hull is the cone."""
    rng = random.Random(5)
    decided = Counter()
    for _ in range(1000):
        dim = rng.randint(2, 4)
        m = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                if i == j:
                    m[i][i] = Fraction(rng.randint(0, 4), rng.choice((1, 2, 3)))
                else:
                    m[i][j] = m[j][i] = Fraction(rng.randint(-2, 4), rng.choice((1, 2, 3, 4)))

        def vec():
            return RationalVector([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
                                   for _ in range(dim)])

        h_form = rng.random() < 0.5
        if h_form:
            rows = [vec() for _ in range(rng.randint(1, dim - 1))]
            cone = PolyhedralCone(dim, RationalMatrix([], dim), RationalMatrix(rows, dim))
        else:
            rays = tuple(vec() for _ in range(rng.randint(2, 4)))
            lineality = tuple(vec() for _ in range(rng.randint(0, 1)))
            cone = PolyhedralCone(dim, RationalMatrix(lineality, dim), RationalMatrix(rays, dim)).polar()
        res = check_c2_copositivity(RationalMatrix(m), cone)
        spanning = cone.generators().spanning_vectors()
        gram = [[RationalMatrix(m).matvec(a).dot(b) for b in spanning] for a in spanning]
        copositive = res.status is CopositivityStatus.COPOSITIVE
        assert copositive == _kaplan_copositive(gram), (m, cone.generators())
        if not copositive:
            assert cone.contains(res.witness) and res.witness_value < 0
        decided[copositive, res.method, h_form, bool(cone.generators().lineality)] += 1
    # the cell test certifies on H-form cones with lineality and on given
    # generators with and without it
    assert decided[True, "cottle-habetler-lemke", True, True] >= 10, decided
    assert decided[True, "cottle-habetler-lemke", False, True] >= 10, decided
    assert decided[True, "cottle-habetler-lemke", False, False] >= 10, decided


def _fraction_det_inverse(b: list[list[int]]):
    """det B and B^-1 (None when singular) by Gauss-Jordan in `Fraction`s."""
    n = len(b)
    rows = [[Fraction(a) for a in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(b)]
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], -det
        det *= rows[k][k]
        rows[k] = [a / rows[k][k] for a in rows[k]]
        for i in range(n):
            if i != k:
                rows[i] = [a - rows[i][k] * c for a, c in zip(rows[i], rows[k])]
    return det, [row[n:] for row in rows]


def test_det_adjugate_matches_fraction_elimination():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(1, 6)
        b = [[rng.randint(-3, 3) * (rng.random() < 0.8) for _ in range(n)] for _ in range(n)]
        det, adj = optimality._det_adjugate(b)
        expected_det, inverse = _fraction_det_inverse(b)
        assert det == expected_det
        assert adj == (None if inverse is None else [[det * a for a in row] for row in inverse])


@st.composite
def schur_inputs(draw):
    """A symmetric integer matrix of size 1-5, often a Gram matrix (PSD,
    maybe singular), with a zero-heavy diagonal otherwise, and the number
    of its leading coordinates that are free."""
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        g = [draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)) for _ in range(draw(st.integers(1, k)))]
        q = [[sum(r[i] * r[j] for r in g) for j in range(k)] for i in range(k)]
    else:
        q = [[0] * k for _ in range(k)]
        for i in range(k):
            q[i][i] = draw(st.sampled_from((0, 0, 1, 2, -1)))
            for j in range(i + 1, k):
                q[i][j] = q[j][i] = draw(st.integers(-3, 3))
    return q, draw(st.integers(0, k))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(schur_inputs())
def test_integer_schur_elimination_matches_fraction_elimination(problem):
    """The integer `_psd_witness` and the `Fraction` one agree on None versus
    a witness, with the orthant copositivity test deciding the coordinates
    left over, and each integer witness has u'Qu < 0, >= 0 past ``free``."""
    q, free = problem
    rest_dim = len(q) - free
    masks = [((1 << rest_dim) - 1) & ~(1 << i) for i in range(rest_dim)]

    def rest(s):
        return optimality._cell_witness(s, masks)[0]

    def fraction_rest(s):
        scale = lcm(*[x.denominator for row in s for x in row])
        return rest([[int(x * scale) for x in row] for row in s])

    u = optimality._psd_witness(q, free, rest if rest_dim else None)
    expected = fraction_psd_witness(
        [[Fraction(a) for a in row] for row in q], free, fraction_rest if rest_dim else None
    )
    assert (u is None) == (expected is None)
    if u is not None:
        assert all(isinstance(a, int) for a in u) and min(u[free:], default=0) >= 0
        assert sum(u[i] * q[i][j] * u[j] for i in range(len(q)) for j in range(len(q))) < 0


def test_pulling_triangulation_covers_the_cone_once():
    """On random pointed cones cut to {x : c.x <= 1}, with c.x > 0 on the
    cone, every cell is a simplex of independent extreme rays and the cells'
    volumes add up to the convex hull's: no gap, no overlap."""
    rng = random.Random(6)
    checked = 0
    while checked < 40:
        dim = rng.randint(2, 4)
        rows = [RationalVector([rng.randint(-3, 3) for _ in range(dim)]) for _ in range(rng.randint(dim, dim + 5))]
        gens = double_description(dim, (), rows)
        if gens.lineality or len(gens.rays) < dim:
            continue
        c = [-sum(row[i] for row in rows) for i in range(dim)]
        rays = [np.array(r.as_floats()) / float(sum(a * b for a, b in zip(c, r))) for r in gens.rays]
        if np.linalg.matrix_rank(np.array(rays)) < dim:
            continue
        masks = [sum(1 << j for j, r in enumerate(gens.rays) if row.dot(r) == 0) for row in rows]
        cells = optimality._pulling_triangulation(masks, (1 << len(rays)) - 1)
        assert len(set(cells)) == len(cells)
        volume = 0.0
        for cell in cells:
            vertices = np.array([rays[j] for j in range(len(rays)) if cell >> j & 1])
            assert len(vertices) == dim
            volume += abs(np.linalg.det(vertices)) / factorial(dim)
            assert abs(np.linalg.det(vertices)) > 1e-12
        assert volume == pytest.approx(ConvexHull(np.vstack([np.zeros(dim)] + rays)).volume, rel=1e-9)
        checked += 1


def test_copositivity_root_diagonal_refutes_at_a_later_vertex():
    """The first generator with negative form, at an index above 0, is the
    witness, as the partition gave it, and no cell is triangulated."""
    m = matrix([[-2, 1, 2], [1, -1, -3], [2, -3, 1]])
    cone = orthant_cone(3)
    generators = list(cone.generators().spanning_vectors())
    forms = [m.matvec(g).dot(g) for g in generators]
    first = next(i for i, value in enumerate(forms) if value < 0)
    assert first > 0
    result = check_c2_copositivity(m, cone)
    expected = oracle_copositivity(m, cone, 12, 100_000)
    assert (result.status, result.witness, result.witness_value) == (
        expected.status, expected.witness, expected.witness_value
    )
    assert result.status is CopositivityStatus.NOT_COPOSITIVE
    assert (result.witness, result.witness_value) == (generators[first], forms[first])
    assert (result.method, result.cells_certified) == ("generators", 0)


def test_copositivity_twenty_generator_cone_copositive():
    # Bisection took 219 s on this problem's 20-generator critical cone when
    # every cell recomputed its products with Fraction matvecs, and ended
    # Inconclusive at depth 12 after 397 certified cells.  The cone is
    # strictly copositive; its pulling triangulation has 35 simplices.
    rng = random.Random(1)
    for _ in range(10):
        polyhedron, base = random_feasible_polyhedron(rng, 6, 14, active_probability=0.7)
        rows = [[None] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(i, 6):
                rows[i][j] = rows[j][i] = small_fraction(rng)
    m = RationalMatrix(rows)
    objective = QuadraticObjective(m, -m.matvec(base))
    result = check_qp(objective, polyhedron.tangent_cone(base), base).curvature_on_critical_cone.certificate
    assert result.status is CopositivityStatus.COPOSITIVE
    assert (result.method, result.cells_certified) == ("cottle-habetler-lemke", 35)


# --- classical second-order -------------------------------------------------


def test_classical_fails_on_cone():
    report = classical_second_order_check(
        vector(0, 0), Fraction(-1), orthant_cone()
    )
    assert report.verdict is Verdict.FAILS
    assert report.witness == RationalVector.zero(2)
    assert report.margin == -1


def test_classical_smooth_examples():
    fx31 = fixture("ex31")
    grad = fx31.objective.gradient_at(fx31.candidate_point)
    second = fx31.constraint.tangent_cone(fx31.candidate_point).tangent_cone_at([0.0, 1.0])
    report = classical_second_order_check(grad, -2.0, second, 1e-9)
    assert report.verdict is Verdict.HOLDS
    assert abs(report.margin - 4.0) < 1e-9

    fx32 = fixture("ex32")
    grad32 = fx32.objective.gradient_at(fx32.candidate_point)
    second32 = fx32.constraint.tangent_cone(fx32.candidate_point).tangent_cone_at([0.0, 1.0])
    report32 = classical_second_order_check(grad32, -2.0, second32, 1e-9)
    assert report32.verdict is Verdict.HOLDS
    assert abs(report32.margin - 2.0) < 1e-12


# --- the verdict rule ---------------------------------------------------------


def _half_plane(offset):
    """{w | w2 <= offset}."""
    return AffineRegion(RegionKind.HALF_SPACE, [0.0, 1.0], offset)


def _c2_sign(objective, direction, tolerance=1e-9):
    tangent = orthant_polyhedron(2).tangent_cone(vector(0, 0))
    (bundle,) = theorem33_check(objective, tangent, (0.0, 0.0), [direction], tolerance)
    return bundle.curvature_at_direction


def _ex32_bundle():
    fx = fixture("ex32")
    (bundle,) = theorem33_check(fx.objective, fx.constraint.tangent_cone(fx.candidate_point), fx.candidate_point, [(0.0, 1.0)])
    return bundle


TINY = 2.0**-32  # inside the default tolerance 1e-9
BOUNDARY_NOTE = "violation within tolerance; treated as boundary case"
REGION_NOTE = "pairing is unbounded below on the region"
CLASSICAL_NOTE = "gradient pairing is unbounded below on the second-order set"

# (report, verdict, margin, boundary, witness, certificate type, notes); the
# margin's type is pinned with its value
VERDICT_TABLE = {
    "cone_certified_hold": (
        lambda: first_order_check(vector(1, 0), orthant_cone()),
        "holds", Fraction(0), False, None, LagrangeCertificate, "",
    ),
    "cone_exact_ray": (
        lambda: first_order_check(vector(-1, 0), orthant_cone()),
        "fails", Fraction(-1), False, vector(1, 0), type(None), "",
    ),
    "cone_float_ray_within_tolerance": (
        lambda: first_order_check(vector(Fraction(-1, 10**10), 0), orthant_cone(), 1e-9),
        "holds", -1e-10, True, None, type(None), BOUNDARY_NOTE,
    ),
    "cone_float_ray_beyond_tolerance": (
        lambda: first_order_check(vector(-1, 0), orthant_cone(), 1e-9),
        "fails", -1.0, False, vector(1, 0), type(None), "",
    ),
    "region_unbounded": (
        lambda: first_order_check((1.0, 0.0), _half_plane(0.0), 1e-9),
        "fails", float("-inf"), False, (-1.0, 0.0), type(None), REGION_NOTE,
    ),
    "region_finite_hold": (
        lambda: first_order_check((0.0, -2.0), _half_plane(-1.0), 1e-9),
        "holds", 2.0, False, None, type(None), "",
    ),
    "region_boundary": (
        lambda: first_order_check((0.0, -1.0), _half_plane(TINY), 1e-9),
        "holds", -TINY, True, None, type(None), "",
    ),
    "region_fail": (
        lambda: check_c1((0.0, -2.0), _half_plane(1.0), 1e-9),
        "fails", -2.0, False, (0.0, 1.0), type(None), "",
    ),
    "classical_region_unbounded": (
        lambda: classical_second_order_check((1.0, 0.0), 5.0, _half_plane(0.0), 1e-9),
        "fails", float("-inf"), False, (-1.0, 0.0), type(None), CLASSICAL_NOTE,
    ),
    "classical_cone_unbounded": (
        lambda: classical_second_order_check(vector(-1, 0), Fraction(3), orthant_cone()),
        "fails", float("-inf"), False, vector(1, 0), type(None), CLASSICAL_NOTE,
    ),
    "classical_exact_hold": (
        lambda: classical_second_order_check(vector(1, 0), Fraction(1), orthant_cone()),
        "holds", Fraction(1), False, None, LagrangeCertificate, "",
    ),
    "classical_cone_float_boundary": (
        lambda: classical_second_order_check(vector(1, 0), -TINY, orthant_cone(), 1e-9),
        "holds", -TINY, True, None, LagrangeCertificate, "",
    ),
    "classical_region_float_boundary": (
        lambda: classical_second_order_check((0.0, -2.0), 2.0 - TINY, _half_plane(1.0), 1e-9),
        "holds", -TINY, True, None, type(None), "",
    ),
    "classical_region_finite_fail": (
        lambda: classical_second_order_check((0.0, -2.0), 1.0, _half_plane(1.0), 1e-9),
        "fails", -1.0, False, (0.0, 1.0), type(None), "",
    ),
    "classical_cone_exact_fail": (
        lambda: classical_second_order_check(vector(0, 0), Fraction(-1), orthant_cone()),
        "fails", Fraction(-1), False, vector(0, 0), type(None), "",
    ),
    "c2_exact_fail": (
        lambda: _c2_sign(QuadraticObjective(matrix([[-1, 0], [0, 0]]), vector(0, 0)), vector(1, 0)),
        "fails", Fraction(-1), False, vector(1, 0), type(None), "",
    ),
    "c2_float_boundary": (
        lambda: _c2_sign(
            QuadraticObjective(matrix([[Fraction(-1, 2**32), 0], [0, 0]]), vector(0, 0)).as_smooth(),
            (1.0, 0.0),
        ),
        "holds", -TINY, True, None, type(None), "",
    ),
    "c2_float_fail": (
        lambda: _c2_sign(QuadraticObjective(matrix([[-1, 0], [0, 0]]), vector(0, 0)).as_smooth(), (1.0, 0.0)),
        "fails", -1.0, False, (1.0, 0.0), type(None), "",
    ),
    "smooth_c1_hold": (
        lambda: _ex32_bundle().strengthened_gradient,
        "holds", 4.0, False, None, type(None), "",
    ),
    "smooth_classical_hold": (
        lambda: _ex32_bundle().classical,
        "holds", 2.0, False, None, type(None), "",
    ),
}


@pytest.mark.parametrize("case", sorted(VERDICT_TABLE))
def test_verdict_rule_table(case):
    """One rule over every check: an exact margin holds iff >= 0; a float
    margin holds iff >= -tolerance, on the boundary iff also within the
    tolerance of 0; the witness is kept on a failure, the certificate on a
    hold."""
    make, verdict, margin, boundary, witness, certificate, notes = VERDICT_TABLE[case]
    report = make()
    assert report.verdict.value == verdict
    assert report.margin == margin and type(report.margin) is type(margin)
    assert report.boundary is boundary
    assert report.witness == witness
    assert type(report.certificate) is certificate
    assert report.notes == notes


# --- theorem33_check ---------------------------------------------------------


def test_theorem33_smooth_ex31():
    fx = fixture("ex31")
    (bundle,) = theorem33_check(fx.objective, fx.constraint.tangent_cone(fx.candidate_point), fx.candidate_point, [(0.0, 1.0)])
    assert bundle.direction.is_critical
    assert bundle.strengthened_gradient.verdict is Verdict.HOLDS
    assert bundle.curvature_at_direction.verdict is Verdict.FAILS
    assert abs(bundle.curvature_at_direction.margin - (-2.0)) < 1e-12
    assert bundle.classical.verdict is Verdict.HOLDS


def test_theorem33_smooth_ex32():
    fx = fixture("ex32")
    (bundle,) = theorem33_check(fx.objective, fx.constraint.tangent_cone(fx.candidate_point), fx.candidate_point, [(0.0, 1.0)])
    assert bundle.strengthened_gradient.verdict is Verdict.HOLDS
    assert abs(bundle.strengthened_gradient.margin - 4.0) < 1e-12
    assert bundle.curvature_at_direction.verdict is Verdict.FAILS
    assert bundle.classical.verdict is Verdict.HOLDS


def test_theorem33_polyhedral_convex():
    # f = ||x||^2 / 2 over the orthant at the origin: everything holds
    quad = QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0))
    tangent = orthant_polyhedron(2).tangent_cone(vector(0, 0))
    (bundle,) = theorem33_check(quad.as_smooth(), tangent, (0.0, 0.0), [(0.0, 1.0)])
    assert bundle.strengthened_gradient.verdict is Verdict.HOLDS
    assert bundle.curvature_at_direction.verdict is Verdict.HOLDS
    assert bundle.classical.verdict is Verdict.HOLDS


# --- check_qp ----------------------------------------------------------------


def _all_hold(report) -> bool:
    conditions = (report.stationarity, report.strengthened_gradient, report.curvature_on_critical_cone)
    return all(c.verdict is Verdict.HOLDS for c in conditions)


def test_qp_global_minimum_convex():
    quad = QuadraticObjective(matrix([[1, 0], [0, 1]]), vector(0, 0))
    report = check_qp(quad, orthant_polyhedron(2).tangent_cone(vector(0, 0)), vector(0, 0))
    assert _all_hold(report)


def test_qp_face_example():
    # M = diag(1, -1) over {x | x2 = 0, x1 >= 0} at the origin: the critical
    # cone is {v2 = 0, v1 >= 0} and the form there is v1^2 >= 0.
    quad = QuadraticObjective(matrix([[1, 0], [0, -1]]), vector(0, 0))
    face = Polyhedron(
        2,
        eq_matrix=matrix([[0, 1]]),
        eq_rhs=vector(0),
        ineq_matrix=matrix([[-1, 0]]),
        ineq_rhs=vector(0),
    )
    report = check_qp(quad, face.tangent_cone(vector(0, 0)), vector(0, 0))
    assert _all_hold(report)
    # grid oracle over the critical cone
    for a in range(0, 4):
        v = vector(a, 0)
        assert quad.quadratic_form(v) >= 0


def test_qp_c2_failure_witnessed():
    quad = QuadraticObjective(matrix([[-1, 0], [0, 0]]), vector(0, 0))
    report = check_qp(quad, orthant_polyhedron(2).tangent_cone(vector(0, 0)), vector(0, 0))
    assert report.stationarity.verdict is Verdict.HOLDS
    assert report.curvature_on_critical_cone.verdict is Verdict.FAILS
    witness = report.curvature_on_critical_cone.witness
    assert report.critical_cone.contains(witness)
    assert quad.quadratic_form(witness) < 0
    assert witness == vector(1, 0)


def test_qp_c1_implies_first_order_on_random_instances():
    """Over a polyhedron (c1') is equivalent to (c0) and to (c1) at every
    critical direction; check_qp decides it with one LP, at the first
    checked direction, or at v = 0 when none is listed.

    The oracle is (c1) checked at every critical-cone generator.  Gradients
    are drawn from the normal cone at the base point (so the critical cone
    is a nontrivial face) and, interleaved, fully at random.  M is 0, which
    (c2') certifies on ker E with no generator listed, or -I, which makes
    it enumerate C unless ker E = {0}.
    """
    rng = random.Random(23)
    observed = {Verdict.HOLDS: 0, Verdict.FAILS: 0}
    listed = Counter()
    for trial in range(60):
        dim = rng.randint(1, 4)
        polyhedron, base = random_feasible_polyhedron(
            rng, dim, rng.randint(1, 6), num_eq=rng.randint(0, 1)
        )
        if trial % 2 == 0:
            # -gradient = nonneg combination of active rows: stationary point
            gradient = RationalVector.zero(dim)
            for k, row in enumerate(polyhedron.ineq_matrix.rows):
                if row.dot(base) == polyhedron.ineq_rhs[k] and rng.random() < 0.7:
                    gradient = gradient - row.scale(rng.randint(0, 2))
        else:
            gradient = random_vector(rng, dim)
        tangent = polyhedron.tangent_cone(base)
        crit = critical_cone(gradient, tangent)
        generators = list(crit.generators().spanning_vectors())
        # f(x) = (1/2)<Mx, x> + <gradient - M base, x> has the drawn gradient at base
        hessian = matrix([[-int(i == j and trial % 4 < 2) for j in range(dim)] for i in range(dim)])
        objective = QuadraticObjective(hessian, gradient - hessian.matvec(base))
        report = check_qp(objective, tangent, base)
        c0 = report.stationarity.verdict
        # 0 is always critical, and T^2(x, 0) = T(x)
        for v in generators or [RationalVector.zero(dim)]:
            second = polyhedron.second_order_tangent_set(base, v)
            assert check_c1(gradient, second).verdict is c0
        c1p = report.strengthened_gradient
        assert c1p.verdict is c0
        enumerated = report.curvature_on_critical_cone.certificate.method != "kernel-factorization"
        assert list(report.checked_directions) == (generators if enumerated else [])
        v = report.checked_directions[0] if report.checked_directions else RationalVector.zero(dim)
        second = polyhedron.second_order_tangent_set(base, v)
        if c1p.verdict is Verdict.HOLDS:
            assert report.witness_direction is None
            assert c1p.certificate.verify(gradient, second)
        else:
            assert report.witness_direction == v
            assert second.contains(c1p.witness)
            assert gradient.dot(c1p.witness) < 0
        observed[c1p.verdict] += 1
        listed[bool(report.checked_directions)] += 1
    assert min(observed.values()) > 10
    assert min(listed[True], listed[False]) > 10


def test_qp_kernel_test_agrees_with_double_description():
    """check_qp certifies (c2') on ker E before any double description; its
    verdict is always the one check_c2_copositivity finds on the enumerated
    critical cone, (c1') stays (c0), and listed directions are C's
    generators in order.  QPs in dimensions 2-8, with and without an
    equality row, stationary or not, with M = A'A or indefinite."""
    seen = Counter()

    @settings(derandomize=True, deadline=None, max_examples=80,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32), st.integers(2, 8), st.integers(0, 1), st.booleans(), st.booleans())
    def check(seed, dim, num_eq, stationary, convex):
        rng = random.Random(seed)
        polyhedron, base = random_feasible_polyhedron(rng, dim, rng.randint(1, dim + 2), num_eq, 0.7)
        if convex:
            a = [random_vector(rng, dim) for _ in range(rng.randint(1, dim))]
            hessian = matrix([[sum(r[i] * r[j] for r in a) for j in range(dim)] for i in range(dim)])
        else:
            entries = {(i, j): small_fraction(rng) for i in range(dim) for j in range(i, dim)}
            hessian = matrix([[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)])
        linear = -hessian.matvec(base) if stationary else random_vector(rng, dim)
        objective = QuadraticObjective(hessian, linear)
        tangent = polyhedron.tangent_cone(base)
        report = check_qp(objective, tangent, base)
        crit = critical_cone(objective.gradient_at(base), tangent)
        oracle = check_c2_copositivity(hessian, crit)
        assert report.curvature_on_critical_cone.certificate.status is oracle.status
        assert report.strengthened_gradient.verdict is report.stationarity.verdict
        if report.checked_directions:
            assert report.checked_directions == crit.generators().spanning_vectors()
        seen[report.curvature_on_critical_cone.certificate.method == "kernel-factorization"] += 1

    check()
    assert seen[True] and seen[False]


def test_lp_count_one_per_second_order_question(monkeypatch):
    """One pairing LP on T(x) per point: (c0) and (c1') for ``qp``, (c1)
    and the classical check at every direction for ``theorem33_check``, and
    the gradient condition at every direction for ``theorem41``."""
    calls = []
    real = optimality.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimality, "solve_lp", counting)
    orthant = orthant_polyhedron(4)
    origin = RationalVector.zero(4)
    quad = QuadraticObjective(matrix([[int(i == j) for j in range(4)] for i in range(4)]), origin)
    tangent = orthant.tangent_cone(origin)
    # zero gradient: the critical cone is the whole orthant; M = I is PSD on
    # it, so no generator is listed, and M = diag(1, 1, 1, -1) needs its 4
    report = check_qp(quad, tangent, origin)
    assert report.checked_directions == ()
    assert _all_hold(report)
    assert len(calls) == 1
    calls.clear()
    indefinite = QuadraticObjective(matrix([[int(i == j) - 2 * (i == j == 3) for j in range(4)] for i in range(4)]), origin)
    report = check_qp(indefinite, tangent, origin)
    assert len(report.checked_directions) == 4
    assert report.curvature_on_critical_cone.verdict is Verdict.FAILS
    assert len(calls) == 1

    directions = [RationalVector.unit(4, i) for i in range(4)]
    for objective, point in ((quad, origin), (quad.as_smooth(), (0.0,) * 4)):
        calls.clear()
        bundles = theorem33_check(objective, tangent, point, directions)
        assert len(bundles) == len(directions)
        for bundle in bundles:
            assert bundle.strengthened_gradient.verdict is Verdict.HOLDS
            assert bundle.classical.verdict is Verdict.HOLDS
        assert len(calls) == 1

    problem = parse_problem(json.dumps({
        "version": "1",
        "constraint": {"type": "polyhedron", "dimension": 4,
                       "inequalities": {"rows": [[str(-int(i == j)) for j in range(4)] for i in range(4)],
                                        "bounds": ["0"] * 4}},
        "objective": {"type": "quadratic", "matrix": [[str(int(i == j)) for j in range(4)] for i in range(4)],
                      "linear": ["0"] * 4},
        "query": {"point": ["0"] * 4, "regime": "exact",
                  "directions": [[str(int(i == j)) for j in range(4)] for i in range(4)]},
    }))
    for command in ("second-order", "theorem41"):
        calls.clear()
        assert run_analysis(problem, command)["exit_code"] in (0, 1)
        assert len(calls) == 1, command


def _point_with_directions(seed: int):
    """A random polyhedron at its base point, an exact gradient there, its
    critical-cone generators and some tangent directions that are not
    critical, all primitive integer vectors.

    The gradient is a combination of the active rows on two seeds of three:
    with signs that make the point stationary, or with the opposite signs,
    so that some rays of T(x) pair with it to 0 and others negatively.
    Either way the critical cone is a nontrivial face.  On the third seed it
    is random."""
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    polyhedron, base = random_feasible_polyhedron(
        rng, dim, rng.randint(1, 2 * dim), num_eq=rng.randint(0, 2), active_probability=0.7
    )
    tangent = polyhedron.tangent_cone(base)
    if seed % 3 < 2:
        sign = -1 if seed % 3 == 0 else 1
        gradient = RationalVector.zero(dim)
        for row in tangent.ineq_rows.rows:
            gradient = gradient + row.scale(sign * rng.randint(0, 2))
        for row in tangent.eq_rows.rows:
            gradient = gradient + row.scale(small_fraction(rng))
    else:
        gradient = random_vector(rng, dim)
    critical = [v.primitive() for v in critical_cone(gradient, tangent).generators().spanning_vectors()]
    spanning = tangent.generators().spanning_vectors()
    others = []
    for _ in range(3):
        v = RationalVector.zero(dim)
        for g in spanning:
            v = v + g.scale(rng.randint(0, 2))
        others.append(v.primitive())
    return rng, base, tangent, gradient, critical, others


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32))
def test_c1_read_off_the_tangent_cone_lp_matches_the_lp_on_the_second_order_set(seed):
    """Exact regime: (c1) and the classical check read off the one LP on
    T(x) have the verdicts of the LP on T2(x, v) itself, at critical and
    non-critical tangent directions; certificates verify on T2(x, v), and
    witnesses lie in it and pair negatively with the gradient."""
    rng, base, tangent, gradient, critical, others = _point_with_directions(seed)
    dim = gradient.dim
    entries = {(i, j): small_fraction(rng) for i in range(dim) for j in range(i, dim)}
    hessian = RationalMatrix([[entries[min(i, j), max(i, j)] for j in range(dim)] for i in range(dim)], dim)
    objective = QuadraticObjective(hessian, gradient - hessian.matvec(base))
    directions = critical + others + [RationalVector.zero(dim)]
    bundles = theorem33_check(objective, tangent, base, directions)
    for v, bundle in zip(directions, bundles):
        second = tangent.tangent_cone_at(v)
        reference = check_c1(gradient, second)
        c1 = bundle.strengthened_gradient
        assert c1.verdict is reference.verdict
        if c1.verdict is Verdict.HOLDS:
            assert c1.certificate.verify(gradient, second)
        else:
            assert second.contains(c1.witness) and gradient.dot(c1.witness) < 0
            assert c1.margin == gradient.dot(c1.witness) / max(abs(a) for a in c1.witness.entries)
        classical = bundle.classical
        curvature = objective.quadratic_form(v)
        assert (classical.verdict is Verdict.HOLDS) == (
            reference.verdict is Verdict.HOLDS and curvature >= 0
        )
        if classical.margin == float("-inf"):
            assert second.contains(classical.witness) and gradient.dot(classical.witness) < 0


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32))
def test_c1_at_critical_directions_has_the_first_order_verdict_in_float(seed):
    """Float regime, tolerance 1e-9, gradient entries perturbed by 1e-15
    relative: (c1) at every direction critical for the exact gradient has
    the verdict of (c0), boundary cases included."""
    rng, base, tangent, gradient, critical, _ = _point_with_directions(seed)
    noisy = np.array([float(a) * (1 + 1e-15 * rng.uniform(-1, 1)) for a in gradient])
    objective = SmoothObjective(
        gradient.dim,
        gradient=lambda x: noisy,
        hessian=lambda x: np.zeros((gradient.dim, gradient.dim)),
    )
    c0 = first_order_check(noisy, tangent, 1e-9)
    directions = [tuple(float(a) for a in v) for v in critical]
    for bundle in theorem33_check(objective, tangent, base.as_floats(), directions, 1e-9):
        assert bundle.strengthened_gradient.verdict is c0.verdict


def test_equivalence_classical_vs_c1_plus_curvature():
    """Over polyhedral second-order sets (cones), the classical condition at v
    is equivalent to (c1 at v) and nonnegative curvature at v, for an exact
    and a float gradient, because both read one infimum: where (c1) at
    tolerance 0 fails, the classical margin is -inf with the infimum's
    witness at the run's tolerance (at a tolerance > 0 a boundary ray gives
    way to a steeper generator); where it holds, the classical margin is
    the curvature, with (c1)'s certificate.  Over a half-plane the
    classical margin is (c1)'s plus the curvature, or -inf with (c1)'s
    witness."""
    rng = random.Random(31)
    checked = 0
    for _ in range(30):
        dim = rng.randint(1, 3)
        polyhedron, base = random_feasible_polyhedron(rng, dim, rng.randint(1, 4))
        entries = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        sym = RationalMatrix(
            [
                [Fraction(entries[i][j] + entries[j][i], 2) for j in range(dim)]
                for i in range(dim)
            ],
            dim,
        )
        quad = QuadraticObjective(sym, random_vector(rng, dim))
        tangent = polyhedron.tangent_cone(base)
        # and a gradient -sum(w_i row_i), w >= 0, that (c1) holds for
        stationary = RationalVector.zero(dim)
        for row in tangent.ineq_rows.rows:
            stationary = stationary - row.scale(rng.randint(0, 2))
        for gradient in (quad.gradient(base), stationary):
            for v in critical_cone(gradient, tangent).generators().spanning_vectors():
                second = polyhedron.second_order_tangent_set(base, v)
                curvature = quad.quadratic_form(v)
                for grad, curv, tolerance in (
                    (gradient, curvature, 0),
                    (np.array(gradient.as_floats()), float(curvature), 1e-9),
                ):
                    classical = classical_second_order_check(grad, curv, second, tolerance)
                    c1 = check_c1(grad, second)
                    lhs = classical.verdict is Verdict.HOLDS
                    rhs = c1.verdict is Verdict.HOLDS and curv >= -tolerance
                    assert lhs == rhs
                    if c1.verdict is Verdict.FAILS:
                        witness = optimality._infimum(grad, second, None, tolerance)[2]
                        assert classical.margin == float("-inf") and classical.witness == witness
                    else:
                        assert classical.margin == curv and type(classical.margin) is type(curv)
                        if lhs:
                            assert classical.certificate == c1.certificate is not None
                checked += 1
    assert checked > 20
    for offset in (-1.0, 0.0, TINY, 1.0):
        region = _half_plane(offset)
        for grad in ((0.0, -2.0), (0.0, -TINY), (0.0, 0.0), (0.0, 1.0), (1.0, -1.0)):
            c1 = check_c1(grad, region, 1e-9)
            for curvature in (-3.0, -TINY, 0.0, 2.0):
                classical = classical_second_order_check(grad, curvature, region, 1e-9)
                if c1.margin == float("-inf"):
                    assert classical.margin == float("-inf") and classical.witness == c1.witness
                else:
                    assert classical.margin == c1.margin + curvature
