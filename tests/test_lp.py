import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cone_audit import lp
from cone_audit.errors import DimensionMismatchError
from cone_audit.linalg import RationalMatrix, RationalVector, matrix, vector
from cone_audit.lp import LPStatus, solve_lp

from conftest import random_vector
from lp_oracle import agrees, oracle_solve_lp


def test_nonnegativity_minimum():
    # min x1 s.t. x1 >= 0: the multiplier 1 on -x1 <= 0 certifies x1 >= 0
    result = solve_lp(vector(1), ineq_matrix=matrix([[-1]]))
    assert result.status is LPStatus.OPTIMAL
    assert result.dual_inequalities.entries == (Fraction(1),)
    assert result.witness is None


def test_unbounded_ray():
    result = solve_lp(vector(-1), ineq_matrix=matrix([[-1]]))
    assert result.status is LPStatus.UNBOUNDED
    assert result.witness.entries == (Fraction(1),)


def test_equality_system():
    # min x2 s.t. x1 + x2 = 0, x1 <= 0: x2 = -x1 >= 0, certified by
    # 1 * (1, 1) - 1 * (1, 0) = (0, 1)
    result = solve_lp(vector(0, 1), eq_matrix=matrix([[1, 1]]), ineq_matrix=matrix([[1, 0]]))
    assert result.status is LPStatus.OPTIMAL
    assert result.dual_equalities.entries == (Fraction(1),)
    assert result.dual_inequalities.entries == (Fraction(1),)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_lp(vector(1, 2), ineq_matrix=matrix([[1]]))
    with pytest.raises(DimensionMismatchError):
        solve_lp(vector(1), eq_matrix=matrix([[1, 2]]))


def test_no_constraints():
    assert solve_lp(vector(0, 0)).status is LPStatus.OPTIMAL
    assert solve_lp(vector(1, -1)).status is LPStatus.UNBOUNDED


def _dual_identity(result, objective, eq, ineq) -> bool:
    """E'y - G'lambda = c with lambda >= 0, exactly."""
    y, lam = result.dual_equalities, result.dual_inequalities
    combined = [
        sum((y[i] * eq.entry(i, j) for i in range(eq.nrows)), Fraction(0))
        - sum((lam[k] * ineq.entry(k, j) for k in range(ineq.nrows)), Fraction(0))
        for j in range(objective.dim)
    ]
    return all(a >= 0 for a in lam) and combined == list(objective.entries)


def _assert_improving_ray(ray, objective, eq, ineq) -> None:
    assert objective.dot(ray) < 0
    assert all(row.dot(ray) == 0 for row in eq.rows)
    assert all(row.dot(ray) <= 0 for row in ineq.rows)


def test_strong_duality_on_random_instances():
    """On a cone LP the optimum and the dual bound are both 0, so strong
    duality is the identity E'y - G'lambda = c with lambda >= 0."""
    rng = random.Random(42)
    optimal = unbounded = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        m_in = rng.randint(1, 6)
        m_eq = rng.randint(0, 2)
        objective = random_vector(rng, n)
        ineq = RationalMatrix([random_vector(rng, n) for _ in range(m_in)], n)
        eq = RationalMatrix([random_vector(rng, n) for _ in range(m_eq)], n)
        result = solve_lp(objective, eq, ineq)
        if result.status is LPStatus.OPTIMAL:
            optimal += 1
            assert _dual_identity(result, objective, eq, ineq)
        else:
            unbounded += 1
            _assert_improving_ray(result.witness, objective, eq, ineq)
    # the corpus must exercise both statuses
    assert optimal and unbounded


def test_determinism():
    objective = vector(1, -2, 0)
    ineq = matrix([[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    first = solve_lp(objective, ineq_matrix=ineq)
    second = solve_lp(objective, ineq_matrix=ineq)
    assert first == second


def test_cycling_prone_instance_terminates():
    """The two degenerate rows of a classical instance on which greedy
    pivoting cycles, over the nonnegative orthant; the anti-cycling rule
    must terminate, here with the ray of the fraction oracle."""
    objective = vector("-3/4", 150, "-1/50", 6)
    rows = matrix(
        [
            ["1/4", -60, "-1/25", 9],
            ["1/2", -90, "-1/50", 3],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ]
    )
    result = solve_lp(objective, ineq_matrix=rows)
    assert result.status is LPStatus.UNBOUNDED
    assert result.witness == vector(1, 0, "125/2", "1/4")
    assert objective.dot(result.witness) < 0
    assert all(row.dot(result.witness) <= 0 for row in rows.rows)


def test_redundant_equalities_dropped():
    eq = matrix([[1], [2], [3]])
    result = solve_lp(vector(1), eq_matrix=eq)
    assert result.status is LPStatus.OPTIMAL
    assert _dual_identity(result, vector(1), eq, RationalMatrix([], 1))


# A cone in R^7 whose fourth equality row is twice the first.  The kernel
# substitution sees three independent rows, and the multipliers of all four
# must still satisfy the dual identity.
DEPENDENT_EQUALITY_LP = (
    vector("1/3", "-2/5", "1/5", 2, "4/3", -3, "3/5"),
    matrix([
        ["1/3", -2, "3/5", "-3/2", 1, -1, -1],
        [0, 0, -2, "3/5", "-1/3", "1/2", -2],
        [2, "1/3", -1, "-1/5", "-1/5", -1, 2],
        ["2/3", -4, "6/5", -3, 2, -2, -2],
    ]),
    matrix([
        ["-3/2", 2, 0, 0, "1/2", "-3/5", "-1/3"],
        ["-4/5", -4, 1, -1, -3, "-3/5", 0],
        [1, "-2/5", "-1/2", "-1/3", "3/5", 1, 0],
        ["3/2", -1, 2, "-3/2", 4, -4, 1],
        ["-2/5", 1, -4, "-2/3", "-1/2", -1, "-2/3"],
        ["-3/5", "-3/2", -2, "2/5", 0, "-1/5", 1],
        [3, -4, -1, -3, 0, -2, 4],
        [1, "3/5", -1, 3, "4/5", "-4/3", 2],
        [-2, "-4/5", "-1/3", "1/2", -3, "1/3", 2],
        [0, 0, 3, "-4/5", 2, "-1/3", 0],
    ]),
)


def test_dependent_equality_rows_keep_their_multipliers():
    objective, eq, ineq = DEPENDENT_EQUALITY_LP
    result = solve_lp(objective, eq, ineq)
    assert result.status is LPStatus.OPTIMAL
    assert _dual_identity(result, objective, eq, ineq)


def test_agreement_with_scipy_linprog():
    """Independent oracle: scipy's solver must agree on the status."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(77)
    compared = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m_in = rng.randint(1, 6)
        objective = RationalVector([rng.randint(-3, 3) for _ in range(n)])
        ineq = RationalMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m_in)], n
        )
        exact = solve_lp(objective, ineq_matrix=ineq)
        approx = scipy_opt.linprog(
            [float(a) for a in objective],
            A_ub=[[float(a) for a in row] for row in ineq.rows],
            b_ub=[0.0] * m_in,
            bounds=[(None, None)] * n,
            method="highs",
        )
        if exact.status is LPStatus.OPTIMAL:
            assert approx.status == 0
            assert abs(approx.fun) < 1e-6
        else:
            assert approx.status == 3
        compared += 1
    assert compared == 40


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 5)))


def matrices(nrows, ncols):
    rows = st.lists(small_fractions, min_size=ncols, max_size=ncols)
    return st.lists(rows, min_size=nrows, max_size=nrows).map(
        lambda rows: RationalMatrix(rows, ncols)
    )


@st.composite
def cone_lps(draw):
    """(objective, E, G): dimension 1-8, 0-3 equality rows and 0-10
    inequality rows.  Sometimes one more equality row is a combination of
    the first two (or a multiple of the first), so E has dependent rows."""
    n = draw(st.integers(1, 8))
    eq = draw(matrices(draw(st.integers(0, 3)), n))
    if eq.nrows and draw(st.booleans()):
        extra = eq.rows[0].scale(draw(small_fractions))
        if eq.nrows > 1:
            extra = extra + eq.rows[1].scale(draw(small_fractions))
        eq = RationalMatrix(eq.rows + (extra,), n)
    ineq = draw(matrices(draw(st.integers(0, 10)), n))
    objective = RationalVector(draw(st.lists(small_fractions, min_size=n, max_size=n)))
    return objective, eq, ineq


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(cone_lps())
def test_cone_lps_match_fraction_oracle_and_linprog(problem):
    objective, eq, ineq = problem
    result = solve_lp(objective, eq, ineq)
    oracle = oracle_solve_lp(
        objective, eq, RationalVector.zero(eq.nrows), ineq, RationalVector.zero(ineq.nrows)
    )
    if not eq.nrows:
        assert agrees(result, oracle)
    else:
        # equality rows are substituted away, so the pivots, and with them
        # the ray or multipliers, differ from the oracle's phase 1
        assert result.status.value == oracle.status.value
        if result.status is LPStatus.OPTIMAL:
            assert _dual_identity(result, objective, eq, ineq)
        else:
            _assert_improving_ray(result.witness, objective, eq, ineq)

    linprog = pytest.importorskip("scipy.optimize").linprog
    approx = linprog(
        [float(a) for a in objective],
        A_ub=[[float(a) for a in row] for row in ineq.rows] or None,
        b_ub=[0.0] * ineq.nrows or None,
        A_eq=[[float(a) for a in row] for row in eq.rows] or None,
        b_eq=[0.0] * eq.nrows or None,
        bounds=[(None, None)] * objective.dim,
        method="highs",
    )
    expected_status = {LPStatus.OPTIMAL: 0, LPStatus.UNBOUNDED: 3}
    assert approx.status == expected_status[result.status]
    if result.status is LPStatus.OPTIMAL:
        assert abs(approx.fun) <= 1e-6


def test_wrong_ray_fails_the_self_check(monkeypatch):
    """The UNBOUNDED ray is checked against the original rows, also after it
    is mapped back through the kernel basis."""
    monkeypatch.setattr(lp._Simplex, "_ray", lambda self, entering: RationalVector.zero(self.n))
    for eq in (RationalMatrix([], 2), matrix([[1, -1]])):
        with pytest.raises(RuntimeError, match="recession ray failed exact verification"):
            solve_lp(vector(-1, -1), eq, matrix([[-1, 0]]))
