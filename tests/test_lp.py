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
from lp_oracle import oracle_solve_lp


def test_nonnegativity_minimum():
    # min x1 s.t. x1 >= 0
    result = solve_lp(vector(1), ineq_matrix=matrix([[-1]]), ineq_rhs=vector(0))
    assert result.status is LPStatus.OPTIMAL
    assert result.optimum == 0
    assert result.witness.entries == (Fraction(0),)


def test_unbounded_ray():
    result = solve_lp(vector(-1), ineq_matrix=matrix([[-1]]), ineq_rhs=vector(0))
    assert result.status is LPStatus.UNBOUNDED
    assert result.witness.entries == (Fraction(1),)
    assert result.feasible_point is not None


def test_infeasible_farkas_certificate():
    # x1 <= -1 and -x1 <= 0 cannot hold together; multipliers (1,1) combine
    # the rows to 0 <= -1.
    ineq = matrix([[1], [-1]])
    rhs = vector(-1, 0)
    result = solve_lp(vector(0), ineq_matrix=ineq, ineq_rhs=rhs)
    assert result.status is LPStatus.INFEASIBLE
    lam = result.dual_inequalities
    assert lam.entries == (Fraction(1), Fraction(1))
    # hand-check oracle: the combination's row is zero and its bound negative
    combined = [sum(lam[k] * ineq.entry(k, j) for k in range(2)) for j in range(1)]
    assert combined == [Fraction(0)]
    assert lam.dot(rhs) < 0


def test_equality_system():
    # min x2 s.t. x1 + x2 = 1, x1 <= 2
    result = solve_lp(
        vector(0, 1),
        eq_matrix=matrix([[1, 1]]),
        eq_rhs=vector(1),
        ineq_matrix=matrix([[1, 0]]),
        ineq_rhs=vector(2),
    )
    assert result.status is LPStatus.OPTIMAL
    assert result.optimum == -1
    assert result.witness.entries == (Fraction(2), Fraction(-1))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_lp(vector(1, 2), ineq_matrix=matrix([[1]]), ineq_rhs=vector(0))
    with pytest.raises(DimensionMismatchError):
        solve_lp(vector(1), ineq_matrix=matrix([[1]]), ineq_rhs=vector(0, 0))


def test_no_constraints():
    assert solve_lp(vector(0, 0)).status is LPStatus.OPTIMAL
    assert solve_lp(vector(1, -1)).status is LPStatus.UNBOUNDED


def test_strong_duality_on_random_instances():
    rng = random.Random(42)
    optimal = unbounded = infeasible = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        m_in = rng.randint(1, 6)
        m_eq = rng.randint(0, 2)
        objective = random_vector(rng, n)
        ineq = RationalMatrix([random_vector(rng, n) for _ in range(m_in)], n)
        ineq_rhs = random_vector(rng, m_in)
        eq = RationalMatrix([random_vector(rng, n) for _ in range(m_eq)], n)
        eq_rhs = random_vector(rng, m_eq)
        result = solve_lp(objective, eq, eq_rhs, ineq, ineq_rhs)
        if result.status is LPStatus.OPTIMAL:
            optimal += 1
            x = result.witness
            assert all(eq.row(i).dot(x) == eq_rhs[i] for i in range(m_eq))
            assert all(ineq.row(k).dot(x) <= ineq_rhs[k] for k in range(m_in))
            assert objective.dot(x) == result.optimum
            # exact strong duality
            assert result.certificate_bound(eq_rhs, ineq_rhs) == result.optimum
            assert all(a >= 0 for a in result.dual_inequalities)
        elif result.status is LPStatus.UNBOUNDED:
            unbounded += 1
            ray = result.witness
            assert objective.dot(ray) < 0
            assert all(eq.row(i).dot(ray) == 0 for i in range(m_eq))
            assert all(ineq.row(k).dot(ray) <= 0 for k in range(m_in))
            point = result.feasible_point
            assert all(ineq.row(k).dot(point) <= ineq_rhs[k] for k in range(m_in))
        else:
            infeasible += 1
            lam = result.dual_inequalities
            mu = result.dual_equalities
            assert all(a >= 0 for a in lam)
            for j in range(n):
                total = sum(
                    (mu[i] * eq.entry(i, j) for i in range(m_eq)), Fraction(0)
                ) - sum((lam[k] * ineq.entry(k, j) for k in range(m_in)), Fraction(0))
                assert total == 0
            assert result.certificate_bound(eq_rhs, ineq_rhs) > 0
    # the corpus must exercise all three statuses
    assert optimal and unbounded and infeasible


def test_determinism():
    objective = vector(1, -2, 0)
    ineq = matrix([[1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    rhs = vector(5, 0, 0, 0)
    first = solve_lp(objective, ineq_matrix=ineq, ineq_rhs=rhs)
    second = solve_lp(objective, ineq_matrix=ineq, ineq_rhs=rhs)
    assert first == second


def test_cycling_prone_instance_terminates():
    """A classical degenerate instance on which greedy pivoting cycles;
    the anti-cycling rule must terminate at the exact optimum -1/20."""
    objective = vector("-3/4", 150, "-1/50", 6)
    rows = matrix(
        [
            ["1/4", -60, "-1/25", 9],
            ["1/2", -90, "-1/50", 3],
            [0, 0, 1, 0],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ]
    )
    rhs = vector(0, 0, 1, 0, 0, 0, 0)
    result = solve_lp(objective, ineq_matrix=rows, ineq_rhs=rhs)
    assert result.status is LPStatus.OPTIMAL
    assert result.optimum == Fraction(-1, 20)
    assert result.witness == vector("1/25", 0, 1, 0)


def test_redundant_equalities_dropped():
    result = solve_lp(vector(1), eq_matrix=matrix([[1], [2], [3]]), eq_rhs=vector(2, 4, 6))
    assert result.status is LPStatus.OPTIMAL
    assert result.optimum == 2
    assert result.certificate_bound(vector(2, 4, 6), RationalVector([])) == 2


def test_agreement_with_scipy_linprog():
    """Independent oracle: scipy's solver must agree on status and optimum."""
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
        rhs = RationalVector([rng.randint(-2, 4) for _ in range(m_in)])
        exact = solve_lp(objective, ineq_matrix=ineq, ineq_rhs=rhs)
        approx = scipy_opt.linprog(
            [float(a) for a in objective],
            A_ub=[[float(a) for a in row] for row in ineq.rows],
            b_ub=[float(a) for a in rhs],
            bounds=[(None, None)] * n,
            method="highs",
        )
        if exact.status is LPStatus.OPTIMAL:
            assert approx.status == 0
            assert abs(approx.fun - float(exact.optimum)) < 1e-6
        elif exact.status is LPStatus.INFEASIBLE:
            assert approx.status == 2
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
def linear_programs(draw, zero_rhs):
    """(objective, E, f, G, h): dimension 1-8, 0-2 equality rows (sometimes
    with a scaled copy of the first, which phase 1 drops as redundant) and
    0-10 inequality rows.  With ``zero_rhs`` these are cone LPs; otherwise
    right-hand sides of both signs send rows down the artificial path."""
    n = draw(st.integers(1, 8))
    eq = draw(matrices(draw(st.integers(0, 2)), n))
    if eq.nrows and draw(st.booleans()):
        eq = RationalMatrix(eq.rows + (eq.rows[0].scale(draw(small_fractions)),), n)
    ineq = draw(matrices(draw(st.integers(0, 10)), n))
    rhs = st.just(Fraction(0)) if zero_rhs else small_fractions
    eq_rhs = RationalVector([draw(rhs) for _ in range(eq.nrows)])
    ineq_rhs = RationalVector([draw(rhs) for _ in range(ineq.nrows)])
    objective = RationalVector(draw(st.lists(small_fractions, min_size=n, max_size=n)))
    return objective, eq, eq_rhs, ineq, ineq_rhs


def _check_against_oracles(problem):
    objective, eq, eq_rhs, ineq, ineq_rhs = problem
    result = solve_lp(objective, eq, eq_rhs, ineq, ineq_rhs)
    assert result == oracle_solve_lp(objective, eq, eq_rhs, ineq, ineq_rhs)

    linprog = pytest.importorskip("scipy.optimize").linprog
    approx = linprog(
        [float(a) for a in objective],
        A_ub=[[float(a) for a in row] for row in ineq.rows] or None,
        b_ub=[float(a) for a in ineq_rhs] or None,
        A_eq=[[float(a) for a in row] for row in eq.rows] or None,
        b_eq=[float(a) for a in eq_rhs] or None,
        bounds=[(None, None)] * objective.dim,
        method="highs",
    )
    expected_status = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 2, LPStatus.UNBOUNDED: 3}
    assert approx.status == expected_status[result.status]
    if result.status is LPStatus.OPTIMAL:
        assert abs(approx.fun - float(result.optimum)) <= 1e-6 * max(1.0, abs(approx.fun))
    return result


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(linear_programs(zero_rhs=True))
def test_cone_lps_match_fraction_oracle_and_linprog(problem):
    result = _check_against_oracles(problem)
    assert result.status is not LPStatus.INFEASIBLE  # the origin is feasible


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(linear_programs(zero_rhs=False))
def test_general_lps_match_fraction_oracle_and_linprog(problem):
    _check_against_oracles(problem)


def test_zero_rhs_without_equalities_makes_no_phase_one_pivot(monkeypatch):
    pivots = []
    run, pivot = lp._Simplex._run, lp._Simplex._pivot

    def recording_run(self, costs, allowed):
        self.phase = 1 if allowed.stop > self.num_real else 2
        return run(self, costs, allowed)

    def recording_pivot(self, row, col):
        pivots.append(self.phase)
        return pivot(self, row, col)

    monkeypatch.setattr(lp._Simplex, "_run", recording_run)
    monkeypatch.setattr(lp._Simplex, "_pivot", recording_pivot)
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 8)
        rows = RationalMatrix([random_vector(rng, n) for _ in range(2 * n)], n)
        solve_lp(random_vector(rng, n), ineq_matrix=rows, ineq_rhs=RationalVector.zero(2 * n))
    assert pivots and set(pivots) == {2}
    # an equality row still starts on an artificial and pivots in phase 1
    pivots.clear()
    solve_lp(vector(1, 1), eq_matrix=matrix([[1, -1]]), eq_rhs=vector(0),
             ineq_matrix=matrix([[-1, 0]]), ineq_rhs=vector(0))
    assert 1 in pivots
