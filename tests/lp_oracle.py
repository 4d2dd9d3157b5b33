"""Reference simplex for the differential tests of ``cone_audit.lp``.

The dense ``Fraction`` tableau that ``solve_lp`` used before it moved to an
integer tableau, with the same slack start: an inequality row with a
nonnegative right-hand side starts with its slack basic, every other row
with its artificial, and Bland's rule picks the pivots.  It keeps one
artificial column per row; those of slack-start rows equal the slack columns
plus one unit of phase-1 cost, so they never enter, and without equality
rows the pivot path is the one ``solve_lp`` takes.

It solves general LPs,  min c.x  subject to  E x = f, G x <= h, of which
``solve_lp`` takes the cone LPs (f = 0, h = 0): on those without equality
rows it must return the same status, ray and multipliers (:func:`agrees`);
``solve_lp`` substitutes equality rows away, so with them only the status
must agree.  The tests also use it for the feasibility LPs of polyhedra,
whose right-hand sides are not 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from cone_audit.linalg import RationalMatrix, RationalVector
from cone_audit.lp import LPResult

_ZERO = Fraction(0)
_ONE = Fraction(1)


class OracleStatus(Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class OracleResult:
    """``witness`` is the minimizer on OPTIMAL and the improving recession
    ray on UNBOUNDED; the duals are the dual solution on OPTIMAL and the
    Farkas multipliers on INFEASIBLE."""

    status: OracleStatus
    optimum: Fraction | None = None
    witness: RationalVector | None = None
    feasible_point: RationalVector | None = None
    dual_equalities: RationalVector | None = None
    dual_inequalities: RationalVector | None = None

    def certificate_bound(self, eq_rhs: RationalVector, ineq_rhs: RationalVector) -> Fraction:
        """The bound f.y - h.lambda proved by the dual certificate."""
        bound = _ZERO
        if self.dual_equalities is not None and eq_rhs.dim:
            bound += self.dual_equalities.dot(eq_rhs)
        if self.dual_inequalities is not None and ineq_rhs.dim:
            bound -= self.dual_inequalities.dot(ineq_rhs)
        return bound


def agrees(result: LPResult, oracle: OracleResult) -> bool:
    """Same status and, by status, the same ray or the same multipliers."""
    if result.status.value != oracle.status.value:
        return False
    if oracle.status is OracleStatus.UNBOUNDED:
        return result.witness == oracle.witness
    return (result.dual_equalities, result.dual_inequalities) == (
        oracle.dual_equalities,
        oracle.dual_inequalities,
    )


def oracle_solve_lp(objective, eq_matrix=None, eq_rhs=None, ineq_matrix=None, ineq_rhs=None):
    """Minimize ``objective . x`` over ``{x | eq_matrix x = eq_rhs, ineq_matrix x <= ineq_rhs}``."""
    n = objective.dim
    eq_matrix = eq_matrix if eq_matrix is not None else RationalMatrix([], n)
    eq_rhs = eq_rhs if eq_rhs is not None else RationalVector([])
    ineq_matrix = ineq_matrix if ineq_matrix is not None else RationalMatrix([], n)
    ineq_rhs = ineq_rhs if ineq_rhs is not None else RationalVector([])
    return FractionSimplex(objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs).solve()


class FractionSimplex:
    """Internal solver state for one LP instance.

    Standard-form layout: columns [0, n) are x+, [n, 2n) are x-, then one
    slack per inequality row, then the phase-1 artificials.  Rows are the
    equalities followed by the inequalities, each scaled by +-1 so the
    right-hand side is nonnegative.
    """

    def __init__(self, objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs):
        self.n = objective.dim
        self.objective = objective
        self.eq_matrix, self.eq_rhs = eq_matrix, eq_rhs
        self.ineq_matrix, self.ineq_rhs = ineq_matrix, ineq_rhs
        self.m_eq, self.m_in = eq_matrix.nrows, ineq_matrix.nrows
        m = self.m_eq + self.m_in
        self.num_real = 2 * self.n + self.m_in
        self.art_start = self.num_real

        # Build the sign-normalized standard-form rows.
        self.std_rows: list[list[Fraction]] = []
        self.std_rhs: list[Fraction] = []
        self.row_sign: list[Fraction] = []
        for i in range(self.m_eq):
            self._append_row(list(eq_matrix.row(i).entries), None, eq_rhs[i])
        for k in range(self.m_in):
            self._append_row(list(ineq_matrix.row(k).entries), k, ineq_rhs[k])

        # Tableau with artificial columns appended; artificials start basic.
        self.tab = [
            row + [(_ONE if j == i else _ZERO) for j in range(m)] + [self.std_rhs[i]]
            for i, row in enumerate(self.std_rows)
        ]
        self.basis = [self.art_start + i for i in range(m)]
        # Slack start: an inequality row whose sign was kept has its slack
        # as a unit column, so it starts with the slack basic.
        for i in range(self.m_eq, m):
            if self.row_sign[i] > 0:
                self.basis[i] = 2 * self.n + i - self.m_eq

    def _append_row(self, coeffs: list[Fraction], slack_index: int | None, rhs: Fraction):
        row = list(coeffs) + [-a for a in coeffs] + [_ZERO] * self.m_in
        if slack_index is not None:
            row[2 * self.n + slack_index] = _ONE
        sign = _ONE
        if rhs < 0:
            row = [-a for a in row]
            rhs, sign = -rhs, -sign
        self.std_rows.append(row)
        self.std_rhs.append(rhs)
        self.row_sign.append(sign)

    # -- tableau mechanics -------------------------------------------------

    def _pivot(self, row: int, col: int) -> None:
        tab = self.tab
        pivot = tab[row][col]
        tab[row] = [a / pivot for a in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                factor = tab[i][col]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[row])]
        self.basis[row] = col

    def _reduced_costs(self, costs: list[Fraction], allowed: range) -> list[Fraction]:
        basis_costs = [costs[b] for b in self.basis]
        reduced = list(costs[: allowed.stop])
        for i, cb in enumerate(basis_costs):
            if cb != 0:
                row = self.tab[i]
                for j in allowed:
                    if row[j] != 0:
                        reduced[j] -= cb * row[j]
        return reduced

    def _run(self, costs: list[Fraction], allowed: range) -> int | None:
        """Iterate to optimality; returns the entering column on unboundedness."""
        while True:
            reduced = self._reduced_costs(costs, allowed)
            entering = next((j for j in allowed if reduced[j] < 0), None)
            if entering is None:
                return None
            leaving, best = None, None
            for i, row in enumerate(self.tab):
                coeff = row[entering]
                if coeff > 0:
                    ratio = row[-1] / coeff
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leaving]
                    ):
                        leaving, best = i, ratio
            if leaving is None:
                return entering
            self._pivot(leaving, entering)

    # -- solution extraction ----------------------------------------------

    def _basic_point(self) -> RationalVector:
        values = [_ZERO] * (self.num_real + self.m_eq + self.m_in)
        for i, b in enumerate(self.basis):
            values[b] = self.tab[i][-1]
        return RationalVector(
            values[j] - values[self.n + j] for j in range(self.n)
        )

    def _duals(self, costs: list[Fraction]) -> tuple[RationalVector, RationalVector]:
        """Dual multipliers for the original rows, from the final basis.

        y = c_B B^-1, and row i's artificial column started as the unit
        vector e_i, so it now holds column i of B^-1.  A row dropped as
        redundant had an artificial basic at cost 0, so it adds nothing to
        the sum.  The row sign normalization is undone here.
        """
        y = [
            sum((costs[b] * row[self.art_start + i] for b, row in zip(self.basis, self.tab)), _ZERO)
            for i in range(self.m_eq + self.m_in)
        ]
        dual_eq = RationalVector(self.row_sign[i] * y[i] for i in range(self.m_eq))
        dual_in = RationalVector(
            -self.row_sign[self.m_eq + k] * y[self.m_eq + k] for k in range(self.m_in)
        )
        return dual_eq, dual_in

    def _verify_dual(self, dual_eq, dual_in, target: RationalVector) -> None:
        # E'y - G'lambda must equal `target` and lambda must be >= 0; both are
        # exact identities, so a failure means a solver bug, not bad data.
        if any(a < 0 for a in dual_in):
            raise RuntimeError("negative inequality multiplier in LP certificate")
        for j in range(self.n):
            total = _ZERO
            for i in range(self.m_eq):
                total += dual_eq[i] * self.eq_matrix.entry(i, j)
            for k in range(self.m_in):
                total -= dual_in[k] * self.ineq_matrix.entry(k, j)
            if total != target[j]:
                raise RuntimeError("LP dual certificate failed exact verification")

    def _ray(self, entering: int) -> RationalVector:
        direction = [_ZERO] * (self.num_real + self.m_eq + self.m_in)
        direction[entering] = _ONE
        for i, b in enumerate(self.basis):
            direction[b] = -self.tab[i][entering]
        return RationalVector(
            direction[j] - direction[self.n + j] for j in range(self.n)
        )

    # -- solve -------------------------------------------------------------

    def solve(self) -> OracleResult:
        m = self.m_eq + self.m_in
        phase1_costs = [_ZERO] * self.num_real + [_ONE] * m
        unbounded = self._run(phase1_costs, range(self.num_real + m))
        if unbounded is not None:  # sum of artificials is bounded below by 0
            raise RuntimeError("phase-1 simplex reported unbounded")
        infeasibility = sum((self.tab[i][-1] for i, b in enumerate(self.basis)
                             if b >= self.art_start), _ZERO)
        if infeasibility > 0:
            dual_eq, dual_in = self._duals(phase1_costs)
            self._verify_dual(dual_eq, dual_in, RationalVector.zero(self.n))
            result = OracleResult(
                status=OracleStatus.INFEASIBLE,
                dual_equalities=dual_eq,
                dual_inequalities=dual_in,
            )
            if result.certificate_bound(self.eq_rhs, self.ineq_rhs) <= 0:
                raise RuntimeError("Farkas certificate failed exact verification")
            return result

        self._drive_out_artificials()

        costs = (
            list(self.objective.entries)
            + [-a for a in self.objective.entries]
            + [_ZERO] * self.m_in
            + [_ZERO] * m
        )
        entering = self._run(costs, range(self.num_real))
        if entering is not None:
            ray = self._ray(entering)
            return OracleResult(
                status=OracleStatus.UNBOUNDED,
                witness=ray,
                feasible_point=self._basic_point(),
            )
        point = self._basic_point()
        optimum = self.objective.dot(point)
        dual_eq, dual_in = self._duals(costs)
        self._verify_dual(dual_eq, dual_in, self.objective)
        result = OracleResult(
            status=OracleStatus.OPTIMAL,
            optimum=optimum,
            witness=point,
            feasible_point=point,
            dual_equalities=dual_eq,
            dual_inequalities=dual_in,
        )
        if result.certificate_bound(self.eq_rhs, self.ineq_rhs) != optimum:
            raise RuntimeError("LP strong duality failed exact verification")
        return result

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials (at value 0) onto real columns; drop rows
        whose real part is entirely zero (redundant constraints)."""
        row = 0
        while row < len(self.tab):
            if self.basis[row] >= self.art_start:
                col = next(
                    (j for j in range(self.num_real) if self.tab[row][j] != 0), None
                )
                if col is None:
                    del self.tab[row]
                    del self.basis[row]
                    continue
                self._pivot(row, col)
            row += 1
