from fractions import Fraction

import pytest

from cone_audit.errors import DimensionMismatchError
from cone_audit.linalg import (
    RationalMatrix,
    matrix,
    rational,
    row_space_basis,
    rref,
    solve_linear,
    vector,
)

from conftest import kernel_basis, transpose


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    assert rational(5) == Fraction(5)
    assert rational(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["1/0", "x", "1.5", 1.5, "3 / 4", None, True])
def test_rational_rejects(bad):
    with pytest.raises(ValueError):
        rational(bad)


def test_vector_arithmetic():
    a = vector(1, "1/2")
    b = vector("1/3", 2)
    assert (a + b).entries == (Fraction(4, 3), Fraction(5, 2))
    assert (a - b).entries == (Fraction(2, 3), Fraction(-3, 2))
    assert a.dot(b) == Fraction(1, 3) + 1
    assert (-a).entries == (Fraction(-1), Fraction(-1, 2))
    assert a.scale(2).entries == (Fraction(2), Fraction(1))
    with pytest.raises(DimensionMismatchError):
        a.dot(vector(1))


def test_primitive_scaling():
    assert vector("2/3", "-4/3").primitive().entries == (Fraction(1), Fraction(-2))
    assert vector(0, 0).primitive().entries == (Fraction(0), Fraction(0))
    assert vector(-2, 4).primitive().entries == (Fraction(-1), Fraction(2))


def test_matrix_basics():
    m = matrix([[1, 2], [3, 4]])
    assert m.matvec(vector(1, 1)).entries == (Fraction(3), Fraction(7))
    assert transpose(m).rows[0].entries == (Fraction(1), Fraction(3))
    assert not m.is_symmetric()
    assert matrix([[1, 2], [2, 5]]).is_symmetric()
    empty = RationalMatrix([], 3)
    assert empty.shape == (0, 3)
    assert empty.matvec(vector(1, 2, 3)).dim == 0


def test_rref_and_kernel():
    m = matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    rows, pivots = rref(m)
    assert pivots == [0, 2]
    basis = kernel_basis(m)
    assert len(basis) == 1
    for b in basis:
        assert m.matvec(b).is_zero()
    rows_basis = row_space_basis(m)
    assert len(rows_basis) == 2


def test_solve_linear():
    m = matrix([[2, 0], [0, 4]])
    x = solve_linear(m, vector(1, 2))
    assert x.entries == (Fraction(1, 2), Fraction(1, 2))
    inconsistent = solve_linear(matrix([[1, 1], [1, 1]]), vector(0, 1))
    assert inconsistent is None
    underdetermined = solve_linear(matrix([[1, 1]]), vector(3))
    assert underdetermined is not None
    assert underdetermined[0] + underdetermined[1] == 3
