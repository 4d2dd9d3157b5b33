from fractions import Fraction

import pytest

from cone_audit.errors import DimensionMismatchError
from cone_audit.linalg import (
    RationalMatrix,
    RationalVector,
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


def test_integer_form_and_integer_vectors():
    """The integer form is the entries times the lcm of their denominators;
    a vector made from ints equals, hashes and measures like one made from
    Fractions, and boxes its entries only when they are read."""
    v = vector("2/3", "-4/3", 0)
    assert v.integer_form == ((2, -4, 0), 3)
    assert v.scaled_dot(vector(3, 1, 5)) == 3 * v.dot(vector(3, 1, 5)) == 2
    ints = RationalVector.from_ints((1, -2, 0))
    assert ints.dim == len(ints) == 3 and "entries" not in ints.__dict__
    assert ints.primitive() is ints and v.primitive() == ints
    assert ints == vector(1, -2, 0) and len({ints, vector(1, -2, 0)}) == 1
    assert ints.entries == (Fraction(1), Fraction(-2), Fraction(0))
    with pytest.raises(AttributeError):
        ints.entries = ()


def test_matrix_basics():
    m = matrix([[1, 2], [3, 4]])
    assert m.matvec(vector(1, 1)).entries == (Fraction(3), Fraction(7))
    assert transpose(m).rows[0].entries == (Fraction(1), Fraction(3))
    assert not m.is_symmetric()
    assert matrix([[1, 2], [2, 5]]).is_symmetric()
    empty = RationalMatrix([], 3)
    assert (empty.nrows, empty.ncols) == (0, 3)
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
