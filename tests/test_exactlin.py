from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nlie.errors import DimensionMismatch, SingularMatrix
from nlie.exactlin import (
    Matrix, ascending_pairs, compound_star, det, invert, kernel_basis,
    minor_det, rank, rat, rref, solve,
)


def det_cofactor(m: Matrix) -> Fraction:
    """Independent determinant oracle: first-row cofactor expansion."""
    if m.rows == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(m.cols):
        if m[0, j] == 0:
            continue
        sub = Matrix([[m[i, k] for k in range(m.cols) if k != j]
                      for i in range(1, m.rows)])
        total += (-1) ** j * m[0, j] * det_cofactor(sub)
    return total


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix)


square_matrices = st.integers(min_value=1, max_value=4).flatmap(lambda k: matrices(k, k))


def test_rat_coercion():
    assert rat("2/3") == Fraction(2, 3)
    assert rat(5) == Fraction(5)
    assert rat(Fraction(-1, 2)) == Fraction(-1, 2)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_matrix_is_immutable():
    m = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]) * Matrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        det(Matrix([[1, 2]]))


def test_identity_and_product():
    m = Matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2) * m == m
    assert m * Matrix.identity(2) == m
    assert m * invert(m) == Matrix.identity(2)


def test_from_columns_round_trip():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_columns(m.columns()) == m
    assert m.transpose().transpose() == m


def test_det_small_cases():
    assert det(Matrix.identity(4)) == 1
    assert det(Matrix.diagonal([2, 3, "1/2"])) == 3
    assert det(Matrix([[1, 2], [2, 4]])) == 0
    assert det(Matrix([[0, 1], [1, 0]])) == -1


@settings(max_examples=40, deadline=None)
@given(square_matrices)
def test_det_matches_cofactor_oracle(m):
    assert det(m) == det_cofactor(m)


@settings(max_examples=25, deadline=None)
@given(matrices(3, 3), matrices(3, 3))
def test_det_is_multiplicative(a, b):
    assert det(a * b) == det(a) * det(b)


def test_rank_examples():
    assert rank(Matrix.zero(3, 4)) == 0
    assert rank(Matrix.identity(5)) == 5
    assert rank(Matrix([[1, 2], [2, 4], [3, 6]])) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.integers(1, 4).flatmap(lambda c: matrices(r, c))))
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


def test_kernel_of_row_vector():
    assert kernel_basis(Matrix([[1, 1]])) == ((Fraction(-1), Fraction(1)),)


def test_kernel_of_injective_map_is_empty():
    assert kernel_basis(Matrix.identity(3)) == ()


def test_kernel_free_columns_ascending():
    # x0 + x2 = 0 with x1, x2 free: free columns are 1 then 2
    m = Matrix([[1, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    assert basis[0] == (0, 1, 0)
    assert basis[1] == (-1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.integers(1, 4).flatmap(lambda c: matrices(r, c))))
def test_kernel_vectors_are_killed(m):
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert m.apply(v) == tuple([Fraction(0)] * m.rows)


def test_rref_pivots_are_one():
    reduced, pivots = rref(Matrix([[2, 4], [1, 3]]))
    assert pivots == (0, 1)
    assert reduced == Matrix.identity(2)


@settings(max_examples=30, deadline=None)
@given(square_matrices)
def test_invert_round_trip(m):
    if det(m) == 0:
        with pytest.raises(SingularMatrix):
            invert(m)
    else:
        assert m * invert(m) == Matrix.identity(m.rows)
        assert invert(m) * m == Matrix.identity(m.rows)


def test_solve():
    m = Matrix([[1, 1], [0, 1]])
    assert solve(m, [3, 1]) == (Fraction(2), Fraction(1))
    inconsistent = Matrix([[1, 1], [1, 1]])
    assert solve(inconsistent, [0, 1]) is None
    underdetermined = Matrix([[1, 1]])
    x = solve(underdetermined, [5])
    assert x is not None and x[0] + x[1] == 5


def test_ascending_pairs_order():
    assert ascending_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_minor_det_keeps_order():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert minor_det(m, [0], [1]) == det(Matrix([[4, 6], [7, 10]]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_compound_star_of_identity(n):
    d = n + 2
    size = d * (d - 1) // 2
    assert compound_star(Matrix.identity(d), n) == Matrix.identity(size)


def test_compound_star_of_diagonal():
    # For diagonal t the compound is diagonal; the entry at pair (i, j)
    # is the product of the diagonal values at every other index.
    n = 3
    vals = [rat(v) for v in (1, 2, 3, "1/2", 5)]
    t = Matrix.diagonal(vals)
    star = compound_star(t, n)
    pairs = ascending_pairs(n + 2)
    for a, pr in enumerate(pairs):
        for b, pc in enumerate(pairs):
            if a == b:
                expected = Fraction(1)
                for m_idx in range(n + 2):
                    if m_idx not in pr:
                        expected *= vals[m_idx]
                assert star[a, b] == expected
            else:
                assert star[a, b] == 0


def test_compound_star_shape_check():
    with pytest.raises(DimensionMismatch):
        compound_star(Matrix.identity(4), 3)


@settings(max_examples=15, deadline=None)
@given(matrices(5, 5))
def test_compound_star_entries_match_oracle(t):
    star = compound_star(t, 3)
    pairs = ascending_pairs(5)
    for a, pr in enumerate(pairs):
        for b, pc in enumerate(pairs):
            keep_r = [i for i in range(5) if i not in pr]
            keep_c = [j for j in range(5) if j not in pc]
            sub = Matrix([[t[i, j] for j in keep_c] for i in keep_r])
            assert star[a, b] == det_cofactor(sub)


def test_factorize_small_values():
    from nlie.exactlin import factorize
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(600) == {2: 3, 3: 1, 5: 2}
    assert factorize(97) == {97: 1}
    # reassemble
    n = 98280
    prod = 1
    for p, e in factorize(n).items():
        prod *= p ** e
    assert prod == n


def test_squarefree_part():
    from nlie.exactlin import squarefree_part
    assert squarefree_part(0) == 0
    assert squarefree_part(1) == 1
    assert squarefree_part(8) == 2
    assert squarefree_part(-12) == -3
    assert squarefree_part(Fraction(1, 2)) == 2
    assert squarefree_part(Fraction(9, 4)) == 1
    assert squarefree_part(Fraction(5, 27)) == 15


@given(st.fractions(min_value=-30, max_value=30, max_denominator=24))
def test_squarefree_part_is_square_quotient(x):
    from nlie.exactlin import rational_sqrt, squarefree_part
    sf = squarefree_part(x)
    if x == 0:
        assert sf == 0
        return
    # x / sf is a nonzero rational square
    assert rational_sqrt(rat(x) / sf) is not None


def test_rational_sqrt():
    from nlie.exactlin import rational_sqrt
    assert rational_sqrt(0) == 0
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None
    assert rational_sqrt(Fraction(49, 36)) == Fraction(7, 6)


def test_rational_cbrt():
    from nlie.exactlin import rational_cbrt
    assert rational_cbrt(0) == 0
    assert rational_cbrt(-8) == -2
    assert rational_cbrt(Fraction(27, 8)) == Fraction(3, 2)
    assert rational_cbrt(Fraction(-1, 27)) == Fraction(-1, 3)
    assert rational_cbrt(4) is None
    assert rational_cbrt(Fraction(9, 8)) is None


@given(st.fractions(min_value=-9, max_value=9, max_denominator=6))
def test_roots_invert_powers(x):
    from nlie.exactlin import rational_cbrt, rational_sqrt
    assert rational_sqrt(rat(x) ** 2) == abs(rat(x))
    assert rational_cbrt(rat(x) ** 3) == rat(x)


def test_rational_cbrt_at_large_height():
    from nlie.exactlin import rational_cbrt
    # a float cube root misses the first and overflows on the second
    assert rational_cbrt((10**60 + 7) ** 3) == 10**60 + 7
    assert rational_cbrt((10**110 + 3) ** 3) == 10**110 + 3
    assert rational_cbrt(Fraction(-(10**40 + 1) ** 3, 7**90)) == Fraction(-(10**40 + 1), 7**30)
    assert rational_cbrt((10**60 + 7) ** 3 + 1) is None


def test_iroot_small_values():
    from nlie.exactlin import iroot
    assert [iroot(m, 3) for m in range(28)] == [0] + [1] * 7 + [2] * 19 + [3]
    assert iroot(0, 5) == 0 and iroot(1, 5) == 1 and iroot(31, 5) == 1
    assert iroot(32, 5) == 2 and iroot(17, 1) == 17
    with pytest.raises(ValueError):
        iroot(-1, 3)
    with pytest.raises(ValueError):
        iroot(8, 0)


@given(st.integers(min_value=0, max_value=10**200), st.integers(min_value=1, max_value=9))
def test_iroot_is_the_floor_root(m, k):
    from nlie.exactlin import iroot
    r = iroot(m, k)
    assert r ** k <= m < (r + 1) ** k


@given(st.integers(min_value=0, max_value=10**60), st.integers(min_value=2, max_value=7))
def test_iroot_inverts_powers(r, k):
    from nlie.exactlin import iroot
    assert iroot(r ** k, k) == r


@given(st.lists(st.fractions(max_denominator=60), max_size=8))
def test_clear_denominators(values):
    from math import gcd
    from nlie.exactlin import clear_denominators
    ints, scale = clear_denominators(values)
    assert all(type(v) is int for v in ints)
    assert [Fraction(v, scale) for v in ints] == values
    # the smallest such scale: no prime divides it and every integer
    common = scale
    for v in ints:
        common = gcd(common, v)
    assert common == 1
