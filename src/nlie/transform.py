"""Base change for structure-constant tables, two ways.

change_basis_multilinear re-evaluates every bracket of new basis vectors
and works in any dimension. change_basis_matrix is specific to dimension
n+2, where the whole table fits in a single d x (d(d-1)/2) matrix indexed
by omitted index pairs; the table then transports by sandwiching between
the inverse of the basis matrix and its star compound, the matrix of
minors of t with two rows and two columns deleted. Jacobi's
complementary-minor identity,
star(t)[ij, kl] = (-1)^(i+j+k+l) det t (t^-1[k,i] t^-1[l,j] - t^-1[k,j] t^-1[l,i]),
reads that compound off the inverse, so the matrix path needs an
invertible t (a singular one raises SingularMatrix, as on the other path)
and runs on integers from one elimination. The two paths must agree, and
the dual-path tests (plus one acceptance criterion) hold them to that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import Algebra, table_in_basis
from .errors import DimensionMismatch, SingularMatrix
from .exactlin import Matrix, _compound_ints, ascending_pairs, clear_rows, det


def structure_matrix(a: Algebra) -> Matrix:
    """Table of a dimension-(n+2) algebra as a d x (d(d-1)/2) matrix.

    Column p corresponds to the p-th ascending index pair (i, j) in lex
    order and holds the bracket of the n basis vectors with i and j left
    out (in ascending order).
    """
    d = a.dim
    if d != a.arity + 2:
        raise DimensionMismatch(
            f"structure matrix needs dim = arity + 2, got dim {d} at arity {a.arity}")
    full = set(range(d))
    cols = []
    for i, j in ascending_pairs(d):
        combo = tuple(sorted(full - {i, j}))
        value = a.table.get(combo)
        cols.append(value if value is not None else tuple([0] * d))
    return Matrix.from_columns(cols)


def algebra_from_structure_matrix(arity: int, b: Matrix) -> Algebra:
    """Inverse of structure_matrix."""
    d = arity + 2
    if b.rows != d or b.cols != d * (d - 1) // 2:
        raise DimensionMismatch("structure matrix has wrong shape")
    full = set(range(d))
    table = {}
    for p, (i, j) in enumerate(ascending_pairs(d)):
        combo = tuple(sorted(full - {i, j}))
        col = b.column(p)
        if any(col):
            table[combo] = col
    return Algebra(arity, d, table)


def change_basis_multilinear(a: Algebra, t: Matrix) -> Algebra:
    """The algebra expressed in the basis given by the columns of t.

    Works in any dimension; raises SingularMatrix if t is not invertible.
    """
    if t.rows != a.dim or t.cols != a.dim:
        raise DimensionMismatch(
            f"basis matrix must be {a.dim} x {a.dim}, got {t.rows} x {t.cols}")
    return table_in_basis(a, t)


def _int_product(left, right):
    """Product of two integer matrices given as row lists."""
    cols = list(zip(*right))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in left]


def change_basis_matrix(a: Algebra, t: Matrix) -> Algebra:
    """Base change through the structure matrix; dimension n+2 only.

    The table transports as inverse(t) . B . star(t), where star(t) is the
    matrix of unsigned deletion minors of t indexed by ascending pairs.
    With t = T/s, inverse(T) = A/D and star(T) = S from one integer
    elimination, and B = B'/L cleared once, the product is
    A . B' . S / (D L s^(n-1)); one Fraction is built per entry. Raises
    SingularMatrix if t is not invertible.
    """
    if a.dim != a.arity + 2:
        raise DimensionMismatch("matrix transport requires dim = arity + 2")
    if t.rows != a.dim or t.cols != a.dim:
        raise DimensionMismatch(
            f"basis matrix must be {a.dim} x {a.dim}, got {t.rows} x {t.cols}")
    b = structure_matrix(a)
    b_rows, b_scale = clear_rows(b.entries, b.cols)
    inv, dd, star, s = _compound_ints(t)
    denominator = dd * b_scale * s ** (a.arity - 1)
    moved = _int_product(_int_product(inv, b_rows), star)
    return algebra_from_structure_matrix(
        a.arity, Matrix([[Fraction(x, denominator) for x in row] for row in moved]))


def verify_isomorphism(a1: Algebra, a2: Algebra, t: Matrix) -> bool:
    """Is t an isomorphism from a1 to a2?

    Column i of t holds the image in a2-coordinates of the i-th basis
    vector of a1: the check is that a2 pulled back along t reproduces a1's
    table exactly.
    """
    if a1.arity != a2.arity or a1.dim != a2.dim:
        return False
    if t.rows != a1.dim or t.cols != a1.dim:
        raise DimensionMismatch("witness matrix has wrong shape")
    try:
        moved = change_basis_multilinear(a2, t)
    except SingularMatrix:
        return False
    return moved == a1


_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class EntryStream:
    """Deterministic integer stream for reproducible basis matrices.

    A 64-bit linear congruential generator (Knuth's MMIX constants,
    state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64);
    each draw takes the top 31 bits of the state and reduces them to the
    range [-bound, bound]. The exact scheme is part of the observable
    contract: equal seeds must give equal matrices across runs and
    platforms, which is why this does not use the stdlib RNG.
    """

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def next_entry(self, bound: int) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        return ((self.state >> 33) % (2 * bound + 1)) - bound


def random_basis_change(dim: int, seed: int = 0, bound: int = 3,
                        stream: Optional[EntryStream] = None) -> Matrix:
    """Invertible integer matrix with entries in [-bound, bound].

    Entries fill row-major from the seeded stream; singular draws are
    thrown away and the stream simply continues.
    """
    if dim < 1:
        raise DimensionMismatch("dimension must be positive")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    gen = stream if stream is not None else EntryStream(seed)
    while True:
        rows = [[gen.next_entry(bound) for _ in range(dim)] for _ in range(dim)]
        m = Matrix(rows)
        if det(m) != 0:
            return m
