"""Exact linear algebra over the rationals.

Everything in this package funnels through the small kit in this module:
an immutable Matrix of `fractions.Fraction` entries, rank/det via
fraction-free (Bareiss) elimination on denominator-cleared rows, and
reduced row echelon form for kernels, inverses and solving. Pivot choice
is always the first nonzero entry in column order, so results are
deterministic and reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, SingularMatrix

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"refusing inexact/boolean value {x!r}")
    return Fraction(x)


class Matrix:
    """Immutable rational matrix.

    Stored as a tuple of row tuples. Arithmetic returns new matrices;
    equality and hashing are structural.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable]):
        ents = tuple(tuple(rat(x) for x in row) for row in rows)
        if not ents or not ents[0]:
            raise DimensionMismatch("matrix needs at least one row and one column")
        width = len(ents[0])
        for r in ents:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "rows", len(ents))
        object.__setattr__(self, "cols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        vals = [rat(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        cols = [tuple(rat(x) for x in c) for c in cols]
        height = len(cols[0])
        for c in cols:
            if len(c) != height:
                raise DimensionMismatch("columns of unequal length")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(height)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.__mul__(other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            ot = other.transpose().entries
            return Matrix([[sum(a * b for a, b in zip(row, col)) for col in ot]
                           for row in self.entries])
        return Matrix([[x * rat(other) for x in row] for row in self.entries])

    def __rmul__(self, other):
        return Matrix([[rat(other) * x for x in row] for row in self.entries])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-1) * other

    def __neg__(self) -> "Matrix":
        return (-1) * self

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        v = [rat(x) for x in vector]
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"


def clear_denominators(values):
    """Integers L*v for the rational values v, where L is the lcm of their
    denominators; returns (int list, L)."""
    vals = [rat(v) for v in values]
    mult = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (mult // v.denominator) for v in vals], mult


def _cleared_int_rows(m: Matrix):
    """Rows scaled to integers; returns (int rows, product of scale factors)."""
    out = []
    total = 1
    for row in m.entries:
        ints, mult = clear_denominators(row)
        total *= mult
        out.append(ints)
    return out, total


def _bareiss(rows):
    """Fraction-free elimination in place on integer rows.

    Returns (pivot count, sign, last pivot value). Pivot selection: first
    nonzero entry in column order, scanning rows top to bottom.
    """
    nr, nc = len(rows), len(rows[0])
    prev = 1
    sign = 1
    pr = 0
    last = 0
    for pc in range(nc):
        if pr == nr:
            break
        piv = None
        for r in range(pr, nr):
            if rows[r][pc] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != pr:
            rows[pr], rows[piv] = rows[piv], rows[pr]
            sign = -sign
        for r in range(pr + 1, nr):
            for c in range(pc + 1, nc):
                rows[r][c] = (rows[r][c] * rows[pr][pc] - rows[r][pc] * rows[pr][c]) // prev
            rows[r][pc] = 0
        prev = rows[pr][pc]
        last = prev
        pr += 1
    return pr, sign, last


def rank(m: Matrix) -> int:
    rows, _ = _cleared_int_rows(m)
    count, _, _ = _bareiss(rows)
    return count


def det(m: Matrix) -> Fraction:
    if not m.is_square:
        raise DimensionMismatch("determinant of a non-square matrix")
    rows, scale = _cleared_int_rows(m)
    count, sign, last = _bareiss(rows)
    if count < m.rows:
        return Fraction(0)
    return Fraction(sign * last, scale)


def rref(m: Matrix):
    """Reduced row echelon form. Returns (Matrix, pivot column indices)."""
    rows = [list(r) for r in m.entries]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        if pr == len(rows):
            break
        piv = None
        for r in range(pr, len(rows)):
            if rows[r][pc] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = Fraction(1) / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
    return Matrix(rows), tuple(pivots)


def kernel_basis(m: Matrix) -> tuple:
    """Basis of the right null space, one vector per free column.

    Vectors come from the reduced echelon form: free columns in ascending
    index order, the free coordinate set to 1. Empty tuple for injective m.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[free] = Fraction(1)
        for row_index, pc in enumerate(pivots):
            v[pc] = -reduced.entries[row_index][free]
        basis.append(tuple(v))
    return tuple(basis)


def invert(m: Matrix) -> Matrix:
    if not m.is_square:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = Matrix([list(m.entries[i]) + [1 if j == i else 0 for j in range(n)]
                  for i in range(n)])
    reduced, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix([row[n:] for row in reduced.entries])


def solve(m: Matrix, b: Sequence):
    """One solution of m x = b with free variables set to 0, or None."""
    bvec = [rat(x) for x in b]
    if len(bvec) != m.rows:
        raise DimensionMismatch("right-hand side length mismatch")
    aug = Matrix([list(m.entries[i]) + [bvec[i]] for i in range(m.rows)])
    reduced, pivots = rref(aug)
    if m.cols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [Fraction(0)] * m.cols
    for row_index, pc in enumerate(pivots):
        x[pc] = reduced.entries[row_index][m.cols]
    return tuple(x)


def _is_prime(m: int) -> bool:
    """Miller-Rabin with a witness set that is exact far past 2**64."""
    if m < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho_split(m: int) -> int:
    """Nontrivial factor of an odd composite m, by Pollard's rho."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = math.gcd(abs(x - y), m)
        if d != m:
            return d
        c += 1


def factorize(m: int):
    """Prime factorization: trial division for small factors, then
    Miller-Rabin plus Pollard's rho for whatever is left."""
    if m <= 0:
        raise ValueError("factorize needs a positive integer")
    out = {}
    for p in (2, 3):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    q = 5
    while q * q <= m and q < 10000:
        for p in (q, q + 2):
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        q += 6
    if m == 1:
        return out
    if q * q > m:
        out[m] = out.get(m, 0) + 1
        return out
    stack = [m]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if _is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        split = _rho_split(v)
        stack.append(split)
        stack.append(v // split)
    return out


def squarefree_part(x) -> int:
    """Squarefree integer representing x modulo nonzero rational squares."""
    q = rat(x)
    if q == 0:
        return 0
    m = abs(q.numerator * q.denominator)
    sf = 1
    for p, e in factorize(m).items():
        if e % 2:
            sf *= p
    return sf if q > 0 else -sf


def rational_sqrt(x) -> Optional[Fraction]:
    """Nonnegative rational square root, or None."""
    q = rat(x)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def iroot(m: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by integer Newton
    steps (math.isqrt for square roots); exact at any size."""
    if m < 0 or k < 1:
        raise ValueError("iroot needs m >= 0 and k >= 1")
    if k == 1 or m < 2:
        return m
    if k == 2:
        return math.isqrt(m)
    x = 1 << -(-m.bit_length() // k)  # above the root
    while True:
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def rational_cbrt(x) -> Optional[Fraction]:
    """Rational cube root (sign preserved), or None."""
    q = rat(x)
    rn = iroot(abs(q.numerator), 3)
    rd = iroot(q.denominator, 3)
    if rn ** 3 != abs(q.numerator) or rd ** 3 != q.denominator:
        return None
    return Fraction(-rn if q < 0 else rn, rd)


def ascending_pairs(d: int):
    """Index pairs (i, j), i < j, in lexicographic order. 0-based."""
    return list(combinations(range(d), 2))


def minor_det(m: Matrix, drop_rows, drop_cols) -> Fraction:
    """Determinant of m with the given rows and columns removed,
    remaining order preserved."""
    dr, dc = set(drop_rows), set(drop_cols)
    keep_r = [i for i in range(m.rows) if i not in dr]
    keep_c = [j for j in range(m.cols) if j not in dc]
    if len(keep_r) != len(keep_c):
        raise DimensionMismatch("minor is not square")
    return det(Matrix([[m.entries[i][j] for j in keep_c] for i in keep_r]))


def compound_star(t: Matrix, n: int) -> Matrix:
    """Second adjugate-compound of a (n+2) x (n+2) matrix.

    Rows and columns are indexed by ascending index pairs in lexicographic
    order; the entry at row pair (i, j), column pair (k, l) is the
    determinant of t with rows i, j and columns k, l deleted (order
    preserved, no sign adjustment). This is exactly the matrix that
    transports bracket structure matrices between bases; see the transform
    module and its dual-path tests for the convention.
    """
    d = n + 2
    if t.rows != d or t.cols != d:
        raise DimensionMismatch(
            f"compound_star needs a {d}x{d} matrix for arity {n}, got {t.rows}x{t.cols}")
    pairs = ascending_pairs(d)
    return Matrix([[minor_det(t, pr, pc) for pc in pairs] for pr in pairs])
