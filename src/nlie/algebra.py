"""n-Lie algebras given by structure constants over Q.

An algebra of arity n and dimension d is stored as a map from ascending
n-combinations of basis indices (0-based) to coefficient vectors of length
d: the combination (i1 < ... < in) maps to the coordinates of the bracket
of those basis vectors. Missing combinations mean the bracket is zero.

The generalized Jacobi identity checked here is the derivation property:
the bracket of n-1 fixed arguments acts as a derivation of the n-ary
bracket. Multilinearity and total antisymmetry reduce the check to basis
tuples with strictly ascending indices; repeated-index tuples vanish
identically on both sides (a randomized full-tuple cross-check of this
reduction lives in the tests).

The two hot loops, check_jacobi and table_in_basis, run on integers.
Both sides of the identity are quadratic in the structure constants, so
multiplying the table by the lcm L of its denominators multiplies every
residual by L**2: the scaled table violates the identity at exactly the
same places, and dividing its residuals by L**2 gives the exact ones.
table_in_basis clears the basis matrix and its inverse the same way and
sums integer (Bareiss) minors; each result entry becomes one Fraction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from .errors import DimensionMismatch, InvalidAlgebra
from .exactlin import (Matrix, _bareiss, clear_rows, det, invert,
                       kernel_basis, rank, rat, rref)

Vector = Tuple[Fraction, ...]


def zero_vec(d: int) -> Vector:
    return tuple([Fraction(0)] * d)


def unit_vec(d: int, i: int) -> Vector:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(d))


def scale_vec(c, a: Sequence) -> Vector:
    c = rat(c)
    return tuple(c * x for x in a)


def sort_with_sign(indices: Sequence[int]):
    """Sort indices ascending, tracking the permutation sign.

    Returns (sorted tuple, sign) or (None, 0) if an index repeats.
    """
    lst = list(indices)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return None, 0
    return tuple(lst), sign


class Algebra:
    """Immutable structure-constant table. Indices are 0-based internally;
    the file format and the CLI speak 1-based."""

    __slots__ = ("arity", "dim", "table")

    def __init__(self, arity: int, dim: int, table: Mapping[Tuple[int, ...], Sequence]):
        if arity < 2:
            raise InvalidAlgebra(f"arity must be at least 2, got {arity}")
        if dim < arity:
            raise InvalidAlgebra(f"dimension {dim} is below arity {arity}")
        clean = {}
        for combo, value in table.items():
            key = tuple(combo)
            if len(key) != arity or list(key) != sorted(set(key)):
                raise InvalidAlgebra(f"combination {key} is not ascending without repeats")
            if key[0] < 0 or key[-1] >= dim:
                raise InvalidAlgebra(f"combination {key} out of range for dim {dim}")
            vec = tuple(rat(x) for x in value)
            if len(vec) != dim:
                raise InvalidAlgebra(f"value for {key} has length {len(vec)}, want {dim}")
            if any(vec):
                clean[key] = vec
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Algebra is immutable")

    @classmethod
    def abelian(cls, arity: int, dim: int) -> "Algebra":
        return cls(arity, dim, {})

    def items(self):
        return sorted(self.table.items())

    def __eq__(self, other):
        return (isinstance(other, Algebra)
                and self.arity == other.arity
                and self.dim == other.dim
                and self.table == other.table)

    def __hash__(self):
        return hash((self.arity, self.dim, tuple(self.items())))

    def __repr__(self):
        return f"Algebra(n={self.arity}, d={self.dim}, brackets={len(self.table)})"

    def bracket_on_basis(self, indices: Sequence[int]) -> Vector:
        """Bracket of basis vectors in any order; 0 on a repeated index."""
        key, sign = sort_with_sign(indices)
        if key is None:
            return zero_vec(self.dim)
        value = self.table.get(key)
        if value is None:
            return zero_vec(self.dim)
        return value if sign == 1 else scale_vec(-1, value)


def bracket_eval(a: Algebra, vectors: Sequence[Sequence]) -> Vector:
    """Bracket of n coordinate vectors, by minors against the table.

    Expanding each argument over the basis and collecting antisymmetry
    turns the bracket into a sum over ascending combinations S of
    det(rows S of the argument matrix) times the table value at S, so the
    cost scales with the number of nonzero table entries rather than d^n.
    """
    if len(vectors) != a.arity:
        raise DimensionMismatch(f"bracket needs {a.arity} arguments, got {len(vectors)}")
    coords = [tuple(rat(x) for x in v) for v in vectors]
    for v in coords:
        if len(v) != a.dim:
            raise DimensionMismatch("argument has wrong length")
    out = list(zero_vec(a.dim))
    for combo, value in a.table.items():
        sub = Matrix([[coords[j][i] for j in range(a.arity)] for i in combo])
        c = det(sub)
        if c:
            for k in range(a.dim):
                if value[k]:
                    out[k] += c * value[k]
    return tuple(out)


def _bracket_insert(a: Algebra, vector: Vector, slots: Sequence[int], position: int) -> Vector:
    """Bracket with basis vectors in the given slots and `vector` inserted
    at `position`. Linear expansion over the vector's coordinates."""
    out = list(zero_vec(a.dim))
    idx = list(slots)
    idx.insert(position, -1)
    for k, coeff in enumerate(vector):
        if not coeff:
            continue
        idx[position] = k
        term = a.bracket_on_basis(idx)
        for r in range(a.dim):
            if term[r]:
                out[r] += coeff * term[r]
    return tuple(out)


@dataclass(frozen=True)
class Violation:
    x_combo: Tuple[int, ...]
    y_tuple: Tuple[int, ...]
    residual: Vector


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    violations: Tuple[Violation, ...]


def _int_table(a: Algebra):
    """The table times L, the lcm of all its denominators, as int lists."""
    rows, scale = clear_rows(a.table.values(), a.dim)
    return dict(zip(a.table, rows)), scale


def _ad_columns(ints, y: Tuple[int, ...], d: int):
    """Columns [e_k, y] of ad_y for an ascending tuple y, read off an
    integer table; None marks a zero column."""
    cols = []
    for k in range(d):
        p = bisect_left(y, k)
        value = None
        if p == len(y) or y[p] != k:
            value = ints.get(y[:p] + (k,) + y[p:])
        if value is not None and p % 2:
            value = [-v for v in value]
        cols.append(value)
    return cols


def _apply_columns(cols, vec, d: int):
    """Sum of vec[k] times column k, on integers."""
    out = [0] * d
    for c, col in zip(vec, cols):
        if c and col is not None:
            out = [o + c * v for o, v in zip(out, col)]
    return out


def check_jacobi(a: Algebra) -> JacobiReport:
    """Check the derivation identity on every (x-combination, y-tuple) pair.

    x runs over all ascending n-combinations, y over ascending (n-1)-tuples.
    Returns the complete list of violated pairs with residual vectors.

    Runs on the integer table L*a (see the module docstring).  With
    ad_y = [., y] and [x] the bracket of the basis vectors in x, the
    residual at (x, y) is ad_y([x]) minus the sum over i of
    (-1)**i ad_(x without x_i)(ad_y e_(x_i)); each ad_y is read off the
    table once, and every residual of the scaled table is L**2 times the
    true one.
    """
    n, d = a.arity, a.dim
    ints, scale = _int_table(a)
    square = scale * scale
    y_tuples = list(combinations(range(d), n - 1))
    ad = {y: _ad_columns(ints, y, d) for y in y_tuples}
    bad = []
    for x in combinations(range(d), n):
        inner = ints.get(x)
        outer = [(x[i], -1 if i % 2 else 1, ad[x[:i] + x[i + 1:]])
                 for i in range(n)]
        for y in y_tuples:
            ad_y = ad[y]
            residual = _apply_columns(ad_y, inner, d) if inner else [0] * d
            for xi, sign, ad_rest in outer:
                step = ad_y[xi]
                if step is None:
                    continue
                term = _apply_columns(ad_rest, step, d)
                if sign > 0:
                    residual = [p - q for p, q in zip(residual, term)]
                else:
                    residual = [p + q for p, q in zip(residual, term)]
            if any(residual):
                bad.append(Violation(x, y, tuple(Fraction(r, square)
                                                  for r in residual)))
    return JacobiReport(ok=not bad, violations=tuple(bad))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^ambient held as reduced-echelon basis rows."""

    ambient: int
    basis: Tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [tuple(rat(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise DimensionMismatch("vector length does not match ambient dim")
        if not vecs:
            return cls(ambient, ())
        reduced, pivots = rref(Matrix(vecs))
        rows = tuple(tuple(reduced.entries[i]) for i in range(len(pivots)))
        return cls(ambient, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        v = tuple(rat(x) for x in vector)
        if not any(v):
            return True
        if not self.basis:
            return False
        stacked = Matrix(list(self.basis) + [list(v)])
        return rank(stacked) == self.dim

    def annihilator_rows(self) -> Tuple[Vector, ...]:
        """Covectors cutting out this subspace (w with w . x = 0 on it)."""
        if not self.basis:
            return tuple(unit_vec(self.ambient, i) for i in range(self.ambient))
        return kernel_basis(Matrix(list(self.basis)))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        constraints = list(self.annihilator_rows()) + list(other.annihilator_rows())
        if not constraints:
            return Subspace.from_vectors(
                self.ambient, [unit_vec(self.ambient, i) for i in range(self.ambient)])
        sol = kernel_basis(Matrix(constraints))
        return Subspace.from_vectors(self.ambient, sol)

    def plus(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.ambient, list(self.basis) + list(other.basis))


def derived_subalgebra(a: Algebra) -> Subspace:
    """Span of all bracket values."""
    return Subspace.from_vectors(a.dim, list(a.table.values()))


def center(a: Algebra) -> Subspace:
    """Elements whose bracket with everything vanishes.

    By antisymmetry it is enough to test the element in the first slot
    against ascending basis (n-1)-tuples.
    """
    n, d = a.arity, a.dim
    rows = []
    for y in combinations(range(d), n - 1):
        cols = [a.bracket_on_basis((k,) + y) for k in range(d)]
        for r in range(d):
            row = [cols[k][r] for k in range(d)]
            if any(row):
                rows.append(row)
    if not rows:
        return Subspace.from_vectors(d, [unit_vec(d, i) for i in range(d)])
    return Subspace.from_vectors(d, kernel_basis(Matrix(rows)))


@dataclass(frozen=True)
class DerivationSpace:
    """Solution space of the derivation equations, as d x d matrices."""

    dim_algebra: int
    basis: Tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def derivation_algebra(a: Algebra) -> DerivationSpace:
    """All D with D[x1..xn] = sum_i [x1, .., D(xi), .., xn].

    Unknowns are the d^2 entries of D (row-major); one linear equation per
    output coordinate of each ascending n-combination.
    """
    n, d = a.arity, a.dim
    nvars = d * d
    rows = []
    for combo in combinations(range(d), n):
        value = a.table.get(combo, zero_vec(d))
        # one equation vector per output coordinate r; D(value) contributes
        # D[r][c] * value[c], the slot-replacement terms subtract
        eq = [[Fraction(0)] * nvars for _ in range(d)]
        for c in range(d):
            if value[c]:
                for r in range(d):
                    eq[r][r * d + c] += value[c]
        for i in range(n):
            others = combo[:i] + combo[i + 1:]
            for k in range(d):
                term = a.bracket_on_basis(combo[:i] + (k,) + combo[i + 1:])
                if not any(term):
                    continue
                for r in range(d):
                    if term[r]:
                        eq[r][k * d + combo[i]] -= term[r]
        for r in range(d):
            if any(eq[r]):
                rows.append(eq[r])
    if not rows:
        basis_vectors = [unit_vec(nvars, i) for i in range(nvars)]
    else:
        basis_vectors = list(kernel_basis(Matrix(rows)))
    mats = tuple(Matrix([v[r * d:(r + 1) * d] for r in range(d)]) for v in basis_vectors)
    return DerivationSpace(dim_algebra=d, basis=mats)


def check_derivation(a: Algebra, mat: Matrix) -> bool:
    """Direct check of the derivation property, independent of the solver."""
    n, d = a.arity, a.dim
    if mat.rows != d or mat.cols != d:
        raise DimensionMismatch("derivation matrix has wrong shape")
    for combo in combinations(range(d), n):
        value = a.table.get(combo, zero_vec(d))
        lhs = mat.apply(value)
        rhs = list(zero_vec(d))
        for i in range(n):
            image = mat.column(combo[i])
            term = _bracket_insert(a, tuple(image), combo[:i] + combo[i + 1:], i)
            rhs = [p + q for p, q in zip(rhs, term)]
        if tuple(lhs) != tuple(rhs):
            return False
    return True


def ad_map(a: Algebra, fixed: Sequence[Sequence]) -> Matrix:
    """Matrix of x -> [x, f1, .., f_{n-1}] for fixed coordinate vectors."""
    if len(fixed) != a.arity - 1:
        raise DimensionMismatch("ad needs n-1 fixed arguments")
    cols = []
    for k in range(a.dim):
        cols.append(bracket_eval(a, [unit_vec(a.dim, k)] + [tuple(f) for f in fixed]))
    return Matrix.from_columns(cols)


def _int_minor(rows, pick_rows, pick_cols) -> int:
    """Determinant of an integer submatrix, by Bareiss elimination."""
    sub = [[rows[i][j] for j in pick_cols] for i in pick_rows]
    count, sign, last = _bareiss(sub)
    return sign * last if count == len(sub) else 0


def table_in_basis(a: Algebra, t: Matrix, t_inverse: Optional[Matrix] = None) -> Algebra:
    """The same algebra written in the basis given by the columns of t.

    The bracket of columns C of t is the sum over table keys S of
    det(t[S, C]) times the value at S (as in bracket_eval); the sum runs on
    integers, with t, its inverse and the table each cleared of
    denominators once, and one Fraction is built per output entry.
    """
    if t.rows != a.dim or t.cols != a.dim:
        raise DimensionMismatch("basis matrix has wrong shape")
    n, d = a.arity, a.dim
    tinv = t_inverse if t_inverse is not None else invert(t)
    t_rows, t_scale = clear_rows(t.entries, d)
    inv_rows, inv_scale = clear_rows(tinv.entries, d)
    ints, scale = _int_table(a)
    denominator = scale * inv_scale * t_scale ** n
    new_table = {}
    for combo in combinations(range(d), n):
        value = [0] * d
        for key, entry in ints.items():
            minor = _int_minor(t_rows, key, combo)
            if minor:
                value = [v + minor * e for v, e in zip(value, entry)]
        if any(value):
            new_table[combo] = tuple(
                Fraction(sum(m * v for m, v in zip(row, value)), denominator)
                for row in inv_rows)
    return Algebra(n, d, new_table)


@dataclass(frozen=True)
class InvariantSignature:
    """Basis-independent dimension counts; equal for isomorphic algebras.

    central_summand_dim is the size of the largest abelian direct summand,
    which is dim Z minus dim (Z intersect derived): central directions
    inside the derived algebra can never split off.
    """

    arity: int
    dim: int
    dim_derived: int
    dim_center: int
    dim_center_in_derived: int
    dim_der_algebra: int
    central_summand_dim: int

    def as_tuple(self):
        return (self.arity, self.dim, self.dim_derived, self.dim_center,
                self.dim_center_in_derived, self.dim_der_algebra,
                self.central_summand_dim)


def invariant_signature(a: Algebra) -> InvariantSignature:
    """Signature of a Jacobi-valid algebra (validity is assumed, not checked)."""
    a1 = derived_subalgebra(a)
    z = center(a)
    inside = z.intersect(a1)
    return InvariantSignature(
        arity=a.arity,
        dim=a.dim,
        dim_derived=a1.dim,
        dim_center=z.dim,
        dim_center_in_derived=inside.dim,
        dim_der_algebra=derivation_algebra(a).dim,
        central_summand_dim=z.dim - inside.dim,
    )


def strip_central_summand(a: Algebra):
    """Split off a maximal central direct summand.

    Returns (core, central_dim, change): `change` is a basis matrix whose
    first columns span the core and whose last `central_dim` columns are
    central directions complementary to center ∩ derived. In that basis the
    algebra is core ⊕ (abelian of dim central_dim). The core always keeps at
    least n dimensions so it remains a valid algebra; for very degenerate
    inputs (e.g. abelian) some central directions therefore stay inside it.
    """
    d = a.dim
    z = center(a)
    a1 = derived_subalgebra(a)
    inside = z.intersect(a1)
    # central directions that can split off: extend `inside` to all of z
    split = []
    current = list(inside.basis)
    for v in z.basis:
        if not Subspace.from_vectors(d, current).contains(v):
            current.append(v)
            split.append(v)
    max_strip = d - a.arity
    if len(split) > max_strip:
        split = split[:max_strip]
    # core: a complement of the split directions containing the derived algebra
    core_cols = []
    span_so_far = list(split)
    for v in list(a1.basis) + [unit_vec(d, i) for i in range(d)]:
        if not Subspace.from_vectors(d, span_so_far).contains(v):
            span_so_far.append(v)
            core_cols.append(v)
    change = Matrix.from_columns(core_cols + split)
    rebased = table_in_basis(a, change)
    core_dim = len(core_cols)
    core_table = {}
    for combo, value in rebased.table.items():
        if combo[-1] >= core_dim or any(value[core_dim:]):
            raise InvalidAlgebra("central split failed; input table inconsistent")
        core_table[combo] = value[:core_dim]
    core = Algebra(a.arity, core_dim, core_table)
    return core, len(split), change
