"""Decide which catalog family an algebra belongs to, and exhibit the move.

Entry points: ``classify`` dispatches on dimension, ``classify_np1`` handles
dimension n+1, ``classify_np2`` dimension n+2.  The result is a `Verdict`:

* ``exact``       -- the family, its parameters, and an invertible matrix
                     carrying the input onto the canonical multiplication
                     table (columns of the witness express the canonical
                     basis in input coordinates).
* ``family_only`` -- the family is determined, but the remaining
                     normalization needs a root that does not exist over
                     the rationals (or falls outside the bounded search),
                     so no rational witness is produced.
* ``unresolved``  -- the structure matches none of the catalog families,
                     or an internal reduction hit a shape this code does
                     not handle.  ``candidates`` lists families that share
                     the input's coarse invariants.

The strategy is the same in every branch: change basis step by step until
the multiplication table literally equals the canonical one, recording
each step.  All arithmetic is exact, so the final table comparison is a
strict equality and the witness is verified before it is returned.  A
construction that finishes but lands on a different table downgrades to
``unresolved`` rather than guessing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .algebra import (
    Algebra,
    Subspace,
    bracket_eval,
    center,
    check_jacobi,
    derived_subalgebra,
    scale_vec,
    strip_central_summand,
    table_in_basis,
    unit_vec,
)
from .catalog import ClassLabel, canonical, d7_canonical_triple, np1_labels, np2_labels
from .errors import (
    ArityBoundViolated,
    DimensionMismatch,
    InvalidAlgebra,
    NlieError,
    UnsupportedArity,
)
from .exactlin import (
    Matrix,
    clear_denominators,
    clear_rows,
    det,
    factorize,
    invert,
    kernel_basis,
    rank,
    rational_cbrt,
    rational_root,
    rational_sqrt,
    rref,
    solve,
    squarefree_part,
    strip_square,
)
from .transform import verify_isomorphism

EXACT = "exact"
FAMILY_ONLY = "family_only"
UNRESOLVED = "unresolved"

Vector = Tuple[Fraction, ...]


@dataclass(frozen=True)
class Step:
    """One basis change: columns of `matrix` are the new basis vectors."""

    reason: str
    matrix: Matrix


@dataclass(frozen=True)
class Verdict:
    status: str
    label: Optional[ClassLabel]
    witness: Optional[Matrix]
    candidates: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()
    steps: Tuple[Step, ...] = field(default=(), repr=False)


class _Frame:
    """Basis-change accumulator: table_in_basis(original, total) == current."""

    def __init__(self, a: Algebra):
        self.current = a
        self.total = Matrix.identity(a.dim)
        self.steps: List[Step] = []

    def push(self, t: Matrix, reason: str) -> None:
        inv = invert(t)
        self.current = table_in_basis(self.current, t, inv)
        self.total = self.total @ t
        self.steps.append(Step(reason, t))


# ---------------------------------------------------------------------------
# small vector helpers


def _rank_of(vectors: Sequence[Sequence]) -> int:
    rows = [row for row in vectors if any(row)]
    if not rows:
        return 0
    return rank(Matrix(rows))


def _completion_units(vectors: Sequence[Sequence], dim: int) -> List[Vector]:
    """Unit vectors (lowest index first) extending span(vectors) to Q^dim."""
    rows = [tuple(v) for v in vectors if any(v)]
    have = _rank_of(rows)
    out: List[Vector] = []
    for i in range(dim):
        if have == dim:
            break
        e = unit_vec(dim, i)
        if _rank_of(rows + [e]) > have:
            rows.append(e)
            have += 1
            out.append(e)
    return out


def _embed(local: Sequence, dim: int, offset: int) -> Vector:
    """Place a short coordinate vector at `offset` inside a zero d-vector."""
    v = [Fraction(0)] * dim
    for i, x in enumerate(local):
        v[offset + i] = Fraction(x)
    return tuple(v)


def _block_at(inner: Matrix, dim: int, offset: int = 0) -> Matrix:
    """Identity matrix with `inner` pasted on the diagonal at `offset`."""
    rows = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)]
    for i in range(inner.rows):
        for j in range(inner.cols):
            rows[offset + i][offset + j] = inner.row(i)[j]
    return Matrix(rows)


def _scale_coord(dim: int, index: int, factor: Fraction) -> Matrix:
    vals = [Fraction(1)] * dim
    vals[index] = Fraction(factor)
    return Matrix.diagonal(vals)


def _is_zero_matrix(m: Matrix) -> bool:
    return all(not any(m.row(i)) for i in range(m.rows))


def _vec_of(m: Matrix) -> Vector:
    return tuple(x for i in range(m.rows) for x in m.row(i))


# ---------------------------------------------------------------------------
# verdict plumbing


def _cheap_signature(a: Algebra) -> tuple:
    der = derived_subalgebra(a)
    z = center(a)
    meet = z.intersect(der)
    return (a.arity, a.dim, der.dim, z.dim, meet.dim, z.dim - meet.dim)


@lru_cache(maxsize=None)
def _signature_index(n: int, codim: int):
    labels = np1_labels(n) if codim == 1 else np2_labels(n)
    index = {}
    for lab in labels:
        sig = _cheap_signature(canonical(n, lab))
        index.setdefault(sig, set()).add(lab.family)
    return {sig: tuple(sorted(fams)) for sig, fams in index.items()}


def _unresolved(a: Algebra, notes: Tuple[str, ...],
                steps: Sequence[Step] = ()) -> Verdict:
    table = _signature_index(a.arity, a.dim - a.arity)
    cands = table.get(_cheap_signature(a), ())
    return Verdict(UNRESOLVED, None, None, candidates=cands, notes=tuple(notes),
                   steps=tuple(steps))


def _exact(a: Algebra, frame: _Frame, label: ClassLabel, n: int) -> Verdict:
    canon = canonical(n, label)
    if frame.current != canon:
        return _unresolved(a, (f"construction for {label} finished on a "
                               "different table",), frame.steps)
    if _cheap_signature(a) != _cheap_signature(canon):
        return _unresolved(a, (f"coarse invariants disagree with {label}",),
                           frame.steps)
    witness = invert(frame.total)
    if not verify_isomorphism(a, canon, witness):
        raise NlieError(f"witness verification failed for {label}; "
                        "this is a bug in the classifier")
    return Verdict(EXACT, label, witness, steps=tuple(frame.steps))


def _family_only(a: Algebra, frame: _Frame, label: ClassLabel, n: int,
                 notes: Tuple[str, ...]) -> Verdict:
    canon = canonical(n, label)
    if _cheap_signature(a) != _cheap_signature(canon):
        return _unresolved(a, (f"coarse invariants disagree with {label}",),
                           frame.steps)
    return Verdict(FAMILY_ONLY, label, None, notes=tuple(notes),
                   steps=tuple(frame.steps))


def _validate(a: Algebra, codim: int) -> None:
    if a.arity < 3:
        raise UnsupportedArity(
            f"classification needs arity at least 3, got {a.arity}")
    want = a.arity + codim
    if a.dim != want:
        raise DimensionMismatch(
            f"expected dimension {want} for arity {a.arity}, got {a.dim}")
    report = check_jacobi(a)
    if not report.ok:
        raise InvalidAlgebra(
            f"the bracket violates the derivation identity in "
            f"{len(report.violations)} place(s)")


# ---------------------------------------------------------------------------
# dimension n+1


def _codim(a: Algebra) -> int:
    if a.arity < 3:
        raise UnsupportedArity(
            f"classification needs arity at least 3, got {a.arity}")
    codim = a.dim - a.arity
    if codim not in (1, 2):
        raise DimensionMismatch(
            f"classification covers dimensions n+1 and n+2; "
            f"got dimension {a.dim} at arity {a.arity}")
    return codim


def classify(a: Algebra) -> Verdict:
    """Route to the classifier matching the algebra's dimension."""
    if _codim(a) == 1:
        return classify_np1(a)
    return classify_np2(a)


def _classify_valid(a: Algebra) -> Verdict:
    """classify for a table known to satisfy the derivation identity: the
    caller has checked it, or built the table from a checked one (a direct
    summand's core, a quotient by a central ideal).  Shape errors still
    raise as in classify."""
    if _codim(a) == 1:
        return _classify_np1(a)
    return _classify_np2(a)


def classify_np1(a: Algebra) -> Verdict:
    """Classify an algebra of dimension one above its arity."""
    _validate(a, 1)
    return _classify_np1(a)


def _classify_np1(a: Algebra) -> Verdict:
    der = derived_subalgebra(a)
    frame = _Frame(a)
    if der.dim == 0:
        return _exact(a, frame, ClassLabel("A_ab"), a.arity)
    if der.dim == 1:
        return _np1_rank1(a, frame, der)
    if der.dim == 2:
        return _np1_rank2(a, frame, der)
    return _np1_rank_high(a, frame, der)


def _np1_rank1(a: Algebra, frame: _Frame, der: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    v = der.basis[0]
    z = center(a)
    if z.dim == 0:
        return _unresolved(a, ("derived line but trivial center; "
                               "no family matches",))
    if z.contains(v):
        units = _completion_units([v], d)
        frame.push(Matrix.from_columns([v] + units),
                   "adapt: derived line first, unit completion")
        return _scale_to_product(a, frame, tuple(range(1, d)), ClassLabel("B1"))
    zv = z.basis[0]
    units = _completion_units([v, zv], d)
    frame.push(Matrix.from_columns([v] + units + [zv]),
               "adapt: derived line, completion, central direction last")
    return _scale_to_product(a, frame, tuple(range(0, n)), ClassLabel("B2"))


def _scale_to_product(a: Algebra, frame: _Frame, combo: Tuple[int, ...],
                      label: ClassLabel) -> Verdict:
    """Scale the second basis vector so the bracket on `combo` equals the
    first basis vector."""
    kappa = frame.current.bracket_on_basis(combo)[0]
    if kappa == 0:
        return _unresolved(a, ("completion bracket vanished",), frame.steps)
    frame.push(_scale_coord(a.dim, 1, 1 / kappa),
               "scale a completion vector to normalize the product")
    return _exact(a, frame, label, a.arity)


def _plane_cyclic(k: Matrix) -> Optional[Tuple[Vector, Vector]]:
    """A vector v with (v, Kv) a basis of the plane; None when K is scalar."""
    for v in ((1, 0), (0, 1), (1, 1)):
        w = k.apply(v)
        if v[0] * w[1] - v[1] * w[0] != 0:
            return tuple(Fraction(x) for x in v), w
    return None


def _np1_rank2(a: Algebra, frame: _Frame, der: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    units = _completion_units(list(der.basis), d)
    frame.push(Matrix.from_columns(list(der.basis) + units),
               "adapt: derived plane first")
    cur = frame.current
    if any(0 in key and 1 in key for key in cur.table):
        return _unresolved(a, ("a bracket keeps two derived arguments "
                               "after adaptation",), frame.steps)
    tail = tuple(range(2, d))
    col1 = cur.bracket_on_basis((0,) + tail)
    col2 = cur.bracket_on_basis((1,) + tail)
    if any(col1[2:]) or any(col2[2:]):
        return _unresolved(a, ("products leave the derived plane",), frame.steps)
    ell = Matrix([[col1[0], col2[0]], [col1[1], col2[1]]])
    dt = det(ell)
    if dt == 0:
        return _unresolved(a, ("the plane map is singular",), frame.steps)
    off_zero = ell.row(0)[1] == 0 and ell.row(1)[0] == 0
    if off_zero and ell.row(0)[0] == ell.row(1)[1]:
        frame.push(_scale_coord(d, 2, 1 / ell.row(0)[0]),
                   "scale a transversal vector so the plane map is the identity")
        return _exact(a, frame, ClassLabel("C3"), n)
    tr = ell.row(0)[0] + ell.row(1)[1]
    if tr == 0:
        c = rational_sqrt(-dt)
        if c is None:
            return _family_only(
                a, frame, ClassLabel("C1"), n,
                ("the trace-free plane map squares to a non-square multiple "
                 "of the identity, so no rational normalization exists",))
        pair = _plane_cyclic((1 / c) * ell)
        if pair is None:
            return _unresolved(a, ("plane map is scalar in the trace-free "
                                   "branch",), frame.steps)
        v, w = pair
        frame.push(_block_at(Matrix.from_columns([v, w]), d),
                   "derived frame: vector and its image under the involution")
        frame.push(_scale_coord(d, 2, 1 / c),
                   "scale a transversal vector to normalize the involution")
        return _exact(a, frame, ClassLabel("C1"), n)
    alpha = -dt / tr ** 2
    pair = _plane_cyclic((1 / tr) * ell)
    if pair is None:
        return _unresolved(a, ("plane map is scalar off the scalar branch",),
                           frame.steps)
    v, w = pair
    frame.push(_block_at(Matrix.from_columns([v, w]), d),
               "derived frame: cyclic vector and its image")
    frame.push(_scale_coord(d, 2, 1 / tr),
               "scale a transversal vector to normalize the trace")
    return _exact(a, frame, ClassLabel("C2", alpha=alpha), n)


def _np1_form_matrix(a: Algebra) -> Matrix:
    """Columns are the signed brackets each omitting one basis vector."""
    n, d = a.arity, a.dim
    cols = []
    for j in range(d):
        combo = tuple(i for i in range(d) if i != j)
        val = a.bracket_on_basis(combo)
        cols.append(scale_vec((-1) ** (n + j), val))
    return Matrix.from_columns(cols)


def _grid(length: int, top: int):
    """Nonzero integer vectors, first nonzero entry positive, by sup-norm."""
    for bound in range(1, top + 1):
        for tup in itertools.product(range(-bound, bound + 1), repeat=length):
            if max(abs(x) for x in tup) != bound:
                continue
            lead = next((x for x in tup if x), 0)
            if lead > 0:
                yield tup


def _mod_sqrt(a: int, p: int) -> Optional[int]:
    """Square root of a modulo a prime p, or None for a non-residue."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, root = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, sq = 0, t
        while sq != 1:
            sq = sq * sq % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, root = t * c % p, root * b % p
    return root


def _sqrt_mod_squarefree(a: int, m: int) -> Optional[int]:
    """Square root of a modulo squarefree m, by CRT over the primes of m."""
    residue, modulus = 0, 1
    for p in factorize(m) if m > 1 else ():
        rp = _mod_sqrt(a, p)
        if rp is None:
            return None
        residue += modulus * ((rp - residue) * pow(modulus % p, -1, p) % p)
        modulus *= p
    return residue


def _norm_descent(a: int, b: int, depth: int = 0) -> Optional[Tuple[int, int, int]]:
    """Nontrivial integer solution of x**2 == a*y**2 + b*z**2, or None.

    a and b are squarefree and nonzero.  Lagrange's method: a square root
    t of a mod b gives t**2 - a == b * b1 * m**2 with b1 smaller than b;
    recurse on (a, b1) and pull the solution back through the norm
    identity (t**2 - a is a norm from Q(sqrt(a))).  A missing modular
    square root proves there is no solution.
    """
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if depth > 64:
        return None
    if abs(a) > abs(b):
        sol = _norm_descent(b, a, depth + 1)
        return (sol[0], sol[2], sol[1]) if sol else None
    if b == -1:
        return None
    t = _sqrt_mod_squarefree(a % abs(b), abs(b))
    if t is None:
        return None
    if 2 * t > abs(b):
        t -= abs(b)
    quo = (t * t - a) // b
    if quo == 0:
        return None
    b1, m = strip_square(quo)
    sol = _norm_descent(a, b1, depth + 1)
    if sol is None:
        return None
    x1, y1, z1 = sol
    if z1 == 0:
        return x1, y1, 0
    den = m * b1 * z1
    return _primitive((Fraction(t * x1 - a * y1, den),
                       Fraction(x1 - t * y1, den), Fraction(1)))


def _ternary_zero(aq: Fraction, bq: Fraction,
                  cq: Fraction) -> Optional[Tuple[Fraction, ...]]:
    """Nontrivial rational zero of a*x**2 + b*y**2 + c*z**2, or None.

    The coefficient reductions are equivalences and the descent detects
    insolubility, so None means no rational zero exists.
    """
    vals, _ = clear_denominators((aq, bq, cq))
    mult = [Fraction(1)] * 3
    for i in range(3):
        stripped, root = strip_square(vals[i])
        vals[i] = stripped
        mult[i] /= root
    shared = gcd(gcd(abs(vals[0]), abs(vals[1])), abs(vals[2]))
    for p in factorize(shared) if shared > 1 else ():
        vals = [v // p for v in vals]
    while True:
        pair = next(((i, j) for i, j in ((0, 1), (0, 2), (1, 2))
                     if gcd(abs(vals[i]), abs(vals[j])) > 1), None)
        if pair is None:
            break
        i, j = pair
        k = 3 - i - j
        p = min(factorize(gcd(abs(vals[i]), abs(vals[j]))))
        vals[i] //= p
        vals[j] //= p
        vals[k] *= p
        mult[k] *= p
    if all(v > 0 for v in vals) or all(v < 0 for v in vals):
        return None
    a, b, c = vals
    sol = _norm_descent(-a * c, -b * c)
    if sol is None:
        return None
    x, y, z = sol
    out = (mult[0] * y, mult[1] * z, mult[2] * Fraction(x, c))
    if aq * out[0] ** 2 + bq * out[1] ** 2 + cq * out[2] ** 2 != 0:
        raise NlieError(f"the ternary form ({aq}, {bq}, {cq}) does not vanish "
                        "at the constructed zero; this is a bug in the "
                        "classifier")
    return out


def _pair_value(g: Matrix, x: Sequence[Fraction],
                y: Sequence[Fraction]) -> Fraction:
    return sum(p * q for p, q in zip(x, g.apply(y)))


def _primitive(vec: Sequence[Fraction]) -> Vector:
    """Scale a nonzero vector to coprime integer entries.

    Keeps the numbers fed to the factoring steps small; every caller is
    free to rescale since only zero sets and square classes matter.
    """
    ints, _ = clear_denominators(vec)
    g = gcd(*ints)
    if g <= 1:
        return tuple(Fraction(x) for x in ints)
    return tuple(Fraction(x // g) for x in ints)


def _size_reduce(basis: Sequence[Vector]) -> Tuple[Vector, ...]:
    """Shorten integer basis vectors against each other, Euclidean norm.

    Purely a size heuristic (the span is unchanged): small entries keep
    the Gram values, and with them the factoring work, cheap.
    """
    vecs = [list(v) for v in basis]
    for _ in range(8):
        changed = False
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                den = sum(x * x for x in vecs[j])
                num = sum(x * y for x, y in zip(vecs[i], vecs[j]))
                k = round(Fraction(num, den)) if den else 0
                if not k:
                    continue
                new = [x - k * y for x, y in zip(vecs[i], vecs[j])]
                if sum(x * x for x in new) < sum(x * x for x in vecs[i]):
                    vecs[i] = new
                    changed = True
        if not changed:
            break
    return tuple(tuple(Fraction(x) for x in v) for v in vecs)


def _ortho_complement(g: Matrix, zs: Sequence[Vector]):
    if not zs:
        return tuple(unit_vec(g.cols, k) for k in range(g.cols))
    comp = tuple(_primitive(b)
                 for b in kernel_basis(Matrix([g.apply(z) for z in zs])))
    return _size_reduce(comp)


def _short_pivot(g: Matrix, comp: Sequence[Vector]) -> Optional[Vector]:
    """Small complement combination with minimal nonzero form value."""
    k = len(comp)
    rows, _ = clear_rows([[_pair_value(g, u, v) for v in comp]
                          for u in comp], k)
    best = None
    best_val = None
    budget = 20000
    for v in _grid(k, 3):
        budget -= 1
        if budget < 0:
            break
        total = 0
        for i in range(k):
            if v[i]:
                total += v[i] * sum(rows[i][j] * v[j] for j in range(k))
        if total and (best_val is None or abs(total) < best_val):
            best, best_val = v, abs(total)
    if best is None:
        return None
    return _primitive(tuple(sum(c * b[t] for c, b in zip(best, comp))
                            for t in range(len(comp[0]))))


def _diagonal_split(g: Matrix) -> Tuple[List[Vector], List[Fraction]]:
    """Orthogonal basis for a nonsingular symmetric form, with its values.

    Pivots are picked by a small grid search for the least absolute value;
    greedy picks let the values snowball across stages, and the sizes here
    drive all the factoring work downstream.
    """
    chosen: List[Vector] = []
    vals: List[Fraction] = []
    while len(chosen) < g.cols:
        comp = _ortho_complement(g, chosen)
        pick = _short_pivot(g, comp)
        if pick is None:
            crossing = next(((u, v) for u in comp for v in comp
                             if _pair_value(g, u, v)), None)
            if crossing is None:
                raise NlieError("degenerate block in a nonsingular form")
            pick = _primitive(tuple(x + y for x, y in zip(*crossing)))
        chosen.append(pick)
        vals.append(_pair_value(g, pick, pick))
    return chosen, vals


def _grid_isotropic(g: Matrix, top: int, budget: int) -> Optional[Vector]:
    """Scan small integer vectors for a zero of the form; None on a miss."""
    r = g.cols
    rows, _ = clear_rows(g.entries, r)
    for v in _grid(r, top):
        budget -= 1
        if budget < 0:
            return None
        total = 0
        for i in range(r):
            if v[i]:
                total += v[i] * sum(rows[i][j] * v[j] for j in range(r))
        if total == 0:
            return tuple(Fraction(x) for x in v)
    return None


def _is_definite(g: Matrix) -> bool:
    """Is the symmetric form g definite? Its leading principal minors,
    read as the pivots of one fraction-free elimination without row swaps,
    must all be positive or alternate in sign starting below zero; a zero
    pivot means g is not definite."""
    rows, _ = clear_rows(g.entries, g.cols)
    r = len(rows)
    step = -1 if rows[0][0] < 0 else 1
    want = step
    prev = 1
    for k in range(r):
        p = rows[k][k]
        if p * want <= 0:
            return False
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                rows[i][j] = (rows[i][j] * p - rows[i][k] * rows[k][j]) // prev
        prev = p
        want *= step
    return True


def _isotropic_vector(g: Matrix) -> Optional[Vector]:
    """A nonzero vector of zero length, for a nonsingular symmetric form.

    A definite form has none. Otherwise a small grid almost always has a
    hit and keeps every later number small; the diagonalize-and-descend
    route behind it is the complete answer for forms whose zeros are all
    large.
    """
    r = g.cols
    if r < 2:
        return None
    if r == 2:
        if g.entries[0][0] == 0:
            return unit_vec(2, 0)
        s = rational_sqrt(g.entries[0][1] ** 2
                          - g.entries[0][0] * g.entries[1][1])
        if s is None:
            return None
        return s - g.entries[0][1], g.entries[0][0]
    if _is_definite(g):
        return None
    hit = _grid_isotropic(g, 40, 60000)
    if hit is not None:
        return hit
    basis, vals = _diagonal_split(g)
    trios = sorted(itertools.combinations(range(r), 3),
                   key=lambda ix: abs(vals[ix[0]] * vals[ix[1]] * vals[ix[2]]))
    for i, j, k in trios:
        trio = (vals[i], vals[j], vals[k])
        if all(v > 0 for v in trio) or all(v < 0 for v in trio):
            continue
        if any(abs(v) > 10 ** 22 for v in trio):
            continue
        sol = _ternary_zero(*trio)
        if sol is None:
            continue
        return _primitive(tuple(sol[0] * basis[i][t] + sol[1] * basis[j][t]
                                + sol[2] * basis[k][t] for t in range(r)))
    return None


def _isotropic_flag(g: Matrix, k: int) -> Optional[List[Vector]]:
    """Pairwise orthogonal zero-length vectors spanning a k-dim subspace.

    One zero vector is found outright, the rest come from the quotient of
    its orthogonal complement.  Working in the quotient keeps the induced
    form at the size of g itself; hunting inside complements of completed
    hyperbolic pairs instead squares the entries at every stage and buries
    the descent under unfactorable numbers.
    """
    if k == 0:
        return []
    u = _isotropic_vector(g)
    if u is None:
        return None
    u = _primitive(u)
    if k == 1:
        return [u]
    comp = _ortho_complement(g, [u])
    coords = solve(Matrix.from_columns(comp), u)
    drop = next(i for i, c in enumerate(coords) if c)
    quot = [b for i, b in enumerate(comp) if i != drop]
    sub = Matrix([[_pair_value(g, x, y) for y in quot] for x in quot])
    rest = _isotropic_flag(sub, k - 1)
    if rest is None:
        return None
    flag = [u]
    for loc in rest:
        flag.append(_primitive(tuple(sum(c * b[t] for c, b in zip(loc, quot))
                                     for t in range(g.cols))))
    return flag


def _orthogonal_frame(g: Matrix, eps: Sequence[int],
                      lam: Fraction) -> Optional[List[Vector]]:
    """Orthogonal z_i with z_i . g . z_i == lam * eps[i], or None.

    The signs in eps alternate, so the target form is a stack of
    hyperbolic planes, plus one extra line when r is odd.  Each plane is
    spanned by one flag vector u and a dual partner w with u.g.w == 1 and
    both lengths zero; (t/2) u +- w then take the values (t, -t) exactly.
    The partners only need linear solves, so all the quadratic search
    work lives in _isotropic_flag.
    """
    r = g.cols
    k = r // 2
    for i in range(0, 2 * k, 2):
        if eps[i + 1] != -eps[i]:
            return None
    flag = _isotropic_flag(g, k)
    if flag is None:
        return None
    ws: List[Vector] = []
    for i in range(k):
        rows = [g.apply(u) for u in flag] + [g.apply(w) for w in ws]
        rhs = [Fraction(0)] * len(rows)
        rhs[i] = Fraction(1)
        x = solve(Matrix(rows), rhs)
        if x is None:
            return None
        corr = _pair_value(g, x, x) / 2
        ws.append(tuple(a - corr * b for a, b in zip(x, flag[i])))
    zs: List[Vector] = []
    for i in range(k):
        t = lam * eps[2 * i]
        zs.append(tuple(t / 2 * ux + wx for ux, wx in zip(flag[i], ws[i])))
        zs.append(tuple(-t / 2 * ux + wx for ux, wx in zip(flag[i], ws[i])))
    if r % 2:
        comp = _ortho_complement(g, zs)
        if len(comp) != 1:
            return None
        s = rational_sqrt(lam * eps[r - 1]
                          / _pair_value(g, comp[0], comp[0]))
        if s is None:
            return None
        zs.append(scale_vec(s, comp[0]))
    return zs


def _congruence_from_frame(g: Matrix, eps: Sequence[int],
                           lam: Fraction) -> Optional[Matrix]:
    ints, lcm = clear_denominators([x for row in g.entries for x in row])
    shared = gcd(*ints)
    mult = Fraction(lcm, shared) if shared else Fraction(1)
    zs = _orthogonal_frame(mult * g, eps, mult * lam)
    if zs is None:
        return None
    c = lam * invert(Matrix.from_columns(zs)).transpose()
    if c @ Matrix.diagonal(list(eps)) @ c.transpose() != lam * g:
        return None
    return c


def _congruence_factor(g: Matrix, eps: Sequence[int], n: int,
                       fix_det: bool) -> Optional[Tuple[Fraction, Matrix]]:
    """Find lam and C with C diag(eps) C^T == lam g.

    The signs in eps alternate, so diag(eps) is a stack of hyperbolic
    planes plus one line when r is odd.  Hyperbolic planes absorb any
    scaling, which settles lam: every value works for even r (take 1),
    for odd r the square class of prod(eps)*det(g) is forced, and when
    fix_det is set (the no-slack case r == n+1) lam solves the
    determinant equation and det C is corrected to equal lam by flipping
    one frame vector.  None means no rational congruence exists.
    """
    prod_eps = 1
    for e in eps:
        prod_eps *= e
    if fix_det:
        root = rational_root(Fraction(prod_eps) / det(g), n - 1)
        if root is None:
            return None
        for lam in (root, -root) if (n - 1) % 2 == 0 else (root,):
            c = _congruence_from_frame(g, eps, lam)
            if c is None:
                continue
            if det(c) != lam:
                c = Matrix.from_columns(
                    [scale_vec(-1, c.column(0))] + list(c.columns())[1:])
            if det(c) == lam:
                return lam, c
        return None
    if g.cols % 2 == 0:
        lam = Fraction(1)
    else:
        lam = Fraction(squarefree_part(prod_eps * det(g)))
    c = _congruence_from_frame(g, eps, lam)
    if c is None:
        return None
    return lam, c


def _np1_rank_high(a: Algebra, frame: _Frame, der: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    r = der.dim
    units = _completion_units(list(der.basis), d)
    frame.push(Matrix.from_columns(list(der.basis) + units),
               "adapt: derived part first")
    m = _np1_form_matrix(frame.current)
    if m != m.transpose():
        return _unresolved(a, ("the omit-one bracket matrix is not "
                               "symmetric",), frame.steps)
    if any(m.row(i)[j] != 0 for i in range(d) for j in range(d)
           if i >= r or j >= r):
        return _unresolved(a, ("the bracket form spills outside the derived "
                               "block",), frame.steps)
    g = Matrix([list(m.row(i)[:r]) for i in range(r)])
    if det(g) == 0:
        return _unresolved(a, ("the derived block of the bracket form is "
                               "singular",), frame.steps)
    label = ClassLabel("D_r", r=r)
    eps = [(-1) ** (n + j) for j in range(r)]
    found = _congruence_factor(g, eps, n, fix_det=(r == d))
    if found is None:
        return _family_only(
            a, frame, label, n,
            ("no rational congruence onto the signed diagonal form was found "
             "within the search bounds; over an extension field the family "
             "is still determined by the derived dimension",))
    lam, cmat = found
    if r < d:
        w = Matrix.diagonal([lam / det(cmat)] + [Fraction(1)] * (d - r - 1))
        t = _block_at(cmat, d)
        t = t @ _block_at(w, d, offset=r)
    else:
        t = cmat
    frame.push(t, "congruence onto the signed diagonal form")
    return _exact(a, frame, label, n)


# ---------------------------------------------------------------------------
# dimension n+2


def classify_np2(a: Algebra) -> Verdict:
    """Classify an algebra of dimension two above its arity."""
    _validate(a, 2)
    return _classify_np2(a)


def _classify_np2(a: Algebra) -> Verdict:
    n = a.arity
    der = derived_subalgebra(a)
    if der.dim > n + 1:
        raise ArityBoundViolated(
            f"derived subalgebra has dimension {der.dim}, above the n+1 "
            f"bound for arity {n}")
    frame = _Frame(a)
    if der.dim == 0:
        return _exact(a, frame, ClassLabel("a"), n)
    if der.dim == 1:
        return _np2_rank1(a, frame, der)
    z = center(a)
    split = z.dim - z.intersect(der).dim
    if split == 1:
        return _np2_split_central(a, frame)
    if split > 1:
        return _unresolved(a, ("more than one central line splits off; "
                               "no family matches",))
    if der.dim == 2:
        return _np2_rank2(a, frame, der, z)
    if der.dim == 3:
        return _np2_rank3(a, frame, der)
    return _np2_rank_high(a, frame, der, z)


def _np2_rank1(a: Algebra, frame: _Frame, der: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    z = center(a)
    if z.dim != 2:
        return _unresolved(a, (f"derived line with a {z.dim}-dimensional "
                               "center matches no family",))
    v = der.basis[0]
    if z.contains(v):
        partner = next(row for row in z.basis if _rank_of([v, row]) == 2)
        units = _completion_units(list(z.basis), d)
        frame.push(Matrix.from_columns([v] + units + [partner]),
                   "adapt: derived line, completion, second central "
                   "direction last")
        return _scale_to_product(a, frame, tuple(range(1, 1 + n)),
                                 ClassLabel("b1"))
    units = _completion_units([v] + list(z.basis), d)
    frame.push(Matrix.from_columns([v] + units + list(z.basis)),
               "adapt: derived line, completion, center last")
    return _scale_to_product(a, frame, tuple(range(0, n)), ClassLabel("b2"))


def _split_central_label(core: ClassLabel) -> Optional[ClassLabel]:
    """The family of a table whose core, after splitting off its central
    line, has the (n+1)-dimensional class `core`; None when none has."""
    if core.family == "C2":
        return ClassLabel("c5", alpha=core.alpha)
    if core.family == "D_r":
        return ClassLabel("d4") if core.r == 3 else ClassLabel("r2", r=core.r)
    family = {"C1": "c3", "C3": "c7"}.get(core.family)
    return None if family is None else ClassLabel(family)


def _np2_split_central(a: Algebra, frame: _Frame) -> Verdict:
    """Split a central line off and classify the core one dimension down."""
    n = a.arity
    try:
        core, ncentral, change = strip_central_summand(a)
    except InvalidAlgebra:
        return _unresolved(a, ("a central complement does not split off "
                               "cleanly",))
    if ncentral != 1 or core.dim != n + 1:
        return _unresolved(a, (f"central summand has dimension {ncentral}, "
                               "expected a line",))
    frame.push(change, "split the central line off")
    inner = _classify_valid(core)
    if inner.status == UNRESOLVED:
        return _unresolved(a, ("the core one dimension down did not resolve",)
                           + inner.notes, frame.steps)
    label = _split_central_label(inner.label)
    if label is None:
        return _unresolved(a, (f"the core classifies as {inner.label}, which "
                               "no family with a split central line matches",),
                           frame.steps)
    if inner.status == FAMILY_ONLY:
        return _family_only(a, frame, label, n, inner.notes)
    for step in inner.steps:
        frame.push(_block_at(step.matrix, a.dim), "core: " + step.reason)
    return _exact(a, frame, label, n)


def _np2_rank2(a: Algebra, frame: _Frame, der: Subspace,
               z: Subspace) -> Verdict:
    if z.dim == 1:
        return _np2_rank2_central_line(a, frame, der, z)
    if z.dim == 0:
        return _np2_rank2_pencil(a, frame, der)
    return _unresolved(a, ("a central plane inside the derived plane "
                           "matches no family",))


def _np2_rank2_central_line(a: Algebra, frame: _Frame, der: Subspace,
                            z: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    zv = z.basis[0]
    if not der.contains(zv):
        return _unresolved(a, ("center escapes the derived plane",))
    y = next(row for row in der.basis if _rank_of([zv, row]) == 2)
    units = _completion_units([zv, y], d)
    frame.push(Matrix.from_columns([zv, y] + units),
               "adapt: central direction, derived partner, unit completion")
    cur = frame.current
    if any(0 in key and 1 in key for key in cur.table):
        return _unresolved(a, ("a bracket keeps two derived arguments "
                               "after adaptation",), frame.steps)
    nu = []
    for j in range(n):
        combo = (1,) + tuple(c for c in range(2, d) if c != 2 + j)
        val = cur.bracket_on_basis(combo)
        if val[1] != 0 or any(val[2:]):
            return _unresolved(a, ("the derived partner acts outside the "
                                   "central line; no family matches",),
                               frame.steps)
        nu.append(val[0])
    if not any(nu):
        return _unresolved(a, ("the derived partner is central after all",),
                           frame.steps)
    u_local = [(-1) ** j * nu[j] for j in range(n)]
    mids = _completion_units([u_local], n)
    u_full = _embed(u_local, d, 2)
    mids_full = [_embed(mv, d, 2) for mv in mids]
    psi = bracket_eval(cur, mids_full + [u_full])
    closing = bracket_eval(cur, [psi] + mids_full)
    if not any(closing):
        return _unresolved(a, ("the closing bracket degenerates; no family "
                               "matches",), frame.steps)
    t = Matrix.from_columns([closing, psi] + mids_full + [u_full])
    if det(t) == 0:
        return _unresolved(a, ("the rebuilt frame is degenerate",), frame.steps)
    frame.push(t, "rebuild: closing bracket, transversal product, completion, "
               "dual direction last")
    return _exact(a, frame, ClassLabel("c1"), n)


def _tuple_action(fsigned: Sequence[Matrix], wvecs: Sequence[Vector],
                  nq: int) -> Matrix:
    """Plane action of a transversal (nq-1)-tuple, via its dual vector.

    fsigned[k] is the sign-adjusted action of the tuple omitting unit k;
    the dual coordinates of the given tuple are cofactor determinants.
    """
    total = Matrix.zero(2, 2)
    for k in range(nq):
        c = det(Matrix.from_columns(list(wvecs) + [unit_vec(nq, k)]))
        if c:
            total = total + c * fsigned[k]
    if nq % 2 == 0:
        total = -total
    return total


@lru_cache(maxsize=None)
def _smallest_pencil_parameter(square_class: int) -> Tuple[Fraction, Fraction]:
    """The lowest-height alpha with 1 + 4*alpha in a given square class.

    Returns (alpha, rho) with square_class * rho**2 == 1 + 4*alpha.  Height
    is max(|numerator|, denominator), ties broken by smaller denominator,
    then by the positive sign.
    """
    best = None
    for q in range(1, 65):
        for p in range(1, 65):
            if gcd(p, q) != 1:
                continue
            rho = Fraction(p, q)
            alpha = (square_class * rho * rho - 1) / 4
            if alpha == 0:
                continue
            key = (max(abs(alpha.numerator), alpha.denominator),
                   alpha.denominator, 0 if alpha > 0 else 1)
            if best is None or key < best[0]:
                best = (key, alpha, rho)
    return best[1], best[2]


def _np2_rank2_pencil(a: Algebra, frame: _Frame, der: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    units = _completion_units(list(der.basis), d)
    frame.push(Matrix.from_columns(list(der.basis) + units),
               "adapt: derived plane first")
    cur = frame.current
    if any(0 in key and 1 in key for key in cur.table):
        return _unresolved(a, ("a bracket keeps two derived arguments "
                               "after adaptation",), frame.steps)
    fmats = []
    for j in range(n):
        combo = tuple(c for c in range(2, d) if c != 2 + j)
        cols = []
        for x in (0, 1):
            val = cur.bracket_on_basis((x,) + combo)
            if any(val[2:]):
                return _unresolved(a, ("products leave the derived plane",),
                                   frame.steps)
            cols.append((val[0], val[1]))
        theta = Matrix.from_columns(cols)
        fmats.append(theta if j % 2 == 0 else -theta)
    stack = Matrix([_vec_of(f) for f in fmats])
    null = kernel_basis(stack.transpose())
    if rank(stack) != 2 or len(null) != n - 2:
        return _unresolved(a, ("the transversal action pencil is not two "
                               "dimensional",), frame.steps)
    ident = Matrix.identity(2)
    if solve(stack.transpose(), _vec_of(ident)) is None:
        return _unresolved(a, ("the identity action is missing from the "
                               "pencil",), frame.steps)
    reduced, pivots = rref(stack)
    pencil_rows = [reduced.row(i) for i in range(len(pivots))]
    m0vec = next(rv for rv in pencil_rows
                 if _rank_of([rv, _vec_of(ident)]) == 2)
    m0 = Matrix([[m0vec[0], m0vec[1]], [m0vec[2], m0vec[3]]])
    tau = m0.row(0)[0] + m0.row(1)[1]
    disc = tau * tau - 4 * det(m0)
    if disc == 0:
        p0 = m0 - (tau / 2) * ident
        x0 = next(v for v in ((1, 0), (0, 1)) if any(p0.apply(v)))
        w1 = p0.apply(x0)
        w2 = tuple(Fraction(x) for x in x0)
        mtarget = p0
        label = ClassLabel("c2")
    else:
        sigma = rational_sqrt(disc)
        if sigma is not None:
            p0 = (1 / sigma) * (2 * m0 - tau * ident)
            vplus = kernel_basis(p0 - ident)[0]
            vminus = kernel_basis(p0 + ident)[0]
            w1 = tuple(x + y for x, y in zip(vplus, vminus))
            w2 = p0.apply(w1)
            mtarget = p0
            label = ClassLabel("c4")
        else:
            dclass = squarefree_part(disc)
            alpha, rho = _smallest_pencil_parameter(dclass)
            scale = rho / rational_sqrt(disc / dclass)
            p6 = scale * m0 + ((1 - scale * tau) / 2) * ident
            pair = _plane_cyclic(p6)
            if pair is None:
                return _unresolved(a, ("pencil member is scalar off the "
                                       "scalar line",), frame.steps)
            w1, w2 = pair
            mtarget = p6
            label = ClassLabel("c6", alpha=alpha)
    null_list = [tuple(row) for row in null]
    uplane = kernel_basis(Matrix(null_list))
    sys_right = Matrix.from_columns(
        [_vec_of(_tuple_action(fmats, [ub] + null_list, n)) for ub in uplane])
    sol = solve(sys_right, _vec_of(mtarget))
    if sol is None:
        return _unresolved(a, ("no transversal direction realizes the "
                               "leading action",), frame.steps)
    u1 = tuple(sol[0] * uplane[0][k] + sol[1] * uplane[1][k] for k in range(n))
    sys_left = Matrix.from_columns(
        [_vec_of(_tuple_action(fmats, null_list + [ub], n)) for ub in uplane])
    sol = solve(sys_left, _vec_of(ident))
    if sol is None:
        return _unresolved(a, ("no transversal direction realizes the "
                               "identity action",), frame.steps)
    u2 = tuple(sol[0] * uplane[0][k] + sol[1] * uplane[1][k] for k in range(n))
    cols = [_embed(w1, d, 0), _embed(w2, d, 0), _embed(u1, d, 2)]
    cols += [_embed(gv, d, 2) for gv in null_list]
    cols.append(_embed(u2, d, 2))
    t = Matrix.from_columns(cols)
    if det(t) == 0:
        return _unresolved(a, ("the rebuilt frame is degenerate",), frame.steps)
    frame.push(t, "rebuild: plane eigenframe and matched transversal frame")
    psi = frame.current.bracket_on_basis(tuple(range(2, d)))
    if any(psi[2:]):
        return _unresolved(a, ("the full transversal product leaves the "
                               "derived plane",), frame.steps)
    if any(psi):
        shear_cols = [unit_vec(d, i) for i in range(d)]
        shear_cols[2] = tuple(
            -psi[0] if i == 0 else -psi[1] if i == 1 else
            (Fraction(1) if i == 2 else Fraction(0)) for i in range(d))
        frame.push(Matrix.from_columns(shear_cols),
                   "absorb the full transversal product")
    return _exact(a, frame, label, a.arity)


def _wedge2(v: Sequence, w: Sequence) -> Vector:
    """Coordinates of v /\\ w over the pairs (01, 02, 12)."""
    return (v[0] * w[1] - v[1] * w[0],
            v[0] * w[2] - v[2] * w[0],
            v[1] * w[2] - v[2] * w[1])


def _np2_rank3(a: Algebra, frame: _Frame, der: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    units = _completion_units(list(der.basis), d)
    frame.push(Matrix.from_columns(list(der.basis) + units),
               "adapt: derived part first")
    cur = frame.current
    if any(len([i for i in key if i < 3]) >= 3 for key in cur.table):
        return _unresolved(a, ("a bracket keeps three derived arguments "
                               "after adaptation",), frame.steps)
    pair_actions = []
    for j in range(n - 1):
        tail = tuple(c for c in range(3, d) if c != 3 + j)
        cols = []
        for (xa, xb) in ((0, 1), (0, 2), (1, 2)):
            val = cur.bracket_on_basis((xa, xb) + tail)
            if any(val[3:]):
                return _unresolved(a, ("pair products leave the derived "
                                       "part",), frame.steps)
            cols.append(val[:3])
        pair_actions.append(Matrix.from_columns(cols))
    if all(_is_zero_matrix(x) for x in pair_actions):
        return _np2_rank3_onemap(a, frame)
    return _np2_rank3_pairs(a, frame, pair_actions)


def _np2_rank3_pairs(a: Algebra, frame: _Frame,
                     pair_actions: Sequence[Matrix]) -> Verdict:
    n, d = a.arity, a.dim
    nq = n - 1
    stack = Matrix([_vec_of(x) for x in pair_actions])
    if rank(stack) != 1:
        return _unresolved(a, ("the pair actions are not proportional",),
                           frame.steps)
    j0 = next(j for j in range(nq) if not _is_zero_matrix(pair_actions[j]))
    base = pair_actions[j0]
    ri, ci = next((i, j) for i in range(3) for j in range(3)
                  if base.row(i)[j] != 0)
    gamma = [x.row(ri)[ci] / base.row(ri)[ci] for x in pair_actions]
    dual_local = [(-1) ** j * gamma[j] for j in range(nq)]
    mids = _completion_units([dual_local], nq)
    cols = [unit_vec(d, 0), unit_vec(d, 1), unit_vec(d, 2)]
    cols += [_embed(mv, d, 3) for mv in mids]
    cols.append(_embed(dual_local, d, 3))
    frame.push(Matrix.from_columns(cols),
               "reorder the transversal frame around the dual direction")
    cur = frame.current
    for key in cur.table:
        if len([i for i in key if i < 3]) == 2 and (d - 1) in key:
            return _unresolved(a, ("a pair bracket survives along the dual "
                                   "direction",), frame.steps)
    support = tuple(range(3, d - 1))
    chihat = Matrix.from_columns(
        [cur.bracket_on_basis((xa, xb) + support)[:3]
         for (xa, xb) in ((0, 1), (0, 2), (1, 2))])
    if rank(chihat) != 1:
        return _unresolved(a, ("the surviving pair action is not of rank "
                               "one",), frame.steps)
    mvec = next(col for col in chihat.columns() if any(col))
    for i in range(3):
        if any(chihat.apply(_wedge2(mvec, unit_vec(3, i)))):
            return _unresolved(a, ("the pair action does not kill its own "
                                   "image",), frame.steps)
    ys = _completion_units([mvec], 3)
    frame.push(_block_at(Matrix.from_columns([mvec] + ys), d),
               "derived frame: pair image first")
    cur = frame.current
    if any(any(cur.bracket_on_basis((0, b) + support)) for b in (1, 2)) \
            or not any(cur.bracket_on_basis((1, 2) + support)):
        return _unresolved(a, ("pair action misaligned after the image "
                               "change",), frame.steps)
    pmat = _np2_rank3_read_p(cur, d)
    if pmat.row(1)[0] != 0 or pmat.row(2)[0] != 0:
        return _unresolved(a, ("the transversal map moves the pair image "
                               "off its line",), frame.steps)
    m00 = pmat.row(0)[0]
    pbar = _lower_block(pmat)
    if pbar.row(0)[0] + pbar.row(1)[1] != m00:
        return _unresolved(a, ("trace of the reduced transversal map is off",),
                           frame.steps)
    if det(pbar - m00 * Matrix.identity(2)) == 0:
        return _unresolved(a, ("the reduced transversal map repeats the "
                               "image eigenvalue; no family matches",),
                           frame.steps)
    if m00 == 0:
        lam = rational_sqrt(-det(pbar))
        if lam is None:
            return _family_only(
                a, frame, ClassLabel("d1"), n,
                ("the trace-free reduced map needs an irrational eigenvalue "
                 "pair, so no rational normalization exists",))
        frame.push(_scale_coord(d, d - 1, 1 / lam),
                   "scale the dual direction to set the eigenvalues")
        return _np2_rank3_finish(a, frame, ClassLabel("d1"),
                                 eigs=(Fraction(-1), Fraction(1)))
    if pbar.row(0)[1] == 0 and pbar.row(1)[0] == 0 \
            and pbar.row(0)[0] == pbar.row(1)[1]:
        frame.push(_scale_coord(d, d - 1, 2 / m00),
                   "scale the dual direction to set the image eigenvalue to 2")
        return _np2_rank3_finish(a, frame, ClassLabel("d3"),
                                 eigs=(Fraction(1), Fraction(1)))
    alpha = -det(pbar) / m00 ** 2
    frame.push(_scale_coord(d, d - 1, 1 / m00),
               "scale the dual direction to set the image eigenvalue to 1")
    return _np2_rank3_cyclic(a, frame, alpha)


def _np2_rank3_read_p(cur: Algebra, d: int) -> Matrix:
    full = tuple(range(3, d))
    return Matrix.from_columns(
        [cur.bracket_on_basis((x,) + full)[:3] for x in range(3)])


def _lower_block(p: Matrix) -> Matrix:
    """The 2x2 block of a 3x3 map on the last two coordinates."""
    return Matrix([p.row(1)[1:], p.row(2)[1:]])


def _np2_rank3_finish(a: Algebra, frame: _Frame, label: ClassLabel,
                      eigs: Tuple[Fraction, Fraction]) -> Verdict:
    """Shared tail of the diagonalizable pair branches (one eigenvalue each).

    Lifts an eigenvector of the reduced 2x2 map for each requested
    eigenvalue into the full derived part and rebuilds the frame so the
    pair product becomes the leading basis vector.
    """
    n, d = a.arity, a.dim
    cur = frame.current
    pmat = _np2_rank3_read_p(cur, d)
    m00 = pmat.row(0)[0]
    pbar = _lower_block(pmat)
    crow = (pmat.row(0)[1], pmat.row(0)[2])
    lifted = []
    for mu in eigs:
        pool = kernel_basis(pbar - mu * Matrix.identity(2))
        idx = 1 if (eigs[0] == eigs[1] and len(lifted) == 1) else 0
        if len(pool) <= idx:
            return _unresolved(a, ("missing eigenvector in the reduced "
                                   "transversal map",), frame.steps)
        w = pool[idx]
        shift = (crow[0] * w[0] + crow[1] * w[1]) / (mu - m00)
        lifted.append((shift, w[0], w[1]))
    mids_full = [unit_vec(d, c) for c in range(3, d - 1)]
    v2 = _embed(lifted[0], d, 0)
    v3 = _embed(lifted[1], d, 0)
    closing = bracket_eval(cur, [v2, v3] + mids_full)
    if not any(closing):
        return _unresolved(a, ("the pair product of the eigenvectors "
                               "vanishes",), frame.steps)
    cols = [closing, v2, v3] + mids_full + [unit_vec(d, d - 1)]
    t = Matrix.from_columns(cols)
    if det(t) == 0:
        return _unresolved(a, ("the rebuilt frame is degenerate",), frame.steps)
    frame.push(t, "rebuild: pair product and lifted eigenvectors")
    return _exact(a, frame, label, n)


def _np2_rank3_cyclic(a: Algebra, frame: _Frame, alpha: Fraction) -> Verdict:
    """Tail of the pair branch whose reduced map is cyclic (two-parameter)."""
    n, d = a.arity, a.dim
    cur = frame.current
    pmat = _np2_rank3_read_p(cur, d)
    pbar = _lower_block(pmat)
    pair = _plane_cyclic(pbar)
    if pair is None:
        return _unresolved(a, ("reduced transversal map is scalar in the "
                               "cyclic branch",), frame.steps)
    w, _ = pair
    v2 = _embed((Fraction(0), w[0], w[1]), d, 0)
    v3 = pmat.apply(v2[:3])
    residue = tuple(pmat.apply(v3)[i] - alpha * v2[i] - v3[i]
                    for i in range(3))
    if residue[1] != 0 or residue[2] != 0:
        return _unresolved(a, ("the reduced map fails its own minimal "
                               "polynomial",), frame.steps)
    v2 = tuple(v2[i] + (residue[0] / alpha) * unit_vec(3, 0)[i]
               for i in range(3))
    v3 = pmat.apply(v2)
    v2f = _embed(v2, d, 0)
    v3f = _embed(v3, d, 0)
    mids_full = [unit_vec(d, c) for c in range(3, d - 1)]
    closing = bracket_eval(cur, [v2f, v3f] + mids_full)
    if not any(closing):
        return _unresolved(a, ("the pair product of the cyclic frame "
                               "vanishes",), frame.steps)
    cols = [closing, v2f, v3f] + mids_full + [unit_vec(d, d - 1)]
    t = Matrix.from_columns(cols)
    if det(t) == 0:
        return _unresolved(a, ("the rebuilt frame is degenerate",), frame.steps)
    frame.push(t, "rebuild: pair product and cyclic frame")
    return _exact(a, frame, ClassLabel("d2", alpha=alpha), n)


def _np2_rank3_onemap(a: Algebra, frame: _Frame) -> Verdict:
    """No surviving pair products: a single map on the derived part decides."""
    n, d = a.arity, a.dim
    cur = frame.current
    pmat = _np2_rank3_read_p(cur, d)
    if rank(pmat) < 3:
        return _unresolved(a, ("the transversal map cannot span the derived "
                               "part",), frame.steps)
    ident = Matrix.identity(3)
    offdiag = any(pmat.row(i)[j] != 0 for i in range(3) for j in range(3)
                  if i != j)
    if not offdiag and pmat.row(0)[0] == pmat.row(1)[1] == pmat.row(2)[2]:
        frame.push(_scale_coord(d, 3, 1 / pmat.row(0)[0]),
                   "scale one transversal vector so the map is the identity")
        return _exact(a, frame, ClassLabel("d6"), n)
    powers = Matrix([_vec_of(ident), _vec_of(pmat), _vec_of(pmat @ pmat)])
    if rank(powers) == 3:
        s = det(pmat)
        u = pmat.row(0)[0] + pmat.row(1)[1] + pmat.row(2)[2]
        minors = sum(pmat.row(i)[i] * pmat.row(j)[j] -
                     pmat.row(i)[j] * pmat.row(j)[i]
                     for i in range(3) for j in range(3) if i < j)
        t_coeff = -minors
        star = d7_canonical_triple(s, t_coeff, u)
        rho = rational_cbrt(star[0] / s)
        if rho is None:
            return _unresolved(a, ("the invariant triple does not rescale "
                                   "onto its canonical form",), frame.steps)
        frame.push(_scale_coord(d, 3, rho),
                   "scale one transversal vector onto the canonical triple")
        pm = _np2_rank3_read_p(frame.current, d)
        v = next((vv for vv in itertools.product(range(4), repeat=3)
                  if det(Matrix.from_columns(
                      [vv, pm.apply(vv), pm.apply(pm.apply(vv))])) != 0),
                 None)
        if v is None:
            return _unresolved(a, ("no cyclic vector in the search grid",),
                               frame.steps)
        v1 = tuple(Fraction(x) for x in v)
        v2 = pm.apply(v1)
        v3 = pm.apply(v2)
        cols = [_embed(v1, d, 0), _embed(v2, d, 0), _embed(v3, d, 0)]
        cols += [unit_vec(d, c) for c in range(3, d)]
        frame.push(Matrix.from_columns(cols),
                   "rebuild: cyclic frame for the transversal map")
        return _exact(a, frame, ClassLabel("d7", stu=star), n)
    coeffs = solve(Matrix.from_columns([_vec_of(pmat), _vec_of(ident)]),
                   _vec_of(pmat @ pmat))
    if coeffs is None:
        return _unresolved(a, ("the transversal map has no quadratic "
                               "relation",), frame.steps)
    disc = coeffs[0] ** 2 + 4 * coeffs[1]
    sigma = rational_sqrt(disc)
    if sigma is None:
        return _unresolved(a, ("quadratic relation with irrational roots; "
                               "expected none in dimension three",),
                           frame.steps)
    if sigma == 0:
        return _unresolved(a, ("the transversal map repeats an eigenvalue "
                               "with a nilpotent part; no catalog family "
                               "matches",), frame.steps)
    roots = ((coeffs[0] + sigma) / 2, (coeffs[0] - sigma) / 2)
    spaces = [kernel_basis(pmat - mu * ident) for mu in roots]
    if len(spaces[0]) == 2 and len(spaces[1]) == 1:
        lam, mu = roots
        big, small = spaces
    elif len(spaces[0]) == 1 and len(spaces[1]) == 2:
        mu, lam = roots
        small, big = spaces
    else:
        return _unresolved(a, ("unexpected eigenspace dimensions for the "
                               "transversal map",), frame.steps)
    beta = mu / lam
    frame.push(_scale_coord(d, 3, 1 / lam),
               "scale one transversal vector to set the double eigenvalue "
               "to 1")
    u1, u2 = big
    w = small[0]
    e1 = u2
    e2 = tuple(x + y for x, y in zip(u1, w))
    e3 = tuple(x + beta * y for x, y in zip(u1, w))
    cols = [_embed(e1, d, 0), _embed(e2, d, 0), _embed(e3, d, 0)]
    cols += [unit_vec(d, c) for c in range(3, d)]
    t = Matrix.from_columns(cols)
    if det(t) == 0:
        return _unresolved(a, ("the eigenframe is degenerate",), frame.steps)
    frame.push(t, "rebuild: eigenframe of the transversal map")
    return _exact(a, frame, ClassLabel("d5", beta=beta), a.arity)


def _np2_rank_high(a: Algebra, frame: _Frame, der: Subspace,
                   z: Subspace) -> Verdict:
    n, d = a.arity, a.dim
    r = der.dim
    if z.dim != 1:
        return _unresolved(a, (f"derived dimension {r} with a {z.dim}-"
                               "dimensional center matches no family",))
    zv = z.basis[0]
    units = _completion_units([zv], d)
    frame.push(Matrix.from_columns(units + [zv]), "adapt: center last")
    quotient = Algebra(n, d - 1,
                       {key: val[:-1] for key, val in
                        frame.current.table.items() if (d - 1) not in key})
    inner = _classify_valid(quotient)
    if inner.status == UNRESOLVED:
        return _unresolved(a, ("the quotient by the center line did not "
                               "resolve",) + inner.notes, frame.steps)
    if inner.label.family != "D_r" or inner.label.r != r - 1:
        return _unresolved(a, (f"the quotient classifies as {inner.label}; "
                               "no family matches",), frame.steps)
    label = ClassLabel("r1", r=r)
    if inner.status == FAMILY_ONLY:
        return _family_only(a, frame, label, n, inner.notes)
    frame.push(_block_at(invert(inner.witness), d),
               "quotient: congruence onto the signed diagonal form")
    cur = frame.current
    delta = []
    for i0 in range(d - 1):
        combo = tuple(x for x in range(d - 1) if x != i0)
        val = cur.bracket_on_basis(combo)
        for c in range(d - 1):
            want = Fraction(1 if (c == i0 and i0 < r - 1) else 0)
            if val[c] != want:
                return _unresolved(a, ("the quotient rows fail to lift "
                                       "cleanly",), frame.steps)
        delta.append(val[d - 1])
    tail = delta[r - 1:]
    if not any(tail):
        return _unresolved(a, ("the center line detaches from the derived "
                               "part",), frame.steps)
    m = len(tail)
    if m >= 2:
        dual = [(-1) ** j * tail[j] for j in range(m)]
        mids = _completion_units([dual], m)
        raw = Matrix.from_columns(mids + [tuple(dual)])
        mix = Matrix.from_columns(
            [scale_vec(1 / det(raw), mids[0])] + mids[1:] + [tuple(dual)])
        frame.push(_block_at(mix, d, offset=r - 1),
                   "mix the free transversal block around the dual direction")
        cur = frame.current
        delta = []
        for i0 in range(r - 1):
            combo = tuple(x for x in range(d - 1) if x != i0)
            delta.append(cur.bracket_on_basis(combo)[d - 1])
        for i0 in range(r - 1, d - 2):
            combo = tuple(x for x in range(d - 1) if x != i0)
            if any(cur.bracket_on_basis(combo)):
                return _unresolved(a, ("a free-block row survives the mix",),
                                   frame.steps)
    last_row = cur.bracket_on_basis(tuple(range(0, d - 2)))
    zeta = last_row[d - 1]
    if any(last_row[:d - 1]) or zeta == 0:
        return _unresolved(a, ("the dual row is misaligned",), frame.steps)
    if any(delta[:r - 1]):
        absorb_cols = [unit_vec(d, i) for i in range(d)]
        for i0 in range(r - 1):
            if delta[i0]:
                col = list(absorb_cols[i0])
                col[d - 1] = delta[i0]
                absorb_cols[i0] = tuple(col)
        frame.push(Matrix.from_columns(absorb_cols),
                   "absorb the center components of the leading rows")
    perm_cols = [scale_vec(zeta, unit_vec(d, d - 1))]
    perm_cols += [unit_vec(d, i) for i in range(d - 1)]
    frame.push(Matrix.from_columns(perm_cols),
               "reorder: center line first, scaled onto the dual row")
    return _exact(a, frame, label, n)
