"""Independent checks of what the program returns.

Plain `Fraction` arithmetic throughout, written for this benchmark: no
function of `nlie` is called here.  Tables are dicts from ascending 0-based
index tuples to coordinate tuples (the shape of `Algebra.table`); matrices
are lists of rows whose columns are the new basis vectors.

The central identity: a matrix W carries table B back onto table A
(`change_basis_multilinear(B, W) == A`) exactly when, for every ascending
index tuple S, the bracket in B of the columns of W indexed by S equals
W applied to A[S].  Checking it needs no inverse.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    out = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def rank(vectors) -> int:
    """Rank of a list of vectors."""
    m = [[Fraction(x) for x in v] for v in vectors if any(v)]
    count = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(count, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[count], m[piv] = m[piv], m[count]
        for r in range(count + 1, len(m)):
            f = m[r][c] / m[count][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[count])]
        count += 1
    return count


def inverse(rows):
    """Inverse by Gauss-Jordan elimination; raises ValueError if singular."""
    size = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)]
         for i, row in enumerate(rows)]
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(size):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[size:] for row in m]


def apply(rows, vec):
    return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows)


def bracket(table, arity: int, dim: int, vectors):
    """Bracket of `arity` coordinate vectors: the sum over table entries C of
    det(rows C of the argument matrix) times the value at C."""
    out = [Fraction(0)] * dim
    for combo, value in table.items():
        c = det([[vectors[j][i] for j in range(arity)] for i in combo])
        if c:
            for k in range(dim):
                out[k] += c * value[k]
    return tuple(out)


def expand(table, arity: int, dim: int, basis):
    """The table written in the basis given by the columns of `basis`."""
    inv = inverse(basis)
    cols = [tuple(basis[i][j] for i in range(dim)) for j in range(dim)]
    out = {}
    for combo in combinations(range(dim), arity):
        value = apply(inv, bracket(table, arity, dim, [cols[i] for i in combo]))
        if any(value):
            out[combo] = value
    return out


def carries(src, dst, arity: int, dim: int, w) -> bool:
    """Does w carry `dst` back onto `src` (src == dst rewritten in basis w)?"""
    if len(w) != dim or any(len(row) != dim for row in w) or det(w) == 0:
        return False
    cols = [tuple(Fraction(w[i][j]) for i in range(dim)) for j in range(dim)]
    zero = (Fraction(0),) * dim
    for combo in combinations(range(dim), arity):
        lhs = bracket(dst, arity, dim, [cols[i] for i in combo])
        if lhs != apply(w, src.get(combo, zero)):
            return False
    return True


def parse_table(text: str):
    """(arity, dim, table) from an nlie/1 document, read by this module."""
    doc = json.loads(text)
    if doc.get("format") != "nlie/1":
        raise ValueError("not an nlie/1 document")
    arity, dim = doc["arity"], doc["dim"]
    table = {}
    for entry in doc["brackets"]:
        key = tuple(i - 1 for i in entry["indices"])
        vec = [Fraction(0)] * dim
        for idx, raw in entry["coeffs"].items():
            vec[int(idx) - 1] = Fraction(raw)
        if any(vec):
            table[key] = tuple(vec)
    return arity, dim, table


def write_table(arity: int, dim: int, table) -> str:
    """An nlie/1 document for the table."""
    def fmt(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    brackets = [{"indices": [i + 1 for i in combo],
                 "coeffs": {str(k + 1): fmt(c) for k, c in enumerate(vec) if c}}
                for combo, vec in sorted(table.items())]
    return json.dumps({"format": "nlie/1", "arity": arity, "dim": dim,
                       "field": "Q", "brackets": brackets}, indent=2) + "\n"


def write_matrix(rows) -> str:
    """An nlie-matrix/1 document for an integer matrix."""
    return json.dumps({"format": "nlie-matrix/1", "rows": len(rows),
                       "cols": len(rows[0]),
                       "entries": [[str(x) for x in row] for row in rows]},
                      indent=2) + "\n"

