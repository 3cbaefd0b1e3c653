"""Canonical multiplication tables for the classified families.

Two catalogs, by dimension relative to the arity n:

* dimension n+1: families A_ab, B1, B2, C1, C2(alpha), C3, D_r
  (3 <= r <= n+1)
* dimension n+2: families a, b1, b2, c1..c7 (alpha on c5/c6),
  d1..d7 (alpha on d2, beta on d5, a triple (s,t,u) on d7),
  r1, r2 (4 <= r <= n+1)

Index conventions in this file are 1-based, matching how the tables are
usually written; the constructed Algebra uses 0-based keys.

One deliberate deviation: the d5 family is generated with
[e3, e4, .., e_{n+2}] = -beta e2 + (1+beta) e3. The variant with +beta
makes the defining map on the derived algebra cyclic (its characteristic
polynomial is x^3 - (2+beta) x^2 + x + beta, irreducible over the
eigendata d5 is meant to have), which lands it in the d7 family instead;
a documenting test exhibits the explicit isomorphism. With -beta the map
has eigenvalues {1, 1, beta} and minimal polynomial (x-1)(x-beta), which
is the structure the d5/d6 split needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .algebra import Algebra, InvariantSignature, invariant_signature
from .errors import InvalidParameter, NlieError, UnsupportedArity
from .exactlin import factorize, rat, rational_cbrt

NP1_FAMILIES = ("A_ab", "B1", "B2", "C1", "C2", "C3", "D_r")
NP2_FAMILIES = ("a", "b1", "b2",
                "c1", "c2", "c3", "c4", "c5", "c6", "c7",
                "d1", "d2", "d3", "d4", "d5", "d6", "d7",
                "r1", "r2")

_ALPHA_FAMILIES = {"C2", "c5", "c6", "d2"}
_R_FAMILIES = {"D_r", "r1", "r2"}


@dataclass(frozen=True)
class ClassLabel:
    """A family name plus whatever rational parameters it carries."""

    family: str
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None
    stu: Optional[Tuple[Fraction, Fraction, Fraction]] = None
    r: Optional[int] = None

    def __post_init__(self):
        fam = self.family
        if fam not in NP1_FAMILIES and fam not in NP2_FAMILIES:
            raise InvalidParameter(f"unknown family {fam!r}")
        if self.alpha is not None:
            object.__setattr__(self, "alpha", rat(self.alpha))
        if self.beta is not None:
            object.__setattr__(self, "beta", rat(self.beta))
        if self.stu is not None:
            object.__setattr__(self, "stu", tuple(rat(x) for x in self.stu))

        want_alpha = fam in _ALPHA_FAMILIES
        if want_alpha != (self.alpha is not None):
            raise InvalidParameter(
                f"{fam} {'requires' if want_alpha else 'does not take'} alpha")
        if (fam == "d5") != (self.beta is not None):
            raise InvalidParameter(
                f"{fam} {'requires' if fam == 'd5' else 'does not take'} beta")
        if (fam == "d7") != (self.stu is not None):
            raise InvalidParameter(
                f"{fam} {'requires' if fam == 'd7' else 'does not take'} (s,t,u)")
        want_r = fam in _R_FAMILIES
        if want_r != (self.r is not None):
            raise InvalidParameter(
                f"{fam} {'requires' if want_r else 'does not take'} r")

        if want_alpha and self.alpha == 0:
            raise InvalidParameter(f"{fam} needs alpha != 0")
        if fam == "d5" and self.beta in (0, 1):
            raise InvalidParameter("d5 needs beta outside {0, 1}")
        if fam == "d7":
            if len(self.stu) != 3:
                raise InvalidParameter("d7 takes exactly three parameters")
            if self.stu[0] == 0:
                raise InvalidParameter("d7 needs s != 0")
        if fam == "D_r" and self.r < 3:
            raise InvalidParameter("D_r needs r >= 3")
        if fam in ("r1", "r2") and self.r < 4:
            raise InvalidParameter(f"{fam} needs r >= 4")

    @property
    def codim(self) -> int:
        """Dimension above the arity: 1 or 2."""
        return 1 if self.family in NP1_FAMILIES else 2

    def dim_for(self, n: int) -> int:
        return n + self.codim

    def __str__(self):
        parts = []
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha}")
        if self.beta is not None:
            parts.append(f"beta={self.beta}")
        if self.stu is not None:
            parts.append("stu=" + ",".join(str(x) for x in self.stu))
        if self.r is not None:
            parts.append(f"r={self.r}")
        return self.family + (f"({'; '.join(parts)})" if parts else "")


def _build(n: int, dim: int, rows) -> Algebra:
    """rows: iterable of (ascending 1-based index tuple, {1-based idx: coeff})."""
    table = {}
    for indices, coeffs in rows:
        vec = [Fraction(0)] * dim
        for i, c in coeffs.items():
            vec[i - 1] = rat(c)
        table[tuple(i - 1 for i in indices)] = tuple(vec)
    return Algebra(n, dim, table)


def _rng(a: int, b: int) -> Tuple[int, ...]:
    """1-based inclusive index range."""
    return tuple(range(a, b + 1))


def _omit(d: int, *skip: int) -> Tuple[int, ...]:
    return tuple(i for i in range(1, d + 1) if i not in skip)


def canonical(n: int, label: ClassLabel) -> Algebra:
    """The canonical table of the labeled class at arity n."""
    if n < 3:
        raise UnsupportedArity(f"canonical tables start at arity 3, got {n}")
    fam = label.family
    if label.r is not None and label.r > n + 1:
        raise InvalidParameter(f"{fam} needs r <= n+1 = {n + 1}, got {label.r}")
    a, b, stu, r = label.alpha, label.beta, label.stu, label.r

    if fam in NP1_FAMILIES:
        if fam == "A_ab":
            rows = []
        elif fam == "B1":
            rows = [(_rng(2, n + 1), {1: 1})]
        elif fam == "B2":
            rows = [(_rng(1, n), {1: 1})]
        elif fam == "C1":
            rows = [(_rng(2, n + 1), {1: 1}),
                    ((1,) + _rng(3, n + 1), {2: 1})]
        elif fam == "C2":
            rows = [(_rng(2, n + 1), {1: a, 2: 1}),
                    ((1,) + _rng(3, n + 1), {2: 1})]
        elif fam == "C3":
            rows = [((1,) + _rng(3, n + 1), {1: 1}),
                    (_rng(2, n + 1), {2: 1})]
        else:  # D_r
            rows = [(_omit(n + 1, i), {i: 1}) for i in range(1, r + 1)]
        return _build(n, n + 1, rows)

    tail = _rng(4, n + 2)
    if fam == "a":
        rows = []
    elif fam == "b1":
        rows = [(_rng(2, n + 1), {1: 1})]
    elif fam == "b2":
        rows = [(_rng(1, n), {1: 1})]
    elif fam == "c1":
        rows = [(_rng(2, n + 1), {1: 1}),
                (_rng(3, n + 2), {2: 1})]
    elif fam == "c2":
        rows = [(_rng(2, n + 1), {1: 1}),
                ((2,) + tail, {2: 1}),
                ((1,) + tail, {1: 1})]
    elif fam == "c3":
        rows = [(_rng(2, n + 1), {1: 1}),
                ((1,) + _rng(3, n + 1), {2: 1})]
    elif fam == "c4":
        rows = [(_rng(2, n + 1), {1: 1}),
                ((1,) + _rng(3, n + 1), {2: 1}),
                ((2,) + tail, {2: 1}),
                ((1,) + tail, {1: 1})]
    elif fam == "c5":
        rows = [(_rng(2, n + 1), {1: a, 2: 1}),
                ((1,) + _rng(3, n + 1), {2: 1})]
    elif fam == "c6":
        rows = [(_rng(2, n + 1), {1: a, 2: 1}),
                ((1,) + _rng(3, n + 1), {2: 1}),
                ((2,) + tail, {2: 1}),
                ((1,) + tail, {1: 1})]
    elif fam == "c7":
        rows = [((1,) + _rng(3, n + 1), {1: 1}),
                (_rng(2, n + 1), {2: 1})]
    elif fam == "d1":
        rows = [(_rng(2, n + 1), {1: 1}),
                ((2,) + tail, {2: -1}),
                (_rng(3, n + 2), {3: 1})]
    elif fam == "d2":
        rows = [(_rng(2, n + 1), {1: 1}),
                (_rng(3, n + 2), {2: a, 3: 1}),
                ((2,) + tail, {3: 1}),
                ((1,) + tail, {1: 1})]
    elif fam == "d3":
        rows = [(_rng(2, n + 1), {1: 1}),
                (_rng(3, n + 2), {3: 1}),
                ((2,) + tail, {2: 1}),
                ((1,) + tail, {1: 2})]
    elif fam == "d4":
        rows = [(_rng(2, n + 1), {1: 1}),
                ((1,) + _rng(3, n + 1), {2: 1}),
                ((1, 2) + _rng(4, n + 1), {3: 1})]
    elif fam == "d5":
        rows = [((1,) + tail, {1: 1}),
                ((2,) + tail, {3: 1}),
                ((3,) + tail, {2: -b, 3: 1 + b})]
    elif fam == "d6":
        rows = [((1,) + tail, {1: 1}),
                ((2,) + tail, {2: 1}),
                ((3,) + tail, {3: 1})]
    elif fam == "d7":
        rows = [((1,) + tail, {2: 1}),
                ((2,) + tail, {3: 1}),
                ((3,) + tail, {1: stu[0], 2: stu[1], 3: stu[2]})]
    elif fam == "r1":
        rows = ([(_omit(n + 2, 1, n + 2), {1: 1})]
                + [(_omit(n + 2, 1, i), {i: 1}) for i in range(2, r + 1)])
    else:  # r2
        rows = [(_omit(n + 2, i, n + 2), {i: 1}) for i in range(1, r + 1)]
    return _build(n, n + 2, rows)


def np1_labels(n: int, alpha=Fraction(1)):
    """Concrete labels covering the dimension-(n+1) catalog at arity n."""
    out = [ClassLabel("A_ab"), ClassLabel("B1"), ClassLabel("B2"),
           ClassLabel("C1"), ClassLabel("C2", alpha=alpha), ClassLabel("C3")]
    out += [ClassLabel("D_r", r=r) for r in range(3, n + 2)]
    return out


def np2_labels(n: int, alpha=Fraction(1), beta=Fraction(2),
               stu=(Fraction(1), Fraction(0), Fraction(0))):
    """Concrete labels covering the dimension-(n+2) catalog at arity n."""
    out = [ClassLabel("a"), ClassLabel("b1"), ClassLabel("b2"),
           ClassLabel("c1"), ClassLabel("c2"), ClassLabel("c3"),
           ClassLabel("c4"), ClassLabel("c5", alpha=alpha),
           ClassLabel("c6", alpha=alpha), ClassLabel("c7"),
           ClassLabel("d1"), ClassLabel("d2", alpha=alpha),
           ClassLabel("d3"), ClassLabel("d4"),
           ClassLabel("d5", beta=beta), ClassLabel("d6"),
           ClassLabel("d7", stu=stu)]
    for r in range(4, n + 2):
        out.append(ClassLabel("r1", r=r))
        out.append(ClassLabel("r2", r=r))
    return out


def d7_canonical_triple(s, t, u):
    """The orbit representative of (s,t,u) under (r^3 s, r^2 t, r u).

    Scaling freedom is fixed by making s a positive integer with every
    prime exponent reduced mod 3 (the unique orbit point minimizing
    |den(s)| then |num(s)|; the sign choice prefers s > 0, which also
    settles u's sign since r is then unique).
    """
    s, t, u = rat(s), rat(t), rat(u)
    if s == 0:
        raise InvalidParameter("triple needs s != 0")
    m = abs(s.numerator * s.denominator ** 2)
    # |s| = m / den^3, so cube-reducing m handles numerator and denominator
    r_cubed_inv = Fraction(1)
    target = 1
    for p, e in factorize(m).items():
        target *= p ** (e % 3)
        r_cubed_inv *= Fraction(p) ** (e - e % 3)
    scale_cubed = Fraction(target, abs(s))  # = r^3 for the |r| we want
    r = rational_cbrt(scale_cubed)
    if r is None or r <= 0:
        raise NlieError(f"no positive rational cube root of {scale_cubed} "
                        "while canonicalizing the d7 triple")
    if s < 0:
        r = -r
    return (r ** 3 * s, r ** 2 * t, r * u)


@dataclass(frozen=True)
class D7Equivalence:
    """Outcome of the d7 parameter test.

    `equivalent` is None when no rational witness exists but the triples
    are consistent over a field closure (the deciding root is irrational),
    True with the witness r, or False when no field extension can help.
    """

    equivalent: Optional[bool]
    r: Optional[Fraction] = None

    @property
    def undecided(self) -> bool:
        return self.equivalent is None


def _d7_yes(r) -> D7Equivalence:
    return D7Equivalence(True, r)


_D7_NO = D7Equivalence(False)
_D7_MAYBE = D7Equivalence(None)


def d7_equivalent(p, q) -> D7Equivalence:
    """Decide existence of rational r != 0 with p = (r^3 s', r^2 t', r u').

    r is forced by u/u' when u' != 0; otherwise jointly by t/t' and s/s';
    otherwise by the cube root of s/s'. Inconsistent triples are False
    outright. Only the last case can come back undecided: with t and u
    both zero the single constraint r^3 = s/s' may have an irrational
    root, while in the middle case r = (s/s')/(t/t') is always rational
    once the cross-consistency (s/s')^2 = (t/t')^3 holds.
    """
    s, t, u = (rat(x) for x in p)
    s2, t2, u2 = (rat(x) for x in q)
    if s == 0 or s2 == 0:
        raise InvalidParameter("d7 triples need s != 0")

    def check(r):
        return r != 0 and s == r ** 3 * s2 and t == r ** 2 * t2 and u == r * u2

    if u2 != 0:
        r = u / u2
        return _d7_yes(r) if check(r) else _D7_NO
    if u != 0:
        return _D7_NO
    if t2 != 0:
        if t == 0:
            return _D7_NO
        ratio = t / t2
        if (s / s2) ** 2 != ratio ** 3:
            return _D7_NO
        r = (s / s2) / ratio
        if not check(r):
            raise NlieError(f"the forced ratio {r} does not carry one d7 "
                            "triple onto the other")
        return _d7_yes(r)
    if t != 0:
        return _D7_NO
    root = rational_cbrt(s / s2)
    if root is None:
        return _D7_MAYBE
    return _d7_yes(root)


@lru_cache(maxsize=None)
def signature_table(n: int) -> Dict[ClassLabel, InvariantSignature]:
    """Invariant signatures of every catalog class at arity n in {3,4,5}.

    Parametric families are sampled at one parameter value; the sampled
    label is the key. Distinct families can share a signature (that is
    exactly what the classifier's normalization stage is for), but most
    pairs separate here already.
    """
    if n not in (3, 4, 5):
        raise UnsupportedArity(f"signature table is precomputed for arity 3..5, got {n}")
    table = {}
    for label in np1_labels(n) + np2_labels(n):
        table[label] = invariant_signature(canonical(n, label))
    return table
