"""Bracket evaluation, Jacobi checking, and the invariant machinery.

The Jacobi oracle here re-derives the identity on random coordinate
vectors with bracket_eval only, so it shares no code path with
check_jacobi's basis-tuple reduction.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlie.algebra import (
    Algebra,
    Subspace,
    ad_map,
    bracket_eval,
    center,
    check_derivation,
    check_jacobi,
    derivation_algebra,
    derived_subalgebra,
    sort_with_sign,
    strip_central_summand,
    table_in_basis,
    unit_vec,
    zero_vec,
)
from nlie.catalog import canonical, np1_labels
from nlie.errors import DimensionMismatch, InvalidAlgebra, SingularMatrix
from nlie.exactlin import Matrix, det, invert

F = Fraction


def u(d, i, c=1):
    return tuple(F(c) if j == i else F(0) for j in range(d))


# Jacobi-valid fixtures on five generators, arity 3.

JORDAN_LIKE = Algebra(3, 5, {
    (1, 2, 3): u(5, 0),
    (2, 3, 4): tuple(F(x) for x in (0, 1, 1, 0, 0)),
    (1, 3, 4): u(5, 2),
    (0, 3, 4): u(5, 0),
})

WEIGHTED_DIAG = Algebra(3, 5, {
    (1, 2, 3): u(5, 0),
    (2, 3, 4): u(5, 2),
    (1, 3, 4): u(5, 1),
    (0, 3, 4): u(5, 0, 2),
})

CYCLIC3 = Algebra(3, 5, {
    (1, 2, 3): u(5, 0),
    (0, 2, 3): u(5, 1),
    (0, 1, 3): u(5, 2),
})

SELF_FEEDING = Algebra(3, 5, {(0, 1, 2): u(5, 0)})

LINE_IN_CENTER = Algebra(3, 5, {(1, 2, 3): u(5, 0)})

ABELIAN = Algebra.abelian(3, 5)

VALID_FIXTURES = [JORDAN_LIKE, WEIGHTED_DIAG, CYCLIC3, SELF_FEEDING,
                  LINE_IN_CENTER, ABELIAN]

# Fails the derivation identity, e.g. at x=(1,2,3), y=(2,4).
BROKEN = Algebra(3, 5, {(0, 1, 2): u(5, 3), (2, 3, 4): u(5, 0)})


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def vectors(d):
    return st.lists(small_rationals, min_size=d, max_size=d).map(tuple)


class TestConstruction:
    def test_arity_too_small(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(1, 3, {})

    def test_dim_below_arity(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(3, 2, {})

    def test_key_must_ascend(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(3, 5, {(2, 1, 3): u(5, 0)})

    def test_key_no_repeats(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(3, 5, {(1, 1, 3): u(5, 0)})

    def test_key_in_range(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(3, 5, {(1, 2, 5): u(5, 0)})

    def test_value_length(self):
        with pytest.raises(InvalidAlgebra):
            Algebra(3, 5, {(1, 2, 3): (1, 0)})

    def test_zero_values_dropped(self):
        a = Algebra(3, 5, {(1, 2, 3): zero_vec(5)})
        assert a.table == {}
        assert a == ABELIAN

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ABELIAN.dim = 7

    def test_equality_and_hash(self):
        again = Algebra(3, 5, {(0, 1, 2): ("1", 0, 0, 0, 0)})
        assert again == SELF_FEEDING
        assert hash(again) == hash(SELF_FEEDING)
        assert again != LINE_IN_CENTER


class TestSortWithSign:
    def test_already_sorted(self):
        assert sort_with_sign((0, 2, 4)) == ((0, 2, 4), 1)

    def test_single_swap(self):
        assert sort_with_sign((2, 0, 4)) == ((0, 2, 4), -1)

    def test_rotation_is_even(self):
        assert sort_with_sign((4, 0, 2)) == ((0, 2, 4), 1)

    def test_repeat_kills(self):
        key, sign = sort_with_sign((3, 1, 3))
        assert key is None and sign == 0


class TestBracketEval:
    def test_plain_lookup(self):
        assert bracket_eval(JORDAN_LIKE, [u(5, 1), u(5, 2), u(5, 3)]) == u(5, 0)

    def test_permuted_basis_sign(self):
        # even permutation of (e2, e3, e4)
        assert bracket_eval(JORDAN_LIKE, [u(5, 3), u(5, 1), u(5, 2)]) == u(5, 0)
        assert bracket_eval(JORDAN_LIKE, [u(5, 2), u(5, 1), u(5, 3)]) == u(5, 0, -1)

    def test_multilinear_expansion(self):
        x = tuple(F(a) for a in (0, 2, 0, 0, 0))
        y = tuple(F(a) for a in (0, 0, 1, 1, 0))
        z = u(5, 3)
        assert bracket_eval(SELF_FEEDING, [x, y, z]) == zero_vec(5)
        assert bracket_eval(JORDAN_LIKE, [x, y, z]) == u(5, 0, 2)

    def test_wrong_arity(self):
        with pytest.raises(DimensionMismatch):
            bracket_eval(JORDAN_LIKE, [u(5, 0), u(5, 1)])

    @given(x=vectors(5), y=vectors(5), z=vectors(5))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry(self, x, y, z):
        fwd = bracket_eval(JORDAN_LIKE, [x, y, z])
        swapped = bracket_eval(JORDAN_LIKE, [y, x, z])
        assert fwd == tuple(-c for c in swapped)
        assert bracket_eval(JORDAN_LIKE, [x, x, z]) == zero_vec(5)

    @given(x=vectors(5), y=vectors(5), z=vectors(5), c=small_rationals)
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_first_slot(self, x, y, z, c):
        scaled = bracket_eval(WEIGHTED_DIAG, [tuple(c * t for t in x), y, z])
        plain = bracket_eval(WEIGHTED_DIAG, [x, y, z])
        assert scaled == tuple(c * t for t in plain)


def jacobi_residual_on_vectors(a, xs, ys):
    """The derivation identity evaluated literally on coordinate vectors."""
    lhs = bracket_eval(a, [bracket_eval(a, xs)] + ys)
    rhs = zero_vec(a.dim)
    for i in range(a.arity):
        inner = bracket_eval(a, [xs[i]] + ys)
        replaced = list(xs)
        replaced[i] = inner
        term = bracket_eval(a, replaced)
        rhs = tuple(p + q for p, q in zip(rhs, term))
    return tuple(p - q for p, q in zip(lhs, rhs))


class TestJacobi:
    @pytest.mark.parametrize("a", VALID_FIXTURES)
    def test_fixtures_pass(self, a):
        report = check_jacobi(a)
        assert report.ok
        assert report.violations == ()

    def test_broken_fixture_fails(self):
        report = check_jacobi(BROKEN)
        assert not report.ok
        hits = {(v.x_combo, v.y_tuple): v.residual for v in report.violations}
        assert ((1, 2, 3), (2, 4)) in hits
        assert hits[((1, 2, 3), (2, 4))] == u(5, 3)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_oracle_agrees_on_valid(self, data):
        a = data.draw(st.sampled_from([JORDAN_LIKE, WEIGHTED_DIAG, CYCLIC3]))
        xs = [data.draw(vectors(5)) for _ in range(3)]
        ys = [data.draw(vectors(5)) for _ in range(2)]
        assert jacobi_residual_on_vectors(a, xs, ys) == zero_vec(5)

    def test_oracle_sees_broken(self):
        xs = [u(5, 1), u(5, 2), u(5, 3)]
        ys = [u(5, 2), u(5, 4)]
        assert jacobi_residual_on_vectors(BROKEN, xs, ys) == u(5, 3)

    def test_full_tuple_cross_check(self):
        # unsorted and repeated index tuples must agree with the reduction
        a = WEIGHTED_DIAG
        xs = [u(5, 3), u(5, 1), u(5, 4)]
        ys = [u(5, 3), u(5, 3)]
        assert jacobi_residual_on_vectors(a, xs, ys) == zero_vec(5)


mixed_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_rationals = mixed_rationals.filter(bool)

# Valid tables at arity 3 (dims 4 and 5) and arity 4 (dim 5).
VALID_TABLES = (VALID_FIXTURES + [canonical(3, lab) for lab in np1_labels(3)]
                + [canonical(4, lab) for lab in np1_labels(4)])


@st.composite
def random_tables(draw, dims=((3, 4), (3, 5), (4, 5))):
    """Tables with mixed denominators; almost all violate the identity."""
    n, d = draw(st.sampled_from(dims))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(d), n))),
                         min_size=1, max_size=4, unique=True))
    return Algebra(n, d, {key: draw(st.lists(mixed_rationals, min_size=d, max_size=d))
                          for key in keys})


@st.composite
def rescaled_valid_tables(draw):
    """A valid table times a constant, in the basis lam_i e_i: still valid
    (the identity is homogeneous), now with mixed denominators."""
    a = draw(st.sampled_from(VALID_TABLES))
    c = draw(nonzero_rationals)
    lam = draw(st.lists(nonzero_rationals, min_size=a.dim, max_size=a.dim))
    return Algebra(a.arity, a.dim, {
        key: [c * prod(lam[i] for i in key) * value[r] / lam[r] for r in range(a.dim)]
        for key, value in a.table.items()})


def oracle_violations(a):
    """(x, y, residual) for every ascending basis pair the literal identity
    fails on, in check_jacobi's order (x lex, then y lex)."""
    e = [unit_vec(a.dim, i) for i in range(a.dim)]
    out = []
    for x in combinations(range(a.dim), a.arity):
        for y in combinations(range(a.dim), a.arity - 1):
            r = jacobi_residual_on_vectors(a, [e[i] for i in x], [e[j] for j in y])
            if any(r):
                out.append((x, y, r))
    return out


class TestJacobiAgainstOracle:
    """check_jacobi runs on the denominator-cleared integer table; the oracle
    evaluates the identity with bracket_eval on Fractions."""

    def assert_matches_oracle(self, a):
        report = check_jacobi(a)
        want = oracle_violations(a)
        assert [(v.x_combo, v.y_tuple, v.residual) for v in report.violations] == want
        assert report.ok == (not want)

    @given(random_tables())
    @settings(max_examples=30, deadline=None)
    def test_random_tables(self, a):
        self.assert_matches_oracle(a)

    @given(rescaled_valid_tables())
    @settings(max_examples=20, deadline=None)
    def test_rescaled_valid_tables(self, a):
        assert check_jacobi(a).ok
        self.assert_matches_oracle(a)

    def test_broken_fixture(self):
        self.assert_matches_oracle(BROKEN)
        self.assert_matches_oracle(Algebra(3, 5, {key: [x / 6 for x in value]
                                                  for key, value in BROKEN.table.items()}))


class TestSubspace:
    def test_from_vectors_echelon(self):
        s = Subspace.from_vectors(3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)])
        assert s.dim == 2
        assert s.basis[0] == (F(1), F(1), F(0))

    def test_contains(self):
        s = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        assert s.contains((3, -2, 0))
        assert not s.contains((0, 0, 1))
        assert s.contains(zero_vec(3))

    def test_intersect(self):
        left = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        right = Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
        hit = left.intersect(right)
        assert hit.dim == 1
        assert hit.contains((1, 1, 0))

    def test_intersect_trivial(self):
        left = Subspace.from_vectors(3, [(1, 0, 0)])
        right = Subspace.from_vectors(3, [(0, 1, 0)])
        assert left.intersect(right).dim == 0

    def test_plus(self):
        left = Subspace.from_vectors(3, [(1, 0, 0)])
        right = Subspace.from_vectors(3, [(1, 1, 0)])
        assert left.plus(right).dim == 2

    def test_annihilator(self):
        s = Subspace.from_vectors(3, [(1, 2, 0)])
        rows = s.annihilator_rows()
        assert len(rows) == 2
        for w in rows:
            assert sum(a * b for a, b in zip(w, (1, 2, 0))) == 0


class TestInvariants:
    def test_derived_dims(self):
        assert derived_subalgebra(JORDAN_LIKE).dim == 3
        assert derived_subalgebra(WEIGHTED_DIAG).dim == 3
        assert derived_subalgebra(CYCLIC3).dim == 3
        assert derived_subalgebra(SELF_FEEDING).dim == 1
        assert derived_subalgebra(ABELIAN).dim == 0

    def test_center_of_jordan_like_is_zero(self):
        assert center(JORDAN_LIKE).dim == 0

    def test_center_of_line_fixture(self):
        z = center(LINE_IN_CENTER)
        assert z.dim == 2
        assert z.contains(u(5, 0))
        assert z.contains(u(5, 4))

    def test_center_of_self_feeding(self):
        z = center(SELF_FEEDING)
        assert z.dim == 2
        assert z.contains(u(5, 3))
        assert z.contains(u(5, 4))
        assert not z.contains(u(5, 0))

    def test_center_of_cyclic3(self):
        z = center(CYCLIC3)
        assert z.dim == 1
        assert z.contains(u(5, 4))

    def test_abelian_center_is_everything(self):
        assert center(ABELIAN).dim == 5


class TestDerivations:
    def test_abelian_derivations_unconstrained(self):
        assert derivation_algebra(ABELIAN).dim == 25

    def test_jordan_like_derivation_dim(self):
        # cross-checked with an independent symbolic solver; the value is
        # stable under the alpha parameter in the (2,3,4) entry
        assert derivation_algebra(JORDAN_LIKE).dim == 10

    def test_weighted_diag_derivation_dim(self):
        assert derivation_algebra(WEIGHTED_DIAG).dim == 12

    @pytest.mark.parametrize("a", [JORDAN_LIKE, WEIGHTED_DIAG, CYCLIC3,
                                   SELF_FEEDING])
    def test_solver_output_passes_direct_check(self, a):
        for mat in derivation_algebra(a).basis:
            assert check_derivation(a, mat)

    def test_non_derivation_rejected(self):
        # e1 -> e2 alone breaks the self-feeding bracket
        mat = Matrix.from_columns([u(5, 1), zero_vec(5), zero_vec(5),
                                   zero_vec(5), zero_vec(5)])
        assert not check_derivation(SELF_FEEDING, mat)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_ad_maps_are_derivations(self, data):
        a = data.draw(st.sampled_from([JORDAN_LIKE, WEIGHTED_DIAG, CYCLIC3]))
        fixed = [data.draw(vectors(5)) for _ in range(2)]
        assert check_derivation(a, ad_map(a, fixed))

    def test_ad_map_matches_bracket(self):
        m = ad_map(JORDAN_LIKE, [u(5, 2), u(5, 3)])
        x = tuple(F(c) for c in (1, 2, 0, 0, 1))
        assert tuple(m.apply(x)) == bracket_eval(JORDAN_LIKE, [x, u(5, 2), u(5, 3)])


class TestRebase:
    def test_identity_basis(self):
        assert table_in_basis(JORDAN_LIKE, Matrix.identity(5)) == JORDAN_LIKE

    def test_scaling_one_vector(self):
        t = Matrix.diagonal([2, 1, 1, 1, 1])
        out = table_in_basis(SELF_FEEDING, t)
        # [2e1, e2, e3] = 2e1 read in the new basis is again e1'
        assert out == SELF_FEEDING

    def test_swap_changes_table(self):
        cols = [u(5, 1), u(5, 0), u(5, 2), u(5, 3), u(5, 4)]
        out = table_in_basis(SELF_FEEDING, Matrix.from_columns(cols))
        assert out.table == {(0, 1, 2): u(5, 1, -1)}


class TestStripCentralSummand:
    def test_cyclic3_strips_one_line(self):
        core, stripped, change = strip_central_summand(CYCLIC3)
        assert stripped == 1
        assert core.dim == 4
        assert core.arity == 3
        expected = Algebra(3, 4, {
            (1, 2, 3): u(4, 0),
            (0, 2, 3): u(4, 1),
            (0, 1, 3): u(4, 2),
        })
        assert core == expected
        assert change.rows == 5 and change.cols == 5

    def test_core_change_consistency(self):
        core, stripped, change = strip_central_summand(CYCLIC3)
        rebased = table_in_basis(CYCLIC3, change)
        for combo, value in rebased.table.items():
            assert combo[-1] < core.dim
            assert value[core.dim:] == zero_vec(stripped)

    def test_self_feeding_strips_two(self):
        core, stripped, _ = strip_central_summand(SELF_FEEDING)
        assert stripped == 2
        assert core == Algebra(3, 3, {(0, 1, 2): u(3, 0)})

    def test_line_fixture_strips_one(self):
        # center is two dimensional but one direction sits in the
        # derived algebra and must stay
        core, stripped, _ = strip_central_summand(LINE_IN_CENTER)
        assert stripped == 1
        assert core.dim == 4
        assert derived_subalgebra(core).dim == 1

    def test_abelian_keeps_arity_many_dims(self):
        core, stripped, _ = strip_central_summand(ABELIAN)
        assert stripped == 2
        assert core == Algebra.abelian(3, 3)

    def test_centerless_strips_nothing(self):
        core, stripped, change = strip_central_summand(JORDAN_LIKE)
        assert stripped == 0
        assert core.dim == 5

    def test_idempotent_on_core(self):
        core, _, _ = strip_central_summand(CYCLIC3)
        again, stripped, _ = strip_central_summand(core)
        assert stripped == 0
        assert again.dim == core.dim


def table_in_basis_oracle(a, t):
    """The rebased table entry by entry: t^-1 applied to the bracket of the
    new basis vectors, on Fractions."""
    tinv, cols = invert(t), t.columns()
    return Algebra(a.arity, a.dim, {
        combo: tinv.apply(bracket_eval(a, [cols[i] for i in combo]))
        for combo in combinations(range(a.dim), a.arity)})


class TestRebaseAgainstOracle:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rational_basis_changes(self, data):
        # dimensions n+1 and n+2 at arity 3 and 4
        a = data.draw(random_tables(dims=((3, 4), (3, 5), (4, 5), (4, 6))))
        rows = data.draw(st.lists(st.lists(mixed_rationals, min_size=a.dim, max_size=a.dim),
                                  min_size=a.dim, max_size=a.dim))
        t = Matrix(rows)
        assume(det(t) != 0 and any(x.denominator > 1 for row in rows for x in row))
        assert table_in_basis(a, t) == table_in_basis_oracle(a, t)

    @given(rescaled_valid_tables())
    @settings(max_examples=10, deadline=None)
    def test_valid_tables_under_a_rational_shear(self, a):
        cols = [u(a.dim, i) for i in range(a.dim)]
        cols[0] = tuple(F(1, 3) * (i + 1) for i in range(a.dim))
        t = Matrix.from_columns(cols)
        moved = table_in_basis(a, t)
        assert moved == table_in_basis_oracle(a, t)
        assert check_jacobi(moved).ok

    def test_singular_basis_raises(self):
        t = Matrix.from_columns([u(5, 0), u(5, 1), u(5, 2), u(5, 3),
                                 tuple(F(1, 2) * x for x in (1, 1, 0, 0, 0))])
        with pytest.raises(SingularMatrix):
            table_in_basis(JORDAN_LIKE, t)
