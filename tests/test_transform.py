"""Base-change transport: the multilinear path against the matrix path."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlie.algebra import Algebra, check_jacobi
from nlie.catalog import canonical, np2_labels
from nlie.errors import DimensionMismatch, SingularMatrix
from nlie.exactlin import Matrix, det, rank
from nlie.transform import (
    EntryStream,
    algebra_from_structure_matrix,
    change_basis_matrix,
    change_basis_multilinear,
    random_basis_change,
    structure_matrix,
    verify_isomorphism,
)

F = Fraction


def u(d, i, c=1):
    return tuple(F(c) if j == i else F(0) for j in range(d))


LINE = Algebra(3, 5, {(1, 2, 3): u(5, 0)})

MIXED = Algebra(3, 5, {
    (1, 2, 3): u(5, 0),
    (2, 3, 4): tuple(F(x) for x in (0, 1, 1, 0, 0)),
    (1, 3, 4): u(5, 2),
    (0, 3, 4): u(5, 0),
})

TWO_STEP = Algebra(3, 5, {
    (1, 2, 3): u(5, 0),
    (2, 3, 4): u(5, 1),
})


def mixed_table(n):
    """A dimension-(n+2) table with mixed denominators at arity n (not a
    Filippov algebra; both routes are linear in the table)."""
    d = n + 2
    keys = [tuple(k for k in range(d) if k not in (i, i + 1)) for i in range(d - 1)]
    return Algebra(n, d, {
        key: tuple(F((i + 1) * (j - 2), (i + j) % 4 + 1) for j in range(d))
        for i, key in enumerate(keys)})


def d7_table(s, t, v):
    return Algebra(3, 5, {
        (0, 3, 4): u(5, 1),
        (1, 3, 4): u(5, 2),
        (2, 3, 4): (F(s), F(t), F(v), F(0), F(0)),
    })


class TestStructureMatrix:
    def test_shape(self):
        b = structure_matrix(MIXED)
        assert (b.rows, b.cols) == (5, 10)

    def test_column_layout(self):
        # lex pair order: (0,1),(0,2),(0,3),(0,4),(1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
        b = structure_matrix(MIXED)
        assert b.column(0) == (F(0), F(1), F(1), F(0), F(0))  # omit {0,1}
        assert b.column(3) == u(5, 0)                          # omit {0,4}
        assert b.column(4) == u(5, 0)                          # omit {1,2}
        assert b.column(7) == (F(0),) * 5                      # omit {2,3}

    def test_round_trip(self):
        again = algebra_from_structure_matrix(3, structure_matrix(MIXED))
        assert again == MIXED

    def test_rank_equals_derived_dim(self):
        assert rank(structure_matrix(TWO_STEP)) == 2
        assert rank(structure_matrix(LINE)) == 1
        assert rank(structure_matrix(MIXED)) == 3

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            structure_matrix(Algebra(3, 4, {}))


class TestMultilinearPath:
    def test_scaling_the_value_direction(self):
        # f1 = 2 e1, so the bracket value e1 reads as f1/2
        t = Matrix.diagonal([2, 1, 1, 1, 1])
        out = change_basis_multilinear(LINE, t)
        assert out.table == {(1, 2, 3): u(5, 0, F(1, 2))}

    def test_composition(self):
        s = random_basis_change(5, seed=11)
        t = random_basis_change(5, seed=12)
        once = change_basis_multilinear(change_basis_multilinear(MIXED, s), t)
        direct = change_basis_multilinear(MIXED, s @ t)
        assert once == direct

    def test_shear_substitution_cleans_last_column(self):
        # adding multiples of earlier vectors to e5 can cancel every
        # bracket that involves it
        dirty = Algebra(3, 5, {
            (1, 2, 3): u(5, 0),
            (2, 3, 4): u(5, 0, 2),
            (1, 3, 4): u(5, 0, 3),
            (1, 2, 4): u(5, 0, 5),
        })
        cols = [u(5, 0), u(5, 1), u(5, 2), u(5, 3),
                tuple(F(x) for x in (0, -2, 3, -5, 1))]
        cleaned = change_basis_multilinear(dirty, Matrix.from_columns(cols))
        assert cleaned == LINE

    def test_dim_need_not_be_arity_plus_two(self):
        a = Algebra(3, 4, {(0, 1, 2): u(4, 3)})
        t = Matrix.diagonal([1, 1, 1, 3])
        out = change_basis_multilinear(a, t)
        assert out.table == {(0, 1, 2): u(4, 3, F(1, 3))}


class TestDualPath:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("a", [LINE, MIXED, TWO_STEP])
    def test_paths_agree_on_seeded_matrices(self, a, seed):
        t = random_basis_change(5, seed=seed)
        assert change_basis_matrix(a, t) == change_basis_multilinear(a, t)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_paths_agree_on_random_streams(self, data):
        a = data.draw(st.sampled_from([LINE, MIXED, TWO_STEP]))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        t = random_basis_change(5, seed=seed, bound=2)
        assert change_basis_matrix(a, t) == change_basis_multilinear(a, t)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_paths_agree_on_rational_matrices(self, data):
        # arity 3 to 5, catalog tables and a mixed-denominator table, basis
        # matrices with mixed denominators; a singular draw must raise on
        # both routes
        n = data.draw(st.sampled_from([3, 4, 5]))
        a = data.draw(st.sampled_from(
            [canonical(n, label) for label in np2_labels(n)] + [mixed_table(n)]))
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        t = Matrix(data.draw(st.lists(
            st.lists(entries, min_size=n + 2, max_size=n + 2),
            min_size=n + 2, max_size=n + 2)))
        if det(t) == 0:
            with pytest.raises(SingularMatrix):
                change_basis_matrix(a, t)
            with pytest.raises(SingularMatrix):
                change_basis_multilinear(a, t)
        else:
            assert change_basis_matrix(a, t) == change_basis_multilinear(a, t)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_paths_agree_on_every_catalog_class(self, n):
        t = Matrix([[F(x, 1 + (i * j) % 3) for j, x in enumerate(row)]
                    for i, row in enumerate(random_basis_change(n + 2, seed=n).entries)])
        assert det(t) != 0
        for a in [canonical(n, label) for label in np2_labels(n)] + [mixed_table(n)]:
            assert change_basis_matrix(a, t) == change_basis_multilinear(a, t)

    @pytest.mark.parametrize("a", [LINE, MIXED, mixed_table(4)])
    def test_singular_matrix_raises_on_both_paths(self, a):
        d = a.dim
        t = Matrix([[1 if j == i else 0 for j in range(d)] for i in range(d - 1)]
                   + [[F(1, 2)] * (d - 1) + [0]])
        with pytest.raises(SingularMatrix):
            change_basis_matrix(a, t)
        with pytest.raises(SingularMatrix):
            change_basis_multilinear(a, t)

    def test_diagonal_reweights_parameters(self):
        t = Matrix.diagonal([1, 2, 4, 2, 1])
        moved = change_basis_matrix(d7_table(1, 1, 1), t)
        assert moved == d7_table(8, 4, 2)

    def test_jacobi_survives_transport(self):
        t = random_basis_change(5, seed=77)
        assert check_jacobi(change_basis_matrix(MIXED, t)).ok

    def test_requires_full_dimension(self):
        a = Algebra(3, 4, {(0, 1, 2): u(4, 3)})
        with pytest.raises(DimensionMismatch):
            change_basis_matrix(a, Matrix.identity(4))


class TestVerifyIsomorphism:
    def test_identity_witness(self):
        assert verify_isomorphism(MIXED, MIXED, Matrix.identity(5))

    def test_scaled_line(self):
        scaled = Algebra(3, 5, {(1, 2, 3): u(5, 0, 7)})
        # e1 of `scaled` must land on (1/7) e1 of LINE
        t = Matrix.diagonal([F(1, 7), 1, 1, 1, 1])
        assert verify_isomorphism(scaled, LINE, t)
        assert not verify_isomorphism(scaled, LINE, Matrix.identity(5))

    def test_direction_matters(self):
        scaled = Algebra(3, 5, {(1, 2, 3): u(5, 0, 7)})
        assert not verify_isomorphism(LINE, scaled, Matrix.diagonal(
            [F(1, 7), 1, 1, 1, 1]))
        assert verify_isomorphism(LINE, scaled, Matrix.diagonal(
            [7, 1, 1, 1, 1]))

    def test_conjugated_pair(self):
        t = random_basis_change(5, seed=5)
        moved = change_basis_multilinear(MIXED, t)
        assert verify_isomorphism(moved, MIXED, t)

    def test_non_isomorphic_tables(self):
        assert not verify_isomorphism(LINE, Algebra.abelian(3, 5),
                                      Matrix.identity(5))

    def test_mismatched_shapes(self):
        assert not verify_isomorphism(LINE, Algebra.abelian(3, 4),
                                      Matrix.identity(5))

    def test_singular_witness_is_just_false(self):
        assert not verify_isomorphism(LINE, LINE, Matrix.zero(5, 5))


class TestRandomBasisChange:
    def test_deterministic(self):
        assert random_basis_change(5, seed=42) == random_basis_change(5, seed=42)

    def test_seeds_differ(self):
        assert random_basis_change(5, seed=1) != random_basis_change(5, seed=2)

    def test_invertible_and_bounded(self):
        for seed in range(20):
            m = random_basis_change(4, seed=seed, bound=2)
            assert det(m) != 0
            assert all(abs(m[i, j]) <= 2 for i in range(4) for j in range(4))

    def test_stream_continues_past_singular_draws(self):
        # a 1x1 draw is singular exactly when the entry is 0, so the
        # sampler must skip zeros
        m = random_basis_change(1, seed=0, bound=1)
        assert m[0, 0] != 0

    def test_entry_stream_window(self):
        gen = EntryStream(seed=9)
        vals = [gen.next_entry(3) for _ in range(200)]
        assert set(vals) <= set(range(-3, 4))
        assert len(set(vals)) > 3

    def test_bad_arguments(self):
        with pytest.raises(DimensionMismatch):
            random_basis_change(0, seed=1)
        with pytest.raises(ValueError):
            random_basis_change(3, seed=1, bound=0)
