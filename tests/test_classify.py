import importlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nlie.algebra import Algebra, table_in_basis
from nlie.catalog import (
    ClassLabel, canonical, d7_canonical_triple, np1_labels, np2_labels,
)
from nlie.classify import (
    EXACT, FAMILY_ONLY, UNRESOLVED, classify, classify_np1, classify_np2,
    _ternary_zero,
)
from nlie.errors import DimensionMismatch, InvalidAlgebra, UnsupportedArity
from nlie.exactlin import Matrix, invert
from nlie.transform import (
    change_basis_multilinear, random_basis_change, verify_isomorphism,
)

F = Fraction


def unit(d, i, scale=1):
    return tuple(F(scale) if j == i else F(0) for j in range(d))


def conjugated(n, lab, seed, bound=3):
    base = canonical(n, lab)
    t = random_basis_change(base.dim, seed=seed, bound=bound)
    return base, table_in_basis(base, t)


def assert_exact(moved, verdict, lab):
    assert verdict.status == EXACT
    assert verdict.label == lab
    assert verify_isomorphism(moved, canonical(moved.arity, lab),
                              verdict.witness)


class TestCanonicalRoundTrips:
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_catalog_entry_recovers_itself(self, n):
        for lab in np1_labels(n) + np2_labels(n):
            a = canonical(n, lab)
            v = classify(a)
            assert v.status == EXACT, (str(lab), v.status, v.notes)
            assert v.label == lab
            assert verify_isomorphism(a, a, v.witness)

    def test_steps_multiply_out_to_the_witness(self):
        """The recorded trail is the full basis change: pushing the input
        through the product of all step matrices lands on the canonical
        table, and the witness is that product's inverse."""
        _, moved = conjugated(3, ClassLabel("d6"), seed=41)
        v = classify(moved)
        assert v.status == EXACT
        total = Matrix.identity(moved.dim)
        for step in v.steps:
            assert step.reason
            total = total @ step.matrix
        assert table_in_basis(moved, total) == canonical(3, v.label)
        assert invert(total) == v.witness


HARD_CASES = [
    # split-central cores whose Gram matrices defeat naive searches
    (4, ClassLabel("d4"), 7 * 1009 + 7),
    (4, ClassLabel("d4"), 24 * 1009 + 7),
    (4, ClassLabel("r2", r=4), 17 * 1009 + 7),
    (4, ClassLabel("r2", r=5), 11 * 1009 + 7),
    (4, ClassLabel("r2", r=5), 24 * 1009 + 7),
]


class TestRandomBasisRoundTrips:
    @pytest.mark.parametrize("lab", [
        ClassLabel("B2"), ClassLabel("C3"), ClassLabel("D_r", r=4),
        ClassLabel("c3"), ClassLabel("d1"),
        ClassLabel("d5", beta=F(2)), ClassLabel("d7", stu=(1, 1, 1)),
        ClassLabel("r1", r=4), ClassLabel("r2", r=4),
    ], ids=str)
    @pytest.mark.parametrize("seed", [5, 29])
    def test_label_survives_a_basis_change(self, lab, seed):
        _, moved = conjugated(3, lab, seed)
        assert_exact(moved, classify(moved), lab)

    @pytest.mark.parametrize("n,lab,seed", HARD_CASES, ids=lambda x: str(x))
    def test_messy_gram_cases(self, n, lab, seed):
        _, moved = conjugated(n, lab, seed)
        assert_exact(moved, classify(moved), lab)

    def test_composition_of_two_changes(self):
        base = canonical(3, ClassLabel("c4"))
        s = random_basis_change(5, seed=8, bound=2)
        t = random_basis_change(5, seed=80, bound=2)
        moved = table_in_basis(table_in_basis(base, s), t)
        assert_exact(moved, classify(moved), ClassLabel("c4"))


class TestParameterRecovery:
    @pytest.mark.parametrize("lab", [
        ClassLabel("C2", alpha=F(2, 3)),
        ClassLabel("c5", alpha=F(-1)),
        ClassLabel("c6", alpha=F(2, 3)),
        ClassLabel("d2", alpha=F(-1)),
        ClassLabel("d5", beta=F(1, 2)),
    ], ids=str)
    def test_parameters_come_back_exactly(self, lab):
        _, moved = conjugated(3, lab, seed=13)
        assert_exact(moved, classify(moved), lab)

    def test_nearby_parameters_are_told_apart(self):
        for la, lb in [
            (ClassLabel("d5", beta=F(2)), ClassLabel("d5", beta=F(3))),
            (ClassLabel("d2", alpha=F(1)), ClassLabel("d2", alpha=F(2))),
        ]:
            assert classify(canonical(3, la)).label != \
                classify(canonical(3, lb)).label

    def test_d7_triple_is_canonicalized(self):
        stu = (F(-2), F(3), F(1, 2))
        _, moved = conjugated(3, ClassLabel("d7", stu=stu), seed=17)
        v = classify(moved)
        assert v.status == EXACT
        assert v.label == ClassLabel("d7", stu=d7_canonical_triple(*stu))

    def test_c6_at_the_collapse_point_lands_in_c4(self):
        # alpha == 2 makes the defining map diagonalizable with a double
        # eigenvalue, which is exactly the c4 table
        v = classify(canonical(3, ClassLabel("c6", alpha=F(2))))
        assert v.status == EXACT
        assert v.label == ClassLabel("c4")


def one_map_algebra(cols):
    """Arity-3 algebra on Q^5 whose only products are [e_i, e_4, e_5]."""
    table = {}
    for i, col in enumerate(cols):
        if any(col):
            vec = [F(0)] * 5
            for j, c in enumerate(col):
                vec[j] = F(c)
            table[(i, 3, 4)] = tuple(vec)
    return Algebra(3, 5, table)


class TestDegenerateDefiningMaps:
    """Tables built from non-semisimple or singular one-maps get rerouted
    to whichever family their normal form actually belongs to."""

    def test_nilpotent_companion_block(self):
        v = classify(one_map_algebra([(0, 0, 0), (1, 0, 0), (0, 1, 0)]))
        assert v.status == EXACT and v.label == ClassLabel("c1")

    def test_jordan_block_plus_kernel(self):
        v = classify(one_map_algebra([(2, 0, 0), (1, 2, 0), (0, 0, 0)]))
        assert v.status == EXACT
        assert v.label == ClassLabel("c5", alpha=F(-1, 4))

    def test_projection_map(self):
        v = classify(one_map_algebra([(1, 0, 0), (0, 1, 0), (0, 0, 0)]))
        assert v.status == EXACT and v.label == ClassLabel("c7")

    def test_repeated_eigenvalue_fixed_point(self):
        lab = ClassLabel("C2", alpha=F(-1, 4))
        v = classify(canonical(3, lab))
        assert v.status == EXACT and v.label == lab


class TestFamilyOnlyObstructions:
    def test_definite_gram_blocks_the_witness(self):
        """A derived-rank-3 table whose invariant form is definite: the
        family is pinned down, but no rational change of basis reaches
        the canonical table, whose form is split."""
        a = Algebra(3, 4, {(1, 2, 3): unit(4, 0, -1),
                           (0, 2, 3): unit(4, 1),
                           (0, 1, 3): unit(4, 2, -1)})
        v = classify(a)
        assert v.status == FAMILY_ONLY
        assert v.label == ClassLabel("D_r", r=3)
        assert v.witness is None
        assert any("congruence" in note for note in v.notes)

    def test_nonsquare_scaling_blocks_the_witness(self):
        a = Algebra(3, 4, {(0, 2, 3): unit(4, 1), (1, 2, 3): unit(4, 0, 2)})
        v = classify(a)
        assert v.status == FAMILY_ONLY
        assert v.label == ClassLabel("C1")
        assert v.witness is None

    def test_family_only_cases_stay_fast(self):
        import time
        a = Algebra(3, 4, {(1, 2, 3): unit(4, 0, -1),
                           (0, 2, 3): unit(4, 1),
                           (0, 1, 3): unit(4, 2, -1)})
        t0 = time.time()
        classify(a)
        assert time.time() - t0 < 5.0


class TestUnresolvedGaps:
    def test_sparse_two_row_table(self):
        a = Algebra(3, 5, {(0, 2, 3): unit(5, 0), (2, 3, 4): unit(5, 1)})
        v = classify(a)
        assert v.status == UNRESOLVED
        assert v.label is None and v.witness is None
        assert v.notes

    def test_unipotent_one_map(self):
        a = Algebra(3, 5, {(0, 3, 4): unit(5, 0),
                           (1, 3, 4): (F(1), F(1), F(0), F(0), F(0)),
                           (2, 3, 4): unit(5, 2)})
        v = classify(a)
        assert v.status == UNRESOLVED
        assert v.candidates

    def test_unresolved_reports_candidate_families(self):
        a = Algebra(3, 5, {(0, 2, 3): unit(5, 0), (2, 3, 4): unit(5, 1)})
        v = classify(a)
        assert all(isinstance(c, str) for c in v.candidates)


class TestValidation:
    def test_arity_two_is_out_of_scope(self):
        a = Algebra(2, 3, {(0, 1): unit(3, 2)})
        with pytest.raises(UnsupportedArity):
            classify(a)

    def test_dimension_window(self):
        a = Algebra(3, 6, {})
        with pytest.raises(DimensionMismatch):
            classify(a)
        with pytest.raises(DimensionMismatch):
            classify_np1(Algebra(3, 5, {}))
        with pytest.raises(DimensionMismatch):
            classify_np2(Algebra(3, 4, {}))

    def test_broken_derivation_identity(self):
        a = Algebra(3, 4, {(0, 1, 2): unit(4, 3), (0, 1, 3): unit(4, 0)})
        with pytest.raises(InvalidAlgebra):
            classify(a)


class TestVerdictStatuses:
    def test_status_constants(self):
        assert {EXACT, FAMILY_ONLY, UNRESOLVED} == \
            {"exact", "family_only", "unresolved"}

    def test_exact_always_carries_a_witness(self):
        for lab in (ClassLabel("a"), ClassLabel("b2"), ClassLabel("C1")):
            v = classify(canonical(3, lab))
            assert (v.witness is not None) == (v.status == EXACT)


class TestTernaryZero:
    """_ternary_zero(a, b, c) finds (x, y, z) with ax^2 + by^2 + cz^2 == 0
    or certifies that no rational zero exists."""

    @pytest.mark.parametrize("coeffs", [
        (1, 1, -2), (2, 3, -5), (1, -1, 5), (3, -2, -1), (5, -3, -2),
        (1, 1, -5), (7, -2, -5),
    ])
    def test_solvable_instances(self, coeffs):
        sol = _ternary_zero(*(F(c) for c in coeffs))
        assert sol is not None and any(sol)
        assert sum(F(c) * v * v for c, v in zip(coeffs, sol)) == 0

    @pytest.mark.parametrize("coeffs", [
        (1, 1, -3),       # blocked at 3
        (2, 3, -1),       # blocked at 3
        (3, 4, -5),       # blocked at 5
        (1, 2, 4),        # definite
        (-1, -1, -7),     # definite
    ])
    def test_refusals(self, coeffs):
        assert _ternary_zero(*(F(c) for c in coeffs)) is None

    small = st.integers(min_value=-30, max_value=30).filter(lambda v: v != 0)

    @settings(max_examples=150, deadline=None)
    @given(small, small, small)
    def test_any_answer_is_an_exact_zero(self, a, b, c):
        sol = _ternary_zero(F(a), F(b), F(c))
        if sol is not None:
            assert any(v != 0 for v in sol)
            assert F(a) * sol[0] ** 2 + F(b) * sol[1] ** 2 \
                + F(c) * sol[2] ** 2 == 0

    @settings(max_examples=60, deadline=None)
    @given(small, small)
    def test_mixed_sign_pythagorean_families(self, a, b):
        # a x^2 - a y^2 + b z^2 always vanishes on (1, 1, 0)
        sol = _ternary_zero(F(a), F(-a), F(b))
        assert sol is not None


def counting_check_jacobi(monkeypatch, *modules):
    """Replace check_jacobi in the given modules by one counting wrapper."""
    real = importlib.import_module("nlie.algebra").check_jacobi
    calls = []

    def counted(a):
        calls.append(a)
        return real(a)

    for name in modules:
        monkeypatch.setattr(importlib.import_module(name), "check_jacobi", counted)
    return calls


class TestValidateOnce:
    """classify checks the derivation identity once, at the public entry;
    the cores and quotients it reclassifies are valid by construction."""

    @pytest.mark.parametrize("lab", [ClassLabel("r2", r=4), ClassLabel("c5", alpha=F(2)),
                                     ClassLabel("d4")])
    def test_split_central_input(self, monkeypatch, lab):
        moved = conjugated(3, lab, seed=11)[1]
        calls = counting_check_jacobi(monkeypatch, "nlie.classify")
        verdict = classify(moved)
        assert verdict.status == EXACT and verdict.label == lab
        assert any(step.reason.startswith("core: ") for step in verdict.steps)
        assert calls == [moved]

    def test_quotient_input(self, monkeypatch):
        lab = ClassLabel("r1", r=4)
        moved = conjugated(3, lab, seed=11)[1]
        calls = counting_check_jacobi(monkeypatch, "nlie.classify")
        verdict = classify(moved)
        assert verdict.status == EXACT and verdict.label == lab
        assert any(step.reason.startswith("quotient: ") for step in verdict.steps)
        assert calls == [moved]

    def test_each_public_entry_validates(self, monkeypatch):
        calls = counting_check_jacobi(monkeypatch, "nlie.classify")
        classify_np1(canonical(3, ClassLabel("D_r", r=4)))
        classify_np2(canonical(3, ClassLabel("r1", r=4)))
        assert len(calls) == 2


class TestLargeHeight:
    def test_d7_triple_with_a_huge_cube(self):
        # the cube root behind the d7 canonical triple used to go through a
        # float and fail with a bare AssertionError
        lab = ClassLabel("d7", stu=(2 * (1000000007 * 998244353) ** 3, 0, 1))
        a = canonical(3, lab)
        verdict = classify(a)
        assert verdict.status == EXACT
        assert verify_isomorphism(a, canonical(3, verdict.label), verdict.witness)

    def test_d_r_under_a_large_basis_change_returns(self):
        # the congruence step's k-th root used to trial-divide up to the
        # square root of a number of about 60 digits
        a = change_basis_multilinear(canonical(3, ClassLabel("D_r", r=4)),
                                     random_basis_change(4, seed=2025, bound=1000))
        start = time.perf_counter()
        verdict = classify(a)
        assert time.perf_counter() - start < 30
        assert verdict.status in (EXACT, FAMILY_ONLY)
        assert verdict.label == ClassLabel("D_r", r=4)
