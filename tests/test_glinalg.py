"""Graded spaces, straightening, and exact linear algebra."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom.glinalg import (
    GradedMap,
    GradedSpace,
    exact_kernel,
    exact_rank,
    exterior_basis,
    hom_space,
    mat_mul,
    rref,
    straighten,
    tensor_space,
)
from colorhom.grading import GradingGroup, bichar_from_form, bichar_from_table, trivial_bicharacter
from colorhom.scalars import CycScalar, root_of_unity

ONE = CycScalar.one()
ZERO = CycScalar.zero()
MINUS_ONE = CycScalar.rational(-1)


def klein():
    return GradingGroup([2, 2, 2])


def eps_plus():
    # diagonal 1, distinct pairs -1 on the three mixed-weight degrees
    return bichar_from_form(klein(), [[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2)


def eps_minus():
    G = klein()
    vals = [[MINUS_ONE if i == j else ONE for j in range(3)] for i in range(3)]
    return bichar_from_table(G, [(1, 1, 0), (1, 0, 1), (0, 1, 1)], vals,
                             strict=False)


def xyz_space():
    G = klein()
    return GradedSpace(G, [("x", (1, 1, 0)), ("y", (1, 0, 1)), ("z", (0, 1, 1))])


# ---------------------------------------------------------------------------
# scalars for random matrices

_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def small_scalars(draw):
    kind = draw(st.integers(0, 3))
    if kind < 3:
        return CycScalar.rational(draw(_rationals))
    k = draw(st.integers(0, 3))
    return root_of_unity(4, k) * CycScalar.rational(draw(_rationals))


def matrices(max_r=4, max_c=5):
    return st.integers(1, max_r).flatmap(
        lambda r: st.integers(1, max_c).flatmap(
            lambda c: st.lists(
                st.lists(small_scalars(), min_size=c, max_size=c),
                min_size=r, max_size=r)))


# ---------------------------------------------------------------------------

class TestRowReduction:
    def test_cyclotomic_rank_drop(self):
        z3 = root_of_unity(3, 1)
        A = [[ONE, z3], [z3 * z3, ONE]]
        # second row is z3^2 times the first, so the rank is 1
        assert exact_rank(A) == 1
        ker = exact_kernel(A, 2)
        assert len(ker) == 1
        v = ker[0]
        assert (A[0][0] * v[0] + A[0][1] * v[1]).is_zero()

    def test_identity_and_zero(self):
        I = [[ONE, ZERO], [ZERO, ONE]]
        assert exact_rank(I) == 2
        assert exact_kernel(I, 2) == []
        assert exact_rank([[ZERO, ZERO]]) == 0
        assert len(exact_kernel([[ZERO, ZERO]], 2)) == 2
        assert exact_rank([]) == 0
        assert len(exact_kernel([], 3)) == 3

    def test_rref_is_reduced(self):
        half = CycScalar.rational(Fraction(1, 2))
        A = [[half, ONE, ONE], [ONE, ONE, ZERO]]
        R, piv = rref(A)
        assert piv == [0, 1]
        for r, c in enumerate(piv):
            assert R[r][c] == ONE
            assert all(R[i][c].is_zero() for i in range(len(R)) if i != r)

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_rank_nullity_and_kernel(self, A):
        n = len(A[0])
        r = exact_rank(A)
        ker = exact_kernel(A, n)
        assert r + len(ker) == n
        for v in ker:
            for row in A:
                acc = ZERO
                for a, x in zip(row, v):
                    acc = acc + a * x
                assert acc.is_zero()

    @settings(max_examples=25, deadline=None)
    @given(matrices(max_r=3, max_c=3))
    def test_rank_matches_minor_oracle(self, A):
        assert exact_rank(A) == _minor_rank(A)


def _det(M):
    if len(M) == 1:
        return M[0][0]
    acc = ZERO
    sign = ONE
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        acc = acc + sign * M[0][j] * _det(minor)
        sign = -sign
    return acc


def _minor_rank(A):
    r, c = len(A), len(A[0])
    for k in range(min(r, c), 0, -1):
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                if not _det(sub).is_zero():
                    return k
    return 0


# ---------------------------------------------------------------------------

class TestStraighten:
    def test_adjacent_swap_sign(self):
        V = xyz_space()
        eps = eps_plus()
        coeff, word = straighten(V, (1, 0), eps)  # y ^ x
        assert word == (0, 1)
        assert coeff == ONE  # -eps(|y|,|x|) = -(-1)
        coeff, word = straighten(V, (0, 1), eps)
        assert (coeff, word) == (ONE, (0, 1))

    def test_repeat_vanishes_for_plus(self):
        V = xyz_space()
        assert straighten(V, (2, 2), eps_plus()) is None
        assert straighten(V, (0, 2, 0), eps_plus()) is None

    def test_repeat_survives_for_minus(self):
        V = xyz_space()
        coeff, word = straighten(V, (2, 0, 2), eps_minus())
        assert word == (0, 2, 2)
        # moving x past one z: -eps(|z|,|x|) = -1
        assert coeff == MINUS_ONE

    def test_same_degree_distinct_letters(self):
        G = klein()
        V = GradedSpace(G, [("a", (1, 1, 0)), ("b", (1, 1, 0))])
        eps = eps_plus()
        coeff, word = straighten(V, (1, 0), eps)
        assert word == (0, 1)
        assert coeff == MINUS_ONE  # ordinary exterior sign, eps(d,d) = 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=0, max_size=5),
           st.booleans())
    def test_matches_recursive_definition(self, word, use_minus):
        V = xyz_space()
        eps = eps_minus() if use_minus else eps_plus()
        got = straighten(V, tuple(word), eps)
        expected = _straighten_rec(V, tuple(word), eps)
        assert got == expected


def _straighten_rec(space, word, eps):
    # direct recursion on the defining relation, one swap at a time
    for p in range(len(word) - 1):
        i, j = word[p], word[p + 1]
        if i > j:
            swapped = word[:p] + (j, i) + word[p + 2:]
            rest = _straighten_rec(space, swapped, eps)
            if rest is None:
                return None
            c, w = rest
            return (-eps(space.degrees[i], space.degrees[j]) * c, w)
        if i == j and eps(space.degrees[i], space.degrees[i]) == ONE:
            return None
    return (ONE, word)


# ---------------------------------------------------------------------------

class TestDerivedSpaces:
    def test_exterior_dims_no_repeats(self):
        V = xyz_space()
        eps = eps_plus()
        assert exterior_basis(V, 0, eps).dim == 1
        assert exterior_basis(V, 1, eps).dim == 3
        assert exterior_basis(V, 2, eps).dim == 3
        assert exterior_basis(V, 3, eps).dim == 1
        assert exterior_basis(V, 4, eps).dim == 0

    def test_exterior_dims_with_repeats(self):
        V = xyz_space()
        eps = eps_minus()
        # all three letters square nontrivially, so words are multisets
        assert exterior_basis(V, 2, eps).dim == 6
        assert exterior_basis(V, 3, eps).dim == 10

    def test_exterior_degrees_and_meta(self):
        V = xyz_space()
        W = exterior_basis(V, 2, eps_plus())
        i = W.meta.index((0, 1))
        assert W.degrees[i] == klein().degree([0, 1, 1])
        assert W.names[i] == "x^y"

    def test_hom_space(self):
        V = xyz_space()
        G = klein()
        W = GradedSpace(G, [("w", (1, 0, 0))])
        H = hom_space(V, W)
        assert H.dim == 3
        i = H.meta_index()[("hom", 0, 0)]
        assert H.degrees[i] == G.degree([0, 1, 0])  # (1,0,0) - (1,1,0)

    def test_tensor_space(self):
        V = xyz_space()
        T = tensor_space(V, V)
        assert T.dim == 9
        i = T.meta_index()[("tensor", 0, 1)]
        assert T.degrees[i] == klein().degree([0, 1, 1])


# ---------------------------------------------------------------------------

class TestGradedMap:
    def test_degree_mismatch_rejected(self):
        V = xyz_space()
        f = GradedMap(V, V)
        with pytest.raises(ValueError):
            f.add(0, 1, ONE)  # x and y sit in different degrees

    def test_apply_and_entry(self):
        V = xyz_space()
        f = GradedMap(V, V)
        f.add(0, 0, CycScalar.rational(2))
        v = V.zero_vector()
        v[0] = ONE
        assert f.apply(v)[0] == CycScalar.rational(2)
        assert f.entry(0, 0) == CycScalar.rational(2)
        assert f.entry(1, 1).is_zero()

    def test_rank_splits_over_degrees(self):
        G = GradingGroup([2])
        V = GradedSpace(G, [("a", (0,)), ("b", (0,)), ("c", (1,))])
        f = GradedMap(V, V)
        f.add(0, 0, ONE)
        f.add(0, 1, ONE)
        f.add(2, 2, ONE)
        assert f.rank_at(G.degree([0])) == 1
        assert f.rank_at(G.degree([1])) == 1
        assert f.rank() == 2
        assert f.nullity_at(G.degree([0])) == 1
        ker = f.kernel_at(G.degree([0]))
        assert len(ker) == 1

    def test_compose_matches_apply(self):
        V = xyz_space()
        f = GradedMap(V, V)
        g = GradedMap(V, V)
        f.add(0, 0, CycScalar.rational(3))
        g.add(0, 0, CycScalar.rational(5))
        fg = f.compose(g)
        v = V.zero_vector()
        v[0] = ONE
        assert fg.apply(v) == f.apply(g.apply(v))
        assert fg.entry(0, 0) == CycScalar.rational(15)

    def test_zero_detection(self):
        V = xyz_space()
        f = GradedMap(V, V)
        assert f.is_zero()
        f.add(1, 1, ONE)
        assert not f.is_zero()
