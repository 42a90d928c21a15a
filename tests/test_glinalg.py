"""Graded spaces, straightening, and exact linear algebra."""

import random
import warnings
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom import glinalg
from colorhom.bimodule import cochain_space, natural_bimodule
from colorhom.cohomology import (
    NonComplexWarning,
    build_lsca_complex,
    cohomology_table,
    epsilon_derivations,
    invariant_subspace,
    verify_main_theorem,
)
from colorhom.glinalg import (
    GradedMap,
    GradedSpace,
    exact_rank,
    exterior_basis,
    hom_space,
    rref,
    straighten,
    tensor_space,
)
from colorhom.grading import (
    Degree,
    GradingGroup,
    bichar_from_form,
    bichar_from_table,
    degree_sum,
    trivial_bicharacter,
)
from colorhom.scalars import CycScalar, cyc_make, root_of_unity

from helpers import (
    _count_calls,
    _count_eliminations,
    _random_eps,
    _random_space,
    anticommuting_pair_algebra,
    dense_block,
    exact_kernel,
    mat_mul,
    mutual_squares_algebra,
    quantum_exterior_algebra,
    square_to_second_algebra,
)

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


def matrices(max_r=4, max_c=5, scalars=None):
    scalars = scalars if scalars is not None else small_scalars()
    return st.integers(1, max_r).flatmap(
        lambda r: st.integers(1, max_c).flatmap(
            lambda c: st.lists(
                st.lists(scalars, min_size=c, max_size=c),
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
        with pytest.raises(ValueError, match=r"^exterior power needs n >= 0$"):
            exterior_basis(V, -1, eps)

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
        i = 0 * W.dim + 0  # [x=>w], row-major
        assert H.degrees[i] == G.degree([0, 1, 0])  # (1,0,0) - (1,1,0)

    def test_tensor_space(self):
        V = xyz_space()
        T = tensor_space(V, V)
        assert T.dim == 9
        i = 0 * V.dim + 1  # x@y, row-major
        assert T.degrees[i] == klein().degree([0, 1, 1])

    def test_hom_and_tensor_are_row_major(self):
        # the layout contract the coboundary assemblers compute indices by:
        # hom_space(a, b) and tensor_space(a, b) put (i, j) at i * b.dim + j
        G = klein()
        V = xyz_space()
        W = GradedSpace(G, [("w", (1, 0, 0)), ("u", (0, 0, 0))])
        A = anticommuting_pair_algebra()
        wedge = exterior_basis(A.space, 2, A.eps)
        T = tensor_space(wedge, A.space)
        spaces = []
        for a, b in ((V, W), (W, V), (V, V), (T, A.space)):
            H, P = hom_space(a, b), tensor_space(a, b)
            assert H.dim == P.dim == a.dim * b.dim
            for i in range(a.dim):
                for j in range(b.dim):
                    k = i * b.dim + j
                    assert H.names[k] == f"[{a.names[i]}=>{b.names[j]}]"
                    assert H.degrees[k] == b.degrees[j] - a.degrees[i]
                    assert P.names[k] == f"{a.names[i]}@{b.names[j]}"
                    assert P.degrees[k] == a.degrees[i] + b.degrees[j]
            spaces += [H, P]
        # C^3(A, A) = Hom(wedge^2 A, Hom(A, A)): the elementary cochain
        # (word w, last argument e_l => e_t) sits at (w * dim A + l) * dim A + t
        C = cochain_space(A, natural_bimodule(A), 3)
        n = A.dim
        assert C.dim == wedge.dim * n * n
        for w in range(wedge.dim):
            for last in range(n):
                for t in range(n):
                    k = (w * n + last) * n + t
                    assert C.names[k] == (f"[{wedge.names[w]}=>[{A.space.names[last]}"
                                          f"=>{A.space.names[t]}]]")
                    assert C.degrees[k] == (A.space.degrees[t] - wedge.degrees[w]
                                            - A.space.degrees[last])
        # the layout is the contract: no per-element meta is attached
        assert all(m is None for S in spaces + [C] for m in S.meta)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4),
       st.sampled_from(["random", "trivial", "odd"]))
def test_exterior_basis_is_the_set_of_straightened_words(seed, n, pairing):
    # the words of exterior_basis against an independent enumeration: every
    # n-tuple of letters straightened, the zero words dropped, the canonical
    # words sorted.  Under "trivial" no letter may repeat; under "odd" the
    # letters of odd weight square nontrivially and may repeat.
    rng = random.Random(seed)
    space = _random_space(rng)
    if pairing == "random":
        eps = _random_eps(rng)
    elif pairing == "trivial":
        eps = trivial_bicharacter(klein())
    else:
        eps = bichar_from_form(klein(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    words = set()
    for word in product(range(space.dim), repeat=n):
        straightened = straighten(space, word, eps)
        if straightened is not None:
            words.add(straightened[1])
    words = sorted(words)
    W = exterior_basis(space, n, eps)
    assert W.meta == words
    assert W.degrees == [degree_sum(space.group, [space.degrees[i] for i in w])
                         for w in words]
    assert W.names == ["^".join(space.names[i] for i in w) or "1" for w in words]


class TestLazyNames:
    def test_names_are_built_on_first_read_as_the_eager_formula(self):
        A = quantum_exterior_algebra(2)
        V = natural_bimodule(A)
        wedge = exterior_basis(A.space, 2, A.eps)
        pairs = [(A.space, V.space), (wedge, A.space), (V.space, wedge)]
        pairs.append((tensor_space(wedge, A.space), V.space))
        pairs.append((cochain_space(A, V, 2), hom_space(A.space, V.space)))
        for a, b in pairs:
            H, P = hom_space(a, b), tensor_space(a, b)
            assert H._names.__class__ is not list
            assert P._names.__class__ is not list
            assert H.dim == P.dim == a.dim * b.dim
            assert H.names == [f"[{a.names[i]}=>{b.names[j]}]"
                               for i in range(a.dim) for j in range(b.dim)]
            assert P.names == [f"{a.names[i]}@{b.names[j]}"
                               for i in range(a.dim) for j in range(b.dim)]
            assert H.names is H.names and P.names is P.names

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_exterior_names_are_built_on_first_read(self, n):
        A = quantum_exterior_algebra(2)
        for space in (A.space, hom_space(A.space, A.space)):
            W = exterior_basis(space, n, A.eps)
            assert W._names.__class__ is not list
            assert W.names == ["^".join(space.names[i] for i in w) or "1"
                               for w in W.meta]
            assert W.names is W.names

    def test_degree_index_is_built_on_first_query(self):
        A = quantum_exterior_algebra(2)
        wedge = exterior_basis(A.space, 2, A.eps)
        spaces = [wedge, hom_space(wedge, A.space), tensor_space(wedge, A.space)]
        assert all(space._by_degree is None for space in spaces)
        for space in spaces:
            d = space.degrees[-1]
            assert space.dim_at(d) == space.degrees.count(d)
            assert space._by_degree is not None
            assert space.global_indices(d) == [i for i, e in enumerate(space.degrees)
                                               if e is d]

    def test_warm_verify_meets_no_new_degree_and_reads_no_cochain_names(
            self, monkeypatch):
        A = quantum_exterior_algebra(2)
        V = natural_bimodule(A)
        verify_main_theorem(A, V, 1)
        G = A.space.group
        groups, degrees = len(GradingGroup._interned), len(G._degrees)
        made = []
        named_later = GradedSpace._named_later.__func__

        def recorded(cls, group, degs, names, meta=None):
            space = named_later(cls, group, degs, names, meta)
            made.append(space)
            return space
        monkeypatch.setattr(GradedSpace, "_named_later", classmethod(recorded))
        report = verify_main_theorem(A, V, 1)
        assert report["equal"] and report["intertwining_zero"]
        assert len(GradingGroup._interned) == groups
        assert len(G._degrees) == degrees
        # C^1..C^3(A,V), which are C^0..C^2([A], C^1(A,V)), their Hom(A,V)
        # factors and the exterior powers of A
        assert len(made) >= 6
        assert any(space.meta and space.meta[0] == () for space in made)
        assert all(space._names.__class__ is not list for space in made)

    def test_kernel_space_names_are_built_on_first_read(self):
        A = quantum_exterior_algebra(2)
        V = natural_bimodule(A)
        for space, prefix in ((invariant_subspace(A, V), "v"),
                              (epsilon_derivations(A, V), "D")):
            assert space._names.__class__ is not list
            assert space.names == [f"{prefix}{k}" for k in range(space.dim)]
            assert all(isinstance(vec, dict) for vec in space.meta)


def _q(*values):
    """{index: rational} from (index, value) pairs."""
    return {k: CycScalar.rational(v) for k, v in values}


class TestEpsSwap:
    """``_eps_swap`` on a hand-built table over degrees [0, 1, 1] with the
    sign rule eps(a, b) = (-1)^(ab), so only the two odd slots twist."""

    DEGREES = [0, 1, 1]
    TABLE = {
        (0, 1, 2): _q((0, 2)),            # its swap (1, 0, 2) is absent
        (1, 2, 0): _q((1, 1)),            # the pair (1, 2, 0), (2, 1, 0)
        (2, 1, 0): _q((1, 1)),
        (2, 2, 1): _q((2, 3)),            # its own swap
        (0, 2, 1): _q((0, 1), (1, 1)),    # cancels in part with (2, 0, 1)
        (2, 0, 1): _q((1, -1)),
    }

    @staticmethod
    def eps(a, b):
        return CycScalar.rational((-1) ** (a * b))

    @pytest.mark.parametrize("sign, want", [
        (1, [((0, 1, 2), _q((0, 2))),
             ((0, 2, 1), _q((0, 1))),
             ((1, 0, 2), _q((0, 2))),
             ((2, 0, 1), _q((0, 1)))]),
        (-1, [((0, 1, 2), _q((0, 2))),
              ((0, 2, 1), _q((0, 1), (1, 2))),
              ((1, 0, 2), _q((0, -2))),
              ((1, 2, 0), _q((1, 2))),
              ((2, 0, 1), _q((1, -2), (0, -1))),
              ((2, 1, 0), _q((1, 2))),
              ((2, 2, 1), _q((2, 6)))]),
    ], ids=["plus", "minus"])
    def test_three_slot_keys(self, sign, want):
        out = glinalg._eps_swap(self.TABLE, self.eps, self.DEGREES, sign)
        assert list(out.items()) == want

    @pytest.mark.parametrize("sign, want", [
        (1, {(0, 1): _q((2, 1)), (1, 0): _q((2, 1))}),
        (-1, {(0, 1): _q((2, 1)), (1, 0): _q((2, -1)), (1, 1): _q((0, 4))}),
    ], ids=["plus", "minus"])
    def test_two_slot_keys(self, sign, want):
        table = {(0, 1): _q((2, 1)), (1, 1): _q((0, 2))}
        out = glinalg._eps_swap(table, self.eps, self.DEGREES, sign)
        assert list(out.items()) == list(want.items())

    def test_table_is_not_modified(self):
        table = {k: dict(v) for k, v in self.TABLE.items()}
        glinalg._eps_swap(table, self.eps, self.DEGREES, -1)
        assert table == self.TABLE


# ---------------------------------------------------------------------------

class TestGradedMap:
    def test_degree_mismatch_rejected(self):
        V = xyz_space()
        f = GradedMap(V, V)
        with pytest.raises(ValueError):
            f.add(0, 1, ONE)  # x and y sit in different degrees

    def test_add_stores_a_sparse_row(self):
        V = xyz_space()
        f = GradedMap(V, V)
        f.add(0, 0, CycScalar.rational(2))
        f.add(1, 1, ZERO)
        assert f.rows == {0: {0: CycScalar.rational(2)}}

    def test_rank_splits_over_degrees(self):
        G = GradingGroup([2])
        V = GradedSpace(G, [("a", (0,)), ("b", (0,)), ("c", (1,))])
        f = GradedMap(V, V)
        f.add(0, 0, ONE)
        f.add(0, 1, ONE)
        f.add(2, 2, ONE)
        assert f.rank_at(G.degree([0])) == 1
        assert f.rank_at(G.degree([1])) == 1
        assert f.nullity_at(G.degree([0])) == 1
        assert f.nullity_at(G.degree([1])) == 0
        # a + b -> a: the kernel at degree 0 is spanned by a - b
        assert f.kernel_at(G.degree([0])) == [{0: MINUS_ONE, 1: ONE}]
        assert f.kernel_at(G.degree([1])) == []

    def test_compose_multiplies_the_rows(self):
        V = xyz_space()
        f = GradedMap(V, V)
        g = GradedMap(V, V)
        f.add(0, 0, CycScalar.rational(3))
        g.add(0, 0, CycScalar.rational(5))
        assert f.compose(g).rows == {0: {0: CycScalar.rational(15)}}

    def test_zero_detection(self):
        V = xyz_space()
        f = GradedMap(V, V)
        assert f.is_zero()
        f.add(1, 1, ONE)
        assert not f.is_zero()

    def test_compose_refuses_spaces_of_other_degrees(self):
        G = GradingGroup([2])
        U = GradedSpace(G, [("a", (0,))])
        W = GradedSpace(G, [("a", (1,))])
        with pytest.raises(ValueError):
            GradedMap(U, U).compose(GradedMap(W, W))

    def test_compose_drops_what_cancels(self):
        G = GradingGroup([2])
        V = GradedSpace(G, [("a", (0,)), ("b", (0,))])
        f, g = GradedMap(V, V), GradedMap(V, V)
        f.add(0, 0, ONE)
        f.add(0, 1, ONE)
        g.add(0, 0, ONE)
        g.add(1, 0, MINUS_ONE)
        g.add(1, 1, ONE)
        fg = f.compose(g)
        assert fg.rows == {0: {1: ONE}}
        g.add(0, 1, MINUS_ONE)
        assert f.compose(g).rows == {}
        assert f.compose(g).is_zero()

    def test_compose_over_an_equal_hom_space_builds_no_names(self):
        V = xyz_space()
        H, K = hom_space(V, V), hom_space(V, V)
        f, g = GradedMap(H, H), GradedMap(K, K)
        f.add(1, 1, CycScalar.rational(3))
        g.add(1, 1, CycScalar.rational(5))
        assert f.compose(g).rows == {1: {1: CycScalar.rational(15)}}
        assert H._names.__class__ is not list
        assert K._names.__class__ is not list


# ---------------------------------------------------------------------------
# the rows of GradedMap against dense per-degree references

_MIXED = GradedSpace(GradingGroup([3]), [(f"b{k}", (d,)) for k, d in
                                         enumerate((0, 1, 0, 2, 1, 0, 2))])
_SAME_DEGREE = [(i, j) for i in range(_MIXED.dim) for j in range(_MIXED.dim)
                if _MIXED.degrees[i] is _MIXED.degrees[j]]


def _entry_lists(max_size):
    return st.lists(st.tuples(st.sampled_from(_SAME_DEGREE), small_scalars()),
                    max_size=max_size)


@st.composite
def _map_pairs(draw):
    """Two maps on a space with three degrees, built through add.  f takes
    random entries, some cancelled by their negation right away; g takes
    the entries that f keeps in another order, each split in two, and then
    at most one more."""
    f, g = GradedMap(_MIXED, _MIXED), GradedMap(_MIXED, _MIXED)
    entries = draw(_entry_lists(12))
    cancelled = draw(st.lists(st.booleans(), min_size=len(entries),
                              max_size=len(entries)))
    for ((i, j), c), cut in zip(entries, cancelled):
        f.add(i, j, c)
        if cut:
            f.add(i, j, -c)
    kept = [e for e, cut in zip(entries, cancelled) if not cut]
    for (i, j), c in draw(st.permutations(kept)):
        part = draw(small_scalars())
        g.add(i, j, c - part)
        g.add(i, j, part)
    for (i, j), c in draw(_entry_lists(1)):
        g.add(i, j, c)
    return f, g


def _reference_kernel(rows, cols):
    """The dense exact_kernel of rows over the given global columns, each
    vector sparse and keyed in column order, as kernel_at returns it."""
    return [{c: x for c, x in zip(cols, v) if not x.is_zero()}
            for v in exact_kernel(rows, len(cols))]


def _assert_kernel_matches_dense(f, d):
    """kernel_at(d) equals the dense reference, keys ascending."""
    ker = f.kernel_at(d)
    assert ker == _reference_kernel(dense_block(f, d), f.src.global_indices(d))
    assert all(list(v) == sorted(v) for v in ker)


def _rows_are_clean(f):
    return all(row and not any(v.is_zero() for v in row.values())
               for row in f.rows.values())


class TestRowsAgainstBlocks:
    @settings(max_examples=60, deadline=None)
    @given(_map_pairs())
    def test_compose_is_the_product_of_the_blocks(self, pair):
        f, g = pair
        for left, right in ((f, g), (g, f), (f, f)):
            h = left.compose(right)
            assert _rows_are_clean(h)
            for d in _MIXED.degrees_present():
                assert dense_block(h, d) == mat_mul(dense_block(left, d),
                                                    dense_block(right, d))

    @settings(max_examples=60, deadline=None)
    @given(_map_pairs())
    def test_rows_stay_inside_the_degree_blocks(self, pair):
        f, _ = pair
        for i, row in f.rows.items():
            assert all(_MIXED.degrees[j] is _MIXED.degrees[i] for j in row)

    @settings(max_examples=60, deadline=None)
    @given(_map_pairs())
    def test_rank_and_kernel_match_the_dense_reference(self, pair):
        f, _ = pair
        for d in _MIXED.degrees_present():
            assert f.rank_at(d) == exact_rank(dense_block(f, d))
            _assert_kernel_matches_dense(f, d)

    @settings(max_examples=80, deadline=None)
    @given(_map_pairs())
    def test_rows_are_equal_exactly_when_the_blocks_agree(self, pair):
        f, g = pair
        assert _rows_are_clean(f) and _rows_are_clean(g)
        agree = all(dense_block(f, d) == dense_block(g, d)
                    for d in _MIXED.degrees_present())
        assert (f.rows == g.rows) == agree


# ---------------------------------------------------------------------------
# the sparse kernel of GradedMap against the dense reference

def _sparse_scalar(scalars):
    # zero about two times in three, so that rows stay sparse
    return st.integers(0, 2).flatmap(lambda k: scalars if k == 0 else st.just(ZERO))


@st.composite
def _mixed_conductor_scalars(draw):
    q = CycScalar.rational(draw(_rationals.filter(bool)))
    m = draw(st.sampled_from((1, 3, 4)))
    return q * root_of_unity(m, draw(st.integers(0, m - 1)))


@st.composite
def _rank_deficient(draw):
    """Rows of a sparse base matrix, then duplicates, combinations of two
    rows and empty rows, shuffled; empty columns are spliced in."""
    base = draw(matrices(scalars=_sparse_scalar(small_scalars())))
    c = len(base[0])
    rows = [list(r) for r in base]
    for kind, i, j, coeff in draw(st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, len(base) - 1),
                      st.integers(0, len(base) - 1), small_scalars()),
            max_size=4)):
        if kind == 0:
            rows.append(list(base[i]))
        elif kind == 1:
            rows.append([a + coeff * b for a, b in zip(base[i], base[j])])
        else:
            rows.append([ZERO] * c)
    rows = draw(st.permutations(rows))
    for pos in draw(st.lists(st.integers(0, c), max_size=2)):
        rows = [r[:pos] + [ZERO] + r[pos:] for r in rows]
    return rows


def _single_degree_map(rows):
    """The matrix as a GradedMap between spaces concentrated in degree 0."""
    G = GradingGroup([2])
    src = GradedSpace(G, [(f"s{j}", (0,)) for j in range(len(rows[0]))])
    dst = GradedSpace(G, [(f"t{i}", (0,)) for i in range(len(rows))])
    f = GradedMap(src, dst)
    for i, row in enumerate(rows):
        for j, a in enumerate(row):
            f.add(i, j, a)
    return f, G.degree([0])


def _assert_matches_dense(rows):
    f, d = _single_degree_map(rows)
    assert f.rank_at(d) == exact_rank(rows)
    _assert_kernel_matches_dense(f, d)


class TestSparseAgainstDense:
    @settings(max_examples=80, deadline=None)
    @given(matrices(max_r=7, max_c=7, scalars=_sparse_scalar(small_scalars())))
    def test_random_sparse(self, rows):
        _assert_matches_dense(rows)

    @settings(max_examples=80, deadline=None)
    @given(_rank_deficient())
    def test_rank_deficient_structured(self, rows):
        _assert_matches_dense(rows)

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_r=5, max_c=5, scalars=_sparse_scalar(_mixed_conductor_scalars())))
    def test_mixed_conductors(self, rows):
        _assert_matches_dense(rows)

    def test_kernel_is_the_reduced_one(self):
        # free columns 1 and 3; pivot columns 0 and 2
        two, half = CycScalar.rational(2), CycScalar.rational(Fraction(1, 2))
        rows = [[ZERO, ZERO, two, ONE],
                [half, ONE, ONE, ZERO],
                [ONE, two, ZERO, MINUS_ONE]]
        f, d = _single_degree_map(rows)
        assert f.rank_at(d) == 2
        assert f.kernel_at(d) == _reference_kernel(rows, range(4))
        assert f.kernel_at(d) == [{0: -two, 1: ONE},
                                  {0: ONE, 2: -half, 3: ONE}]


@st.composite
def _field_scalars(draw, m):
    # a value of Q(zeta_m), zero about two times in three
    if draw(st.integers(0, 2)):
        return ZERO
    return cyc_make(m, draw(st.lists(_rationals, min_size=1, max_size=m)))


@st.composite
def _oriented_blocks(draw):
    """(shape, rows): a tall or a wide block, or a product of a tall and a
    wide factor through k < min(rows, cols), over conductor 1, 3, 4 or 12."""
    scalars = _field_scalars(draw(st.sampled_from((1, 3, 4, 12))))
    shape = draw(st.sampled_from(("tall", "wide", "deficient")))
    if shape == "deficient":
        k = draw(st.integers(1, 3))
        r, c = draw(st.integers(k + 1, 7)), draw(st.integers(k + 1, 7))
        left = draw(st.lists(st.lists(scalars, min_size=k, max_size=k),
                             min_size=r, max_size=r))
        right = draw(st.lists(st.lists(scalars, min_size=c, max_size=c),
                              min_size=k, max_size=k))
        return shape, mat_mul(left, right)
    long = draw(st.integers(2, 8))
    short = draw(st.integers(1, long - 1))
    r, c = (long, short) if shape == "tall" else (short, long)
    return shape, draw(st.lists(st.lists(scalars, min_size=c, max_size=c),
                                min_size=r, max_size=r))


class TestOrientationAgainstDense:
    @settings(max_examples=120, deadline=None)
    @given(_oriented_blocks())
    def test_rank_and_kernel_in_either_orientation(self, block):
        # rank_at may eliminate the transpose; kernel_at never does
        shape, rows = block
        r, c = len(rows), len(rows[0])
        f, d = _single_degree_map(rows)
        rank = f.rank_at(d)
        assert rank == exact_rank(rows)
        if shape == "deficient":
            assert rank < min(r, c)
        else:
            assert (r > c) == (shape == "tall")
        _assert_kernel_matches_dense(f, d)


# ---------------------------------------------------------------------------
# the elimination's pivot rule and its buckets by leading column

def _rows(*rows):
    return [{c: CycScalar.rational(x) for c, x in row.items()} for row in rows]


class TestEchelonBuckets:
    # r0 and r1 tie on length at column 0, where the earlier r0 wins; r1
    # then opens column 1, and r3 moves into column 2, where r2 waits; r3
    # is shorter there, so it is the pivot, and r2 opens column 4
    ROWS = _rows({0: 1, 3: 1}, {0: 1, 1: 1}, {2: 1, 4: 1}, {0: 2, 2: 1, 3: 2})

    def test_pivot_columns_and_rows(self):
        pivots = glinalg._echelon(self.ROWS)
        assert [c for c, _ in pivots] == [0, 1, 2, 4]
        # equal as dicts and in key order; the input rows are left as given
        expected = _rows({0: 1, 3: 1}, {1: 1, 3: -1}, {2: 1}, {4: 1})
        assert [list(row.items()) for _, row in pivots] == [
            list(row.items()) for row in expected]
        assert self.ROWS == _rows({0: 1, 3: 1}, {0: 1, 1: 1}, {2: 1, 4: 1},
                                  {0: 2, 2: 1, 3: 2})

    def test_kernel_matches_the_dense_reference(self):
        dense = [[row.get(c, ZERO) for c in range(5)] for row in self.ROWS]
        f, d = _single_degree_map(dense)
        assert f.rank_at(d) == 4
        assert f.kernel_at(d) == _reference_kernel(dense, range(5))
        assert f.kernel_at(d) == [{0: MINUS_ONE, 1: ONE, 3: ONE}]


class TestEliminationWork:
    """Bookkeeping costs what the work costs: a row alone in its leading
    column is a pivot as it stands, a shared column negates its pivot's
    inverse once and updates each entry in one fused operation, and a hom
    space subtracts degrees once per distinct source degree."""

    # column 0 is shared by r0, r1 and r2 (r0 pivots), column 1 by r3 and
    # the reduced r1 and r2 (r3 pivots, being shorter), column 2 by the
    # reduced r1 and r2, and the reduced r2 is alone in column 3; no factor
    # row[c] / pivot is +-1, so no product negates
    SHARED = _rows({0: 2, 1: 3, 2: 5}, {0: 3, 1: 5, 3: 2},
                   {0: 5, 2: 3, 3: 3}, {1: 2, 2: 3})

    @pytest.mark.parametrize("scale", [ONE, root_of_unity(3, 1)],
                             ids=["rational", "cyclotomic"])
    def test_a_shared_column_negates_once_and_adds_nothing(
            self, monkeypatch, scale):
        rows = [[row.get(c, ZERO) * scale for c in range(4)]
                for row in self.SHARED]
        f, d = _single_degree_map(rows)
        negations = _count_calls(monkeypatch, CycScalar, "__neg__")
        sums = _count_calls(monkeypatch, CycScalar, "__add__", "__radd__",
                            "__sub__", "__rsub__")
        assert f.rank_at(d) == 4
        assert negations == [3]  # one per reduced row would read 5
        assert sums == [0]

    @pytest.mark.parametrize("rows", [SHARED, TestEchelonBuckets.ROWS],
                             ids=["shared", "buckets"])
    def test_the_caller_rows_are_left_as_given(self, rows):
        # a row is copied only when first reduced: the rows passed in, and
        # the stored rows a map hands to the elimination, stay as they were
        def snapshot(rows):
            return [list(row.items()) for row in rows]

        before = snapshot(rows)
        glinalg._echelon(rows)
        glinalg._echelon(rows, reduced=True)
        assert snapshot(rows) == before
        width = 1 + max(c for row in rows for c in row)
        f, d = _single_degree_map([[row.get(c, ZERO) for c in range(width)]
                                   for row in rows])
        stored = [f.rows[i] for i in sorted(f.rows)]
        assert snapshot(stored) == before
        assert f.rank_at(d) == 4
        assert len(f.kernel_at(d)) == width - 4
        assert snapshot(stored) == before

    def test_distinct_leading_columns_cost_no_division(self, monkeypatch):
        two = CycScalar.rational(2)
        rows = [[ZERO] * i + [two] + [ONE] * (5 - i) for i in range(6)]
        f, d = _single_degree_map(rows)
        divisions = _count_calls(monkeypatch, CycScalar, "__truediv__",
                                 "__rtruediv__")
        assert f.rank_at(d) == 6
        assert divisions == [0]
        f.kernel_at(d)  # the reduced form scales each pivot row once
        assert divisions == [6]

    def test_hom_space_subtracts_once_per_distinct_source_degree(
            self, monkeypatch):
        A = quantum_exterior_algebra(2)
        src = tensor_space(A.space, A.space)
        dst = exterior_basis(A.space, 2, A.eps)
        subtractions = _count_calls(monkeypatch, Degree, "__sub__")
        H = hom_space(src, dst)
        assert subtractions[0] <= len(set(src.degrees)) * dst.dim < src.dim * dst.dim
        assert H.degrees == [dj - di for di in src.degrees for dj in dst.degrees]


# ---------------------------------------------------------------------------
# the per-block rank cache

class TestRankCache:
    @pytest.mark.parametrize("A", [square_to_second_algebra(2),
                                   mutual_squares_algebra(1, 3),
                                   anticommuting_pair_algebra(eps_plus())],
                             ids=["square_to_second", "mutual_squares",
                                  "anticommuting_pair"])
    def test_cohomology_table_eliminates_each_block_once(self, monkeypatch, A):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonComplexWarning)
            cx = build_lsca_complex(A, natural_bimodule(A), 3)
        calls = _count_eliminations(monkeypatch)
        cohomology_table(cx)
        counted = dict(calls)
        blocks = {(f, d) for f in cx.diffs for d in f.dst.degrees_present()
                  if f._block(d)}
        assert len(blocks) > 3
        assert set(counted) == blocks
        assert set(counted.values()) == {1}

    def test_add_clears_the_cached_rank(self, monkeypatch):
        calls = _count_eliminations(monkeypatch)
        G = GradingGroup([2])
        V = GradedSpace(G, [("a", (0,)), ("b", (0,))])
        d = G.degree([0])
        f = GradedMap(V, V)
        f.add(0, 0, ONE)
        assert f.rank_at(d) == 1
        assert f.nullity_at(d) == 1
        assert sum(calls.values()) == 1
        f.add(1, 1, ONE)
        assert f.rank_at(d) == 2
        assert sum(calls.values()) == 2
        f.add(1, 1, MINUS_ONE)  # cancels: the entry is dropped
        assert f.rank_at(d) == 1
        assert 1 not in f.rows
        assert sum(calls.values()) == 3

    def test_tall_block_is_eliminated_in_the_shorter_orientation(
            self, monkeypatch):
        sizes = []
        real = glinalg._echelon

        def recording(rows, reduced=False):
            sizes.append((len(rows), reduced))
            return real(rows, reduced)

        monkeypatch.setattr(glinalg, "_echelon", recording)
        G = GradingGroup([2])
        src = GradedSpace(G, [(f"s{k}", (0,)) for k in range(2)])
        dst = GradedSpace(G, [(f"t{k}", (0,)) for k in range(5)])
        d = G.degree([0])
        f = GradedMap(src, dst)
        for i in range(5):
            f.add(i, i % 2, CycScalar.rational(i + 1))
        assert f.rank_at(d) == 2
        assert sizes == [(2, False)]  # at most min(5 rows, 2 columns)
        # the kernel is taken in the original orientation
        assert f.kernel_at(d) == []
        assert sizes[-1] == (5, True)
