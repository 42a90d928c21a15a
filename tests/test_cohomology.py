"""Cochain complexes: coboundary formulas, d o d = 0, the hom-adjunction
and intertwining identities, the dimension theorem, and the naive oracle.

Theorem-content assertions (complex identity, adjunction, intertwining,
dimension equality) run over biadditive bicharacters, where they are
provable; the non-biadditive sign table gets companion tests pinning the
exact computed failure pattern instead.
"""

import random
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom import bimodule, cohomology
from colorhom.algebra import (
    ColorAlgebra,
    LieColorAlgebra,
    commutator_algebra,
    left_mult_nilpotent,
    validate_left_symmetric,
)
from colorhom.bimodule import (
    Bimodule,
    natural_bimodule,
    trivial_bimodule,
    validate_bimodule,
    validate_left_module,
)
from colorhom.cli import SpecErrorList, parse_spec
from colorhom.cohomology import (
    CohomologyError,
    NonComplexWarning,
    build_lie_complex,
    build_lsca_complex,
    cohomology_table,
    invariant_subspace,
    lie_cochain_basis,
    lie_coboundary,
    lsca_cochain_basis,
    lsca_coboundary,
    naive_oracle_table,
    phi_matrix,
    verify_main_theorem,
)
from colorhom.glinalg import GradedMap, GradedSpace
from colorhom.grading import GradingGroup, trivial_bicharacter

from helpers import (
    MINUS_ONE,
    ONE,
    ZERO,
    _count_calls,
    _count_eliminations,
    _count_products,
    _count_straightens,
    anticommuting_pair_algebra,
    cyclic_products_algebra,
    dense_bimodule,
    dense_block,
    dense_invariants,
    direct_sum,
    eps_plus,
    ideal_bimodule,
    lie_side,
    mutual_squares_algebra,
    quantum_exterior_algebra,
    rescaled,
    square_to_second_algebra,
    stored,
    table_index,
    twisted,
    xyz_space,
)


def zero_algebra(eps=None):
    return ColorAlgebra(xyz_space(), eps or eps_plus(), {})


def one_generator_algebra():
    G = GradingGroup([1])
    space = GradedSpace(G, [("e", (0,))])
    return ColorAlgebra(space, trivial_bicharacter(G), {})


def column(gmap, idx):
    """Dense image of the idx-th source basis vector, read from the rows."""
    return [gmap.rows.get(i, {}).get(idx, ZERO) for i in range(gmap.dst.dim)]


def composition_is_zero(cx, k) -> bool:
    return cx.diffs[k + 1].compose(cx.diffs[k]).is_zero()


def scale(c, vec):
    return [c * v for v in vec]


def add(*vecs):
    out = list(vecs[0])
    for v in vecs[1:]:
        out = [a + b for a, b in zip(out, v)]
    return out


# ---------------------------------------------------------------------------
# cochain bases

class TestCochainBases:
    def test_level_one_is_full_hom(self):
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        assert lsca_cochain_basis(A, V, 1).dim == 9

    def test_level_three_counts_repeats_when_self_pairings_are_minus(self):
        # every basis degree d of the pair algebra has eps(d,d) = -1, so the
        # wedge square keeps repeated letters: 6 words times 3 letters
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        assert lsca_cochain_basis(A, V, 3).dim == 18

    def test_level_three_strict_pairs_when_self_pairings_are_plus(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = trivial_bimodule(A)
        assert lsca_cochain_basis(A, V, 3).dim == 9

    def test_negative_level_is_refused(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = trivial_bimodule(A)
        L = commutator_algebra(A)
        for basis, algebra in ((lsca_cochain_basis, A), (lie_cochain_basis, L)):
            with pytest.raises(ValueError, match="^cochain level must be nonnegative$"):
                basis(algebra, V, -1)

    def test_level_zero_trivial_module_is_all_of_v(self):
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        assert lsca_cochain_basis(A, V, 0).dim == 1

    def test_level_zero_natural_here_is_all_of_v(self):
        # (xy)v = x(yv) holds for every v: both sides land on multiples of
        # z, and z multiplies everything to zero
        A = anticommuting_pair_algebra()
        assert invariant_subspace(A, natural_bimodule(A)).dim == 3

    def test_level_zero_natural_is_smaller_off_associativity(
            self, nonzero_lsa_corpus):
        # the first corpus member has the one product c a = -a: it is
        # left-symmetric, but (cc)a - c(ca) = -a, so a is not invariant
        A = nonzero_lsa_corpus[0]
        V = natural_bimodule(A)
        a, b, c = (A.space.find(name) for name in "abc")
        assert A.rows == {(c, a): {a: MINUS_ONE}}
        assert validate_left_symmetric(A) == []
        C0 = invariant_subspace(A, V)
        assert C0.meta == [{b: ONE}, {c: ONE}]
        assert [(d, [vec.get(t, ZERO) for t in range(3)])
                for d, vec in zip(C0.degrees, C0.meta)] == dense_invariants(A, V)
        # and it is one of five corpus members whose C^0 is smaller than A
        assert sum(invariant_subspace(B, natural_bimodule(B)).dim < B.dim
                   for B in nonzero_lsa_corpus) == 5


# ---------------------------------------------------------------------------
# coboundary formulas, checked against independent transcriptions

class TestCoboundaryFormulas:
    def test_d0_on_trivial_module_is_zero(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = trivial_bimodule(A)
        assert lsca_coboundary(A, V, 0).is_zero()

    def test_d0_natural_is_commutator_with_the_argument(self):
        # d_0(v)(x) = vx - eps(|v|,|x|) xv
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        c0 = lsca_cochain_basis(A, V, 0)
        c1 = lsca_cochain_basis(A, V, 1)
        d0 = lsca_coboundary(A, V, 0, src=c0, dst=c1)
        eps, space = A.eps, A.space
        for col in range(c0.dim):
            coords = c0.meta[col]
            got = column(d0, col)
            for row in range(c1.dim):
                # C^1 = Hom((wedge^0 A)(x)A, V) is row-major: (x => w) sits
                # at x * dim V + w
                xi, wi = divmod(row, V.space.dim)
                expect = ZERO
                for vi, cv in coords.items():
                    vx = product(A, vi, xi)[wi]
                    xv = product(A, xi, vi)[wi]
                    e = eps(space.degrees[vi], space.degrees[xi])
                    expect = expect + cv * (vx - e * xv)
                assert got[row] == expect

    def test_d1_matches_displayed_formula(self):
        # (d_1 f)(x1,x2) = eps(|f|,|x1|) x1 f(x2) + f(x1) x2 - f(x1 x2)
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        c1 = lsca_cochain_basis(A, V, 1)
        c2 = lsca_cochain_basis(A, V, 2)
        d1 = lsca_coboundary(A, V, 1, src=c1, dst=c2)
        eps, space, vspace = A.eps, A.space, V.space

        for col in range(c1.dim):
            (fx,), fv = _hom_parts(c1, col, space, vspace)

            def f_at(i):
                return [ONE if (i, t) == (fx, fv) else ZERO
                        for t in range(vspace.dim)]

            def f_vec(vec):
                out = [ZERO] * vspace.dim
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        out = add(out, scale(c, f_at(k)))
                return out

            fdeg = vspace.degrees[fv] - space.degrees[fx]
            got = column(d1, col)
            for row in range(c2.dim):
                (x1, x2), wv = _hom_parts(c2, row, space, vspace)
                expect = add(
                    scale(eps(fdeg, space.degrees[x1]),
                          left_action(V, x1, f_at(x2))),
                    right_action(V, f_at(x1), x2),
                    scale(MINUS_ONE, f_vec(product(A, x1, x2))),
                )
                assert got[row] == expect[wv]

    def test_d2_matches_displayed_formula(self):
        # (d_2 f)(x1,x2,x3) = eps(d,a) x1 f(x2,x3) - eps(a+d,b) x2 f(x1,x3)
        #   + eps(a,b) f(x2,x1) x3 - f(x1,x2) x3
        #   - eps(a,b) f(x2, x1 x3) + f(x1, x2 x3) - f([x1,x2], x3)
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        c2 = lsca_cochain_basis(A, V, 2)
        c3 = lsca_cochain_basis(A, V, 3)
        d2 = lsca_coboundary(A, V, 2, src=c2, dst=c3)
        eps, space, vspace = A.eps, A.space, V.space

        for col in range(c2.dim):
            (w1, w2), fv = _hom_parts(c2, col, space, vspace)

            def f_pair(i, j):
                return [ONE if (i, j, t) == (w1, w2, fv) else ZERO
                        for t in range(vspace.dim)]

            def f_second(i, vec):
                out = [ZERO] * vspace.dim
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        out = add(out, scale(c, f_pair(i, k)))
                return out

            def f_first(vec, j):
                out = [ZERO] * vspace.dim
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        out = add(out, scale(c, f_pair(k, j)))
                return out

            fdeg = (vspace.degrees[fv] - space.degrees[w1]
                    - space.degrees[w2])
            got = column(d2, col)
            for row in range(c3.dim):
                (x1, x2, x3), wv = _hom_parts(c3, row, space, vspace)
                a, b = space.degrees[x1], space.degrees[x2]
                e_da = eps(fdeg, a)
                e_adb = eps(a + fdeg, b)
                e_ab = eps(a, b)
                bracket = [p - e_ab * q for p, q in
                           zip(product(A, x1, x2), product(A, x2, x1))]
                expect = add(
                    scale(e_da, left_action(V, x1, f_pair(x2, x3))),
                    scale(-e_adb, left_action(V, x2, f_pair(x1, x3))),
                    scale(e_ab, right_action(V, f_pair(x2, x1), x3)),
                    scale(MINUS_ONE, right_action(V, f_pair(x1, x2), x3)),
                    scale(-e_ab, f_second(x2, product(A, x1, x3))),
                    f_second(x1, product(A, x2, x3)),
                    scale(MINUS_ONE, f_first(bracket, x3)),
                )
                assert got[row] == expect[wv]

    def test_d1_with_zero_actions_is_negated_product(self):
        # with both actions zero the formula collapses to -f(x1 x2)
        A = cyclic_products_algebra()
        V = trivial_bimodule(A)
        c1 = lsca_cochain_basis(A, V, 1)
        c2 = lsca_cochain_basis(A, V, 2)
        d1 = lsca_coboundary(A, V, 1, src=c1, dst=c2)
        col = c1.names.index("[1=>[z=>u]]")
        got = column(d1, col)
        for row in range(c2.dim):
            expect = MINUS_ONE if c2.names[row] == "[x=>[y=>u]]" else ZERO
            assert got[row] == expect

    def test_d2_after_d1_vanishes_on_the_pair_algebra(self):
        # holds even over the non-biadditive table: the level-2 composite
        # never multiplies two original letters into a third
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        with pytest.warns(NonComplexWarning):
            cx = build_lsca_complex(A, V, 2)
        assert composition_is_zero(cx, 0)
        assert composition_is_zero(cx, 1)


def _hom_parts(space, idx, aspace, vspace):
    """Letters and target of an elementary cochain, read off its name
    [w1^...^wk=>[w=>v]]; the unit prefix "1" of level-1 words is dropped."""
    name = space.names[idx]
    prefix, _, inner = name[1:-1].partition("=>")
    last, _, target = inner[1:-1].partition("=>")
    letters = [] if prefix in ("", "1") else prefix.split("^")
    letters.append(last)
    return (tuple(aspace.names.index(w) for w in letters),
            vspace.names.index(target))


def product(A, i, j):
    """e_i e_j as a dense vector."""
    return stored(A.products, (i, j), A.dim)


def left_action(V, i, vvec):
    out = [ZERO] * V.space.dim
    for w, c in enumerate(vvec):
        if not c.is_zero():
            out = add(out, scale(c, stored(V.left, (i, w), V.space.dim)))
    return out


def right_action(V, vvec, i):
    out = [ZERO] * V.space.dim
    for w, c in enumerate(vvec):
        if not c.is_zero():
            out = add(out, scale(c, stored(V.right, (w, i), V.space.dim)))
    return out


# ---------------------------------------------------------------------------
# the complex identity

class TestComplexIdentity:
    def test_dd_zero_on_biadditive_fixtures(self):
        builds = [
            (anticommuting_pair_algebra(eps_plus()), "natural"),
            (anticommuting_pair_algebra(eps_plus()), "trivial"),
            (zero_algebra(), "natural"),
            (square_to_second_algebra(-1), "natural"),
            (square_to_second_algebra(2), "trivial"),
            (mutual_squares_algebra(3, 0), "natural"),
        ]
        for A, kind in builds:
            V = natural_bimodule(A) if kind == "natural" else trivial_bimodule(A)
            cx = build_lsca_complex(A, V, 3)
            for k in range(3):
                assert composition_is_zero(cx, k), (kind, k)

    def test_dd_zero_on_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:8] + nonzero_lsa_corpus[:8]:
            cx = build_lsca_complex(A, natural_bimodule(A), 3)
            for k in range(3):
                assert composition_is_zero(cx, k)

    def test_lie_dd_zero_on_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:8] + nonzero_lsa_corpus[:8]:
            L, W = lie_side(A, natural_bimodule(A))
            cx = build_lie_complex(L, W, 2)
            for k in range(2):
                assert composition_is_zero(cx, k)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=-9, max_value=9))
    def test_dd_zero_across_the_one_parameter_family(self, c):
        A = square_to_second_algebra(c)
        cx = build_lsca_complex(A, natural_bimodule(A), 2)
        assert composition_is_zero(cx, 0)
        assert composition_is_zero(cx, 1)

    def test_nonbiadditive_table_breaks_dd_at_level_two(self):
        # the bracket-inserted letters at level >= 3 carry composite
        # degrees, where the sign table stops being multiplicative
        A = anticommuting_pair_algebra()
        for V in (natural_bimodule(A), trivial_bimodule(A)):
            with pytest.warns(NonComplexWarning):
                cx = build_lsca_complex(A, V, 3)
            assert composition_is_zero(cx, 0)
            assert composition_is_zero(cx, 1)
            assert not composition_is_zero(cx, 2)

    def test_nonbiadditive_table_breaks_lie_dd_at_level_one(self):
        A = anticommuting_pair_algebra()
        L, W = lie_side(A, trivial_bimodule(A))
        cx = build_lie_complex(L, W, 2)
        assert composition_is_zero(cx, 0)
        assert not composition_is_zero(cx, 1)

    def test_differentials_preserve_degree(self, lsa_corpus):
        A = lsa_corpus[0]
        V = natural_bimodule(A)
        cx = build_lsca_complex(A, V, 2)
        for k in range(3):
            src, dst, d = cx.bases[k], cx.bases[k + 1], cx.diffs[k]
            for col in range(src.dim):
                out = column(d, col)
                for row, c in enumerate(out):
                    if not c.is_zero():
                        assert dst.degrees[row] == src.degrees[col]


# ---------------------------------------------------------------------------
# eps bookkeeping at rank three

@pytest.fixture(scope="module")
def qext3_bases():
    """The quantum exterior algebra over Z3^3 as is and on a seeded
    rescaled basis."""
    A = quantum_exterior_algebra(3)
    B = rescaled(A, seed=20261019)
    assert A.products != B.products
    return {"as-is": A, "rescaled": B}


class TestEpsBookkeepingAtRankThree:
    """Over Z3^3 the eps factors of the coboundaries are read where they are
    asymmetric: from level 3 on a bracket [x_j, x_i] can skip a letter
    between j and i, and eps(a, b) != eps(b, a) for generators of distinct
    degree.  A factor with its arguments swapped, in one tower or in all of
    them, breaks d o d = 0 or the intertwining square here; the smaller
    inputs of this suite do not see it."""

    @pytest.mark.parametrize("module", [natural_bimodule, trivial_bimodule],
                             ids=["natural", "trivial"])
    def test_both_towers_are_complexes_on_any_basis(self, qext3_bases, module):
        tables = {}
        for basis, A in qext3_bases.items():
            V = module(A)
            cx = build_lsca_complex(A, V, 4)
            for k in range(4):
                assert cx.diffs[k + 1].compose(cx.diffs[k]).is_zero(), (basis, k)
            L, W = lie_side(A, V)
            lx = build_lie_complex(L, W, 3)
            for k in range(3):
                assert lx.diffs[k + 1].compose(lx.diffs[k]).is_zero(), (basis, k)
            tables[basis] = (cohomology_table(cx), cohomology_table(lx))
        assert tables["as-is"] == tables["rescaled"]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("module", [natural_bimodule, trivial_bimodule],
                             ids=["natural", "trivial"])
    def test_main_theorem_holds_on_any_basis(self, qext3_bases, module, n):
        for basis, A in qext3_bases.items():
            report = verify_main_theorem(A, module(A), n)
            assert report["equal"], (basis, report["checks"])
            assert report["intertwining_zero"], basis


def x1_ideal(A):
    """The bimodule I spanned by the monomials of A that contain x1."""
    return ideal_bimodule(A, [k for k, name in enumerate(A.space.names)
                              if "x1" in name])


class TestAsymmetricCoefficients:
    """The ideal I spanned by the monomials containing x1, as coefficients
    over the quantum exterior algebras.  Its left and right actions differ
    (x_2 x_1 = zeta_3 x_1 x_2), so a coboundary that reads one action where
    the other is meant changes the results here; with natural coefficients
    both actions are one table, and with trivial ones both are zero."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_the_ideal_is_a_bimodule_with_two_actions(self, r):
        A = quantum_exterior_algebra(r)
        V = x1_ideal(A)
        assert V.space.dim == 2 ** (r - 1)
        assert validate_bimodule(A, V) == []
        assert dense_bimodule(A, V) == []
        assert any(V.right.get((w, i)) != row for (i, w), row in V.left.items())

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("r", [2, 3])
    def test_main_theorem(self, r, n):
        A = quantum_exterior_algebra(r)
        report = verify_main_theorem(A, x1_ideal(A), n)
        assert report["equal"], report["checks"]
        assert report["intertwining_zero"]

    def test_oracle_agreement(self):
        A = quantum_exterior_algebra(2)
        V = x1_ideal(A)
        table = cohomology_table(build_lsca_complex(A, V, 3))
        assert table == naive_oracle_table(A, V, 3)
        assert sum(1 for e in table if e["dimH"] > 0) == 18


class TestAssemblyWork:
    """Term 4 of d_n and the bracket term of delta_{n-1} run over the same
    (word, i, j, k), and each straightens its word once there, not once per
    last argument of d_n."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("module", [natural_bimodule, trivial_bimodule],
                             ids=["natural", "trivial"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_both_towers_straighten_each_word_equally_often(
            self, monkeypatch, r, module, n):
        A = quantum_exterior_algebra(r)
        V = module(A)
        L, W = lie_side(A, V)
        calls = _count_straightens(monkeypatch)
        lsca_coboundary(A, V, n)
        lsca = Counter(calls)
        calls.clear()
        lie_coboundary(L, W, n - 1)
        assert lsca == calls
        if r == 3:
            assert sum(calls.values()) == {2: 5, 3: 30}[n]


class TestWordBasisWork:
    """Each tower builds each exterior word basis once per computation: a
    cochain space keeps the word basis it was built from, and the
    coboundaries read it there.  The left-symmetric tower builds its
    word bases in ``cochain_space`` (module ``bimodule``), the Lie tower
    in ``lie_cochain_basis`` (module ``cohomology``).  A theorem check
    builds them for the left-symmetric tower only: C^{k+1}(A,V) is built
    as C^k([A], C^1(A,V)), so the Lie side runs on the same spaces."""

    @staticmethod
    def _count(monkeypatch):
        calls = Counter()
        for tower, owner in (("lsca", bimodule), ("lie", cohomology)):
            def counting(space, n, eps, tower=tower, real=owner.exterior_basis):
                calls[tower, n] += 1
                return real(space, n, eps)
            monkeypatch.setattr(owner, "exterior_basis", counting)
        return calls

    @pytest.mark.parametrize("r", [2, 3])
    def test_a_complex_builds_each_word_basis_once(self, monkeypatch, r):
        A = quantum_exterior_algebra(r)
        calls = self._count(monkeypatch)
        build_lsca_complex(A, natural_bimodule(A), 2)
        # C^1..C^3 on the words of wedge^0..wedge^2; C^0 has none
        assert calls == {("lsca", k): 1 for k in range(3)}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("r", [2, 3])
    def test_a_theorem_check_builds_each_word_basis_once(
            self, monkeypatch, r, n):
        A = quantum_exterior_algebra(r)
        V = natural_bimodule(A)
        calls = self._count(monkeypatch)
        report = verify_main_theorem(A, V, n)
        assert report["equal"] and report["intertwining_zero"]
        # C^n..C^{n+2}(A,V) read wedge^{n-1}..wedge^{n+1} A, and the
        # coefficients C^1(A,V) wedge^0 A; the Lie side reads the same
        # spaces, so lie_cochain_basis builds none
        assert calls == {("lsca", k): 1 for k in {0, n - 1, n, n + 1}}


class TestValidatorWork:
    """The identity checks compose the stored tables, so they multiply only
    where products meet: on k orthogonal copies of the dual numbers their
    scalar products are k times those on one copy, where a walk over every
    basis triple does about k^3 times the work."""

    def test_products_grow_with_the_number_of_copies(self, monkeypatch):
        base = parse_spec(
            (FIXTURES / "dual_numbers_super.json").read_text()).algebra
        products = _count_products(monkeypatch)
        validate, invariants = [], []
        for k in (1, 2, 4):
            A = direct_sum(base, k)
            V = natural_bimodule(A)
            products[0] = 0
            assert validate_left_symmetric(A) == []
            validate.append(products[0])
            products[0] = 0
            assert invariant_subspace(A, V).dim == 2 * k
            invariants.append(products[0])
        for counts in (validate, invariants):
            assert counts[0] > 0
            assert counts == [counts[0], 2 * counts[0], 4 * counts[0]]

    def test_a_zero_defect_builds_no_target_space(self, monkeypatch,
                                                  nonzero_lsa_corpus):
        # (xy)v = x(yv) on associative algebras and on trivial coefficients,
        # so C^0 = V there, and Hom(A (x) A, V) is never built
        base = parse_spec(
            (FIXTURES / "dual_numbers_super.json").read_text()).algebra
        built = _count_calls(monkeypatch, cohomology, "hom_space")
        for A in (quantum_exterior_algebra(3), direct_sum(base, 4)):
            for V in (natural_bimodule(A), trivial_bimodule(A)):
                assert invariant_subspace(A, V).dim == V.space.dim
        assert built == [0]
        A = nonzero_lsa_corpus[0]
        assert invariant_subspace(A, natural_bimodule(A)).dim == 2
        assert built == [1]


# ---------------------------------------------------------------------------
# cocycle twists

# Z3^2 twists; the last two give M + S - S^T = 0 on the quantum exterior
# form M = [[0, 1], [2, 0]], so they untwist the grading to eps = 1
Z3_2_TWISTS = {"S01": [[0, 1], [0, 0]], "untwist-a": [[1, 2], [0, 2]],
               "untwist-b": [[2, 0], [1, 1]]}
Z3_3_TWIST = [[0, 1, 0], [0, 0, 2], [1, 0, 0]]


def _lsca_tables(A, max_n=3):
    """The level <= max_n tables with natural and with trivial coefficients;
    A must be left-symmetric, so building them raises no warning."""
    assert validate_left_symmetric(A) == []
    return [cohomology_table(build_lsca_complex(A, module(A), max_n))
            for module in (natural_bimodule, trivial_bimodule)]


class TestCocycleTwist:
    """Twisting by sigma(a, b) = zeta_m^(a^T S b) moves every product and
    every eps value off-diagonal (``helpers.twisted``) and leaves the
    cohomology unchanged.  A non-commutative twist puts asymmetric eps
    factors next to nonzero products, which the quantum exterior algebras
    barely provide on their own."""

    @pytest.mark.parametrize("S", Z3_2_TWISTS.values(), ids=Z3_2_TWISTS.keys())
    def test_z3_2_tables_survive_the_twist(self, S):
        A = quantum_exterior_algebra(2)
        T = twisted(A, S)
        assert T.products != A.products
        assert _lsca_tables(T) == _lsca_tables(A)

    def test_z3_3_tables_survive_the_twist(self):
        A = quantum_exterior_algebra(3)
        assert _lsca_tables(twisted(A, Z3_3_TWIST)) == _lsca_tables(A)

    def test_corpus_tables_survive_the_twist(self, nonzero_lsa_corpus):
        rng = random.Random(20261019)
        for A in nonzero_lsa_corpus:
            before = _lsca_tables(A)
            for _ in range(2):
                S = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
                assert _lsca_tables(twisted(A, S)) == before, S

    @pytest.mark.parametrize("name", ["untwist-a", "untwist-b"])
    def test_untwist_agrees_with_the_trivial_bicharacter(self, name):
        T = twisted(quantum_exterior_algebra(2), Z3_2_TWISTS[name])
        assert all(v == 0 for row in T.eps.matrix for v in row)
        ungraded = ColorAlgebra(T.space, trivial_bicharacter(T.space.group),
                                T.products)
        assert _lsca_tables(ungraded) == _lsca_tables(T)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("S", Z3_2_TWISTS.values(), ids=Z3_2_TWISTS.keys())
    def test_main_theorem_holds_after_the_twist(self, S, n):
        T = twisted(quantum_exterior_algebra(2), S)
        for module in (natural_bimodule, trivial_bimodule):
            report = verify_main_theorem(T, module(T), n)
            assert report["equal"], report["checks"]
            assert report["intertwining_zero"]


# ---------------------------------------------------------------------------
# hom adjunction and intertwining

def phi_square_commutes(A, V, n, delta=None):
    """Whether delta_n phi_n = phi_{n+1} d_{n+1}, from the explicit phi
    maps and two compositions, on bases and complexes built apart from
    ``verify_main_theorem``; ``delta`` stands in for the raw delta_n."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonComplexWarning)
        lsca = build_lsca_complex(A, V, n + 1)
    if delta is None:
        # the raw delta_n, built without the module-law gate
        L, W = lie_side(A, V, force=True)
        delta = lie_coboundary(L, W, n, src=lie_cochain_basis(L, W, n),
                               dst=lie_cochain_basis(L, W, n + 1))
    ph_n = phi_matrix(A, V, n, src=lsca.bases[n + 1], dst=delta.src)
    ph_n1 = phi_matrix(A, V, n + 1, src=lsca.bases[n + 2], dst=delta.dst)
    # both sides map C^{n+1}(A,V) to delta's target, so they agree when
    # their rows do
    return (delta.compose(ph_n).rows
            == ph_n1.compose(lsca.diffs[n + 1]).rows)


class TestAdjunctionAndIntertwining:
    def _dims(self, space):
        return {tuple(d.components): space.dim_at(d)
                for d in space.degrees_present()}

    def test_adjunction_dims_on_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:8] + nonzero_lsa_corpus[:8]:
            V = natural_bimodule(A)
            L, W = lie_side(A, V)
            for n in range(4):
                lhs = lsca_cochain_basis(A, V, n + 1)
                rhs = lie_cochain_basis(L, W, n)
                assert self._dims(lhs) == self._dims(rhs), n

    def test_adjunction_dims_survive_the_nonbiadditive_table(self):
        # pure combinatorics: word counts never consult bicharacter values
        A = anticommuting_pair_algebra()
        for V in (natural_bimodule(A), trivial_bimodule(A)):
            L, W = lie_side(A, V)
            for n in range(4):
                lhs = lsca_cochain_basis(A, V, n + 1)
                rhs = lie_cochain_basis(L, W, n)
                assert self._dims(lhs) == self._dims(rhs), n

    def test_phi_blocks_are_permutations(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        ph = phi_matrix(A, V, 1)
        # C^2(A,V) is built as C^1([A], C^1(A,V)), phi's default target
        assert ph.dst is ph.src
        for d in ph.dst.degrees_present():
            blk = dense_block(ph, d)
            assert len(blk) == len(blk[0])
            for row in blk:
                assert sum(1 for c in row if not c.is_zero()) == 1
                assert all(c.is_zero() or c == ONE for c in row)
            for j in range(len(blk[0])):
                assert sum(1 for row in blk if not row[j].is_zero()) == 1

    def test_phi_at_level_zero_is_the_identity_identification(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        ph = phi_matrix(A, V, 0)
        for d in ph.dst.degrees_present():
            blk = dense_block(ph, d)
            for i, row in enumerate(blk):
                for j, c in enumerate(row):
                    assert c == (ONE if i == j else ZERO)

    def test_intertwining_on_biadditive_fixtures(self):
        for A in (anticommuting_pair_algebra(eps_plus()),
                  square_to_second_algebra(2),
                  mutual_squares_algebra(3, 0)):
            for V in (natural_bimodule(A), trivial_bimodule(A)):
                for n in range(3):
                    assert phi_square_commutes(A, V, n), n

    def test_intertwining_on_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:8] + nonzero_lsa_corpus[:8]:
            V = natural_bimodule(A)
            for n in range(3):
                assert phi_square_commutes(A, V, n), n

    def test_nonbiadditive_table_breaks_intertwining_above_level_zero(self):
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        assert phi_square_commutes(A, V, 0)
        assert not phi_square_commutes(A, V, 1)
        assert not phi_square_commutes(A, V, 2)


# ---------------------------------------------------------------------------
# the dimension theorem

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# verify_main_theorem(force=True) on fixtures/anticommuting_pair.json with
# natural coefficients: (degree, lhs, rhs, equal) per check at n = 1, 2.
# The bicharacter is not biadditive and neither square commutes, so
# intertwining_zero is false throughout.
FORCED_PAIR_CHECKS = {
    1: [((0, 0, 0), 1, 1, True), ((0, 1, 1), 2, 2, True),
        ((1, 0, 1), 2, 3, False), ((1, 1, 0), 2, 3, False)],
    2: [((0, 0, 0), 2, 3, False), ((0, 1, 1), 2, 2, True),
        ((1, 0, 1), 1, 2, False), ((1, 1, 0), 1, 2, False)],
}


def _free_entry(f):
    """(i, j) of one degree with row i and column j of f zero; an entry
    there raises the rank of its block by one."""
    used = {j for row in f.rows.values() for j in row}
    return next((i, j) for i, d in enumerate(f.dst.degrees) if i not in f.rows
                for j in f.src.global_indices(d) if j not in used)


class TestMainTheorem:
    def test_zero_algebra_gives_full_cochain_dims_on_both_sides(self):
        A = zero_algebra()
        V = natural_bimodule(A)
        report = verify_main_theorem(A, V, 1)
        assert report["equal"] and report["intertwining_zero"]
        c2 = lsca_cochain_basis(A, V, 2)
        for check in report["checks"]:
            d = A.space.group.degree(check["degree"])
            assert check["lhs"] == c2.dim_at(d)

    def test_pair_algebra_biadditive_passes(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        for n in (1, 2):
            report = verify_main_theorem(A, V, n)
            assert report["equal"] is True
            assert report["intertwining_zero"] is True
            for check in report["checks"]:
                assert set(check) == {"n", "degree", "lhs", "rhs", "equal",
                                      "intertwining_zero"}
                assert check["n"] == n

    def test_corpus_passes_at_both_levels(self, lsa_corpus):
        for A in lsa_corpus[:6]:
            V = natural_bimodule(A)
            for n in (1, 2):
                report = verify_main_theorem(A, V, n)
                assert report["equal"] and report["intertwining_zero"]

    def test_level_zero_is_refused(self):
        A = zero_algebra()
        with pytest.raises(ValueError, match=r"^the theorem compares levels n >= 1$"):
            verify_main_theorem(A, natural_bimodule(A), 0)

    def test_invalid_algebra_is_refused(self):
        A = cyclic_products_algebra()
        with pytest.raises(CohomologyError):
            verify_main_theorem(A, trivial_bimodule(A), 1)

    def test_force_overrides_the_validator_gate(self):
        A = cyclic_products_algebra()
        with pytest.warns(NonComplexWarning):
            report = verify_main_theorem(A, trivial_bimodule(A), 1, force=True)
        assert {"n", "equal", "intertwining_zero", "checks"} <= set(report)

    def test_nonbiadditive_natural_coefficients_fail_the_module_gate(self):
        # the hom action of the pair algebra on C^1(A,A) violates the
        # left-module law under the sign table, so the bracket-side complex
        # refuses to build
        A = anticommuting_pair_algebra()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonComplexWarning)
            with pytest.raises(CohomologyError):
                verify_main_theorem(A, natural_bimodule(A), 1)

    def test_nonbiadditive_trivial_dims_agree_but_phi_does_not_intertwine(self):
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        for n in (1, 2):
            with pytest.warns(NonComplexWarning):
                report = verify_main_theorem(A, V, n)
            assert report["equal"] is True
            assert report["intertwining_zero"] is False

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_call_builds_only_the_four_maps_it_compares(self, monkeypatch, n):
        import colorhom
        from colorhom import algebra, bimodule, cohomology

        counted = ("validate_left_symmetric", "validate_left_module",
                   "lsca_coboundary", "lie_coboundary", "phi_matrix",
                   "cohomology_table", "invariant_subspace",
                   "build_lsca_complex", "build_lie_complex",
                   "commutator_algebra")
        calls = dict.fromkeys(counted, 0)

        def counter(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        # every module that binds the name, so calls made from algebra or
        # bimodule count too
        for name in counted:
            fn = getattr(cohomology, name)
            for mod in (colorhom, algebra, bimodule, cohomology):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counter(name, fn))
        composes = _count_calls(monkeypatch, GradedMap, "compose")
        A = anticommuting_pair_algebra(eps_plus())
        verify_main_theorem(A, natural_bimodule(A), n)
        # the intertwining square is read from the rows of d_{n+1} and
        # delta_n, so no phi is built and no map is composed
        assert composes == [0]
        assert calls == {
            "validate_left_symmetric": 1, "validate_left_module": 1,
            "lsca_coboundary": 2, "lie_coboundary": 2, "phi_matrix": 0,
            "cohomology_table": 0, "invariant_subspace": 0,
            "build_lsca_complex": 0, "build_lie_complex": 0,
            # [A] for the Lie side, plus one per coboundary with n >= 2
            "commutator_algebra": n + 1,
        }

    @pytest.mark.parametrize("n", [1, 2])
    def test_intertwining_zero_is_the_explicit_phi_square(self, n):
        # the report reads the square from the rows of d_{n+1} and delta_n;
        # the reference builds phi_n, phi_{n+1} and both compositions
        for A in (anticommuting_pair_algebra(eps_plus()),
                  square_to_second_algebra(2),
                  mutual_squares_algebra(3, 0)):
            for V in (natural_bimodule(A), trivial_bimodule(A)):
                report = verify_main_theorem(A, V, n)
                assert report["intertwining_zero"] is True
                assert phi_square_commutes(A, V, n)
        spec = parse_spec((FIXTURES / "anticommuting_pair.json").read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = verify_main_theorem(spec.algebra, spec.module, n,
                                         force=True)
        assert report["intertwining_zero"] is False
        assert not phi_square_commutes(spec.algebra, spec.module, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_forced_nonbiadditive_reports_are_pinned(self, n):
        spec = parse_spec((FIXTURES / "anticommuting_pair.json").read_text())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = verify_main_theorem(spec.algebra, spec.module, n,
                                         force=True)
        assert report == {
            "n": n, "equal": False, "intertwining_zero": False,
            "checks": [{"n": n, "degree": list(deg), "lhs": lh, "rhs": rh,
                        "equal": eq, "intertwining_zero": False}
                       for deg, lh, rh, eq in FORCED_PAIR_CHECKS[n]],
        }

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("broken", ["upper", "lower"])
    def test_one_square_holds_and_the_other_does_not(self, monkeypatch, n,
                                                     broken):
        # one extra entry in delta_n (upper square) or delta_{n-1} (lower
        # square) alone; the Lie side must rank the map it was given
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        expected = verify_main_theorem(A, V, n)
        assert expected["equal"] and expected["intertwining_zero"]
        level = n if broken == "upper" else n - 1
        real, built = cohomology.lie_coboundary, {}

        def perturbed(L, W, k, src=None, dst=None):
            f = built[k] = real(L, W, k, src=src, dst=dst)
            if k == level:
                f.add(*_free_entry(f), ONE)
            return f

        monkeypatch.setattr(cohomology, "lie_coboundary", perturbed)
        report = verify_main_theorem(A, V, n)
        for check in expected["checks"]:
            d = A.space.group.degree(check["degree"])
            check["rhs"] = built[n].nullity_at(d) - built[n - 1].rank_at(d)
            check["equal"] = check["lhs"] == check["rhs"]
            # only the upper square is reported
            check["intertwining_zero"] = broken == "lower"
        expected["equal"] = all(c["equal"] for c in expected["checks"])
        expected["intertwining_zero"] = broken == "lower"
        assert report == expected
        assert report["equal"] is False
        # the explicit phi square on the delta_n the check was given
        assert phi_square_commutes(A, V, n, delta=built[n]) is (
            broken == "lower")

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_distinct_block_is_eliminated_once(self, monkeypatch, n):
        # delta_n equals d_{n+1} and delta_{n-1} equals d_n here, so the
        # Lie side reads the ranks of the left-symmetric maps
        A = quantum_exterior_algebra(3)
        real_lsca, real_lie = cohomology.lsca_coboundary, cohomology.lie_coboundary
        lsca, lie = {}, []

        def keep_lsca(A, V, k, **kwargs):
            f = lsca[k] = real_lsca(A, V, k, **kwargs)
            return f

        def keep_lie(*args, **kwargs):
            lie.append(real_lie(*args, **kwargs))
            return lie[-1]

        monkeypatch.setattr(cohomology, "lsca_coboundary", keep_lsca)
        monkeypatch.setattr(cohomology, "lie_coboundary", keep_lie)
        calls = _count_eliminations(monkeypatch)
        report = verify_main_theorem(A, natural_bimodule(A), n)
        counted = dict(calls)
        assert report["equal"] and report["intertwining_zero"]
        blocks = {(f, d) for f in (lsca[n], lsca[n + 1])
                  for d in f.dst.degrees_present() if f._block(d)}
        assert len(blocks) == 54
        assert set(counted) == blocks
        assert set(counted.values()) == {1}
        assert not {f for f, _ in counted} & set(lie)
        # delta_{n-1} and delta_n run on the spaces of d_n and d_{n+1}
        delta_in, delta_n = lie
        assert delta_in.src is lsca[n].src and delta_in.dst is lsca[n].dst
        assert delta_n.src is lsca[n + 1].src and delta_n.dst is lsca[n + 1].dst

    def test_forced_warnings_are_pinned(self):
        A = cyclic_products_algebra()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verify_main_theorem(A, trivial_bimodule(A), 1, force=True)
        assert [(w.category, str(w.message)) for w in caught] == [
            (NonComplexWarning,
             "algebra fails the left-symmetric identity on 4 basis triples "
             "(first at ('x', 'y', 'x')); dimensions are reported as computed "
             "from the raw coboundary matrices, which need not compose to "
             "zero"),
            (NonComplexWarning,
             "induced coefficients fail the left-module law; the Lie-side "
             "dimensions are computed from raw matrices"),
        ]
        # attributed to the caller, not to a line inside the package
        assert {w.filename for w in caught} == {__file__}


class TestNonzeroCorpus:
    """The seeded corpus whose every member has a nonzero product."""

    def test_every_member_has_a_product(self, nonzero_lsa_corpus):
        assert len(nonzero_lsa_corpus) == 25
        assert all(A.products for A in nonzero_lsa_corpus)

    def test_oracle_agreement(self, nonzero_lsa_corpus):
        for A in nonzero_lsa_corpus:
            for V in (natural_bimodule(A), trivial_bimodule(A)):
                main = cohomology_table(build_lsca_complex(A, V, 3))
                assert [e for e in main if e["n"] <= 3] == \
                    naive_oracle_table(A, V, 3)

    def test_theorem_at_level_one(self, nonzero_lsa_corpus):
        for A in nonzero_lsa_corpus:
            for V in (natural_bimodule(A), trivial_bimodule(A)):
                report = verify_main_theorem(A, V, 1)
                assert report["equal"] and report["intertwining_zero"]


# ---------------------------------------------------------------------------
# tables and the example values

class TestCohomologyValues:
    def test_pair_algebra_h0_concentrates_at_the_annihilator_degree(self):
        A = anticommuting_pair_algebra()
        with pytest.warns(NonComplexWarning):
            cx = build_lsca_complex(A, natural_bimodule(A), 0)
        entries = [e for e in cohomology_table(cx) if e["n"] == 0]
        assert {tuple(e["degree"]): e["dimH"] for e in entries} == {
            (0, 1, 1): 1,
            (1, 0, 1): 0,
            (1, 1, 0): 0,
        }

    def test_h0_equals_the_centralizer_of_the_commutator(self, lsa_corpus):
        from colorhom.glinalg import exact_rank
        for A in lsa_corpus[:10]:
            tab = cohomology_table(build_lsca_complex(A, natural_bimodule(A), 0))
            h0 = sum(e["dimH"] for e in tab if e["n"] == 0)
            L = commutator_algebra(A)
            rows = []
            for u in range(A.dim):
                for comp in range(A.dim):
                    rows.append([product(L, u, v)[comp] for v in range(A.dim)])
            assert h0 == A.dim - exact_rank(rows)

    def test_nilpotent_left_multiplications_force_h0(self, lsa_corpus):
        hit = 0
        for A in lsa_corpus:
            if not left_mult_nilpotent(A):
                continue
            hit += 1
            tab = cohomology_table(build_lsca_complex(A, natural_bimodule(A), 0))
            assert sum(e["dimH"] for e in tab if e["n"] == 0) >= 1
        assert hit > 0

    def test_zero_action_coefficients_on_the_nonassociative_triple(self):
        # H^0 is the whole line; H^1 sees exactly the functionals killing
        # the span of the products, here 3 - 2 = 1 at the degree of x
        A = cyclic_products_algebra()
        V = trivial_bimodule(A)
        with pytest.warns(NonComplexWarning):
            cx = build_lsca_complex(A, V, 1)
        table = table_index(cohomology_table(cx))
        h0 = table.get((0, (0, 0, 0)))
        assert h0 and h0["dimH"] == 1
        h1 = table.get((1, (1, 1, 0)))
        assert h1 == {"n": 1, "degree": [1, 1, 0], "dimC": 1, "dimZ": 1,
                      "dimB": 0, "dimH": 1}
        for deg in ((0, 1, 1), (1, 0, 1)):
            e = table[(1, deg)]
            assert e["dimH"] == 0

    def test_abelian_brackets_with_zero_action_keep_every_cochain(self):
        L = LieColorAlgebra(xyz_space(), eps_plus(), {})
        G = L.space.group
        W = Bimodule(L, GradedSpace(G, [("u", (0, 0, 0))]), {}, {})
        cx = build_lie_complex(L, W, 2)
        for diff in cx.diffs:
            assert diff.is_zero()
        for e in cohomology_table(cx):
            assert e["dimH"] == e["dimC"]

    def test_h0_uses_no_quotient(self):
        # dimB is pinned to zero at level 0 by convention
        A = anticommuting_pair_algebra(eps_plus())
        entries = cohomology_table(build_lsca_complex(A, natural_bimodule(A), 1))
        for e in entries:
            if e["n"] == 0:
                assert e["dimB"] == 0
            assert e["dimH"] == e["dimZ"] - e["dimB"]

    def test_table_is_sorted_and_json_ready(self):
        A = anticommuting_pair_algebra(eps_plus())
        entries = cohomology_table(build_lsca_complex(A, natural_bimodule(A), 2))
        keys = [(e["n"], tuple(e["degree"])) for e in entries]
        assert keys == sorted(keys)
        for e in entries:
            assert isinstance(e["degree"], list)
            assert all(isinstance(e[k], int)
                       for k in ("n", "dimC", "dimZ", "dimB", "dimH"))


# ---------------------------------------------------------------------------
# the naive oracle

class TestNaiveOracle:
    def assert_tables_match(self, A, V, max_n):
        main = cohomology_table(build_lsca_complex(A, V, max_n))
        orac = naive_oracle_table(A, V, max_n)
        main_rows = [e for e in main if e["n"] <= max_n]
        assert main_rows == orac

    def test_pair_algebra_biadditive_all_levels(self):
        A = anticommuting_pair_algebra(eps_plus())
        self.assert_tables_match(A, natural_bimodule(A), 3)
        self.assert_tables_match(A, trivial_bimodule(A), 3)

    def test_family_members_and_corpus(self, lsa_corpus):
        A = square_to_second_algebra(2)
        self.assert_tables_match(A, natural_bimodule(A), 3)
        for B in lsa_corpus[:4]:
            self.assert_tables_match(B, natural_bimodule(B), 2)

    def test_zeta3_valued_bicharacter(self):
        # eps(a, b) != eps(b, a) here, unlike on the +-1 tables, so an
        # argument-order slip in an eps product shows as a disagreement
        A = quantum_exterior_algebra(2)
        self.assert_tables_match(A, natural_bimodule(A), 3)
        self.assert_tables_match(A, trivial_bimodule(A), 3)

    def test_one_generator_zero_algebra_matches_hand_table(self):
        A = one_generator_algebra()
        V = natural_bimodule(A)
        orac = naive_oracle_table(A, V, 3)
        main = cohomology_table(build_lsca_complex(A, V, 3))
        assert [e for e in main if e["n"] <= 3] == orac
        # one generator of degree zero, zero products: C^0..C^2 are lines
        # and the strict wedge kills every longer word
        expect = {0: 1, 1: 1, 2: 1}
        orac_at = table_index(orac)
        for n, dim in expect.items():
            e = orac_at[(n, (0,))]
            assert e["dimC"] == dim and e["dimH"] == dim
        assert (3, (0,)) not in orac_at

    def test_nonbiadditive_table_agrees_through_level_two(self):
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        with pytest.warns(NonComplexWarning):
            main = cohomology_table(build_lsca_complex(A, V, 3))
        orac = naive_oracle_table(A, V, 3)
        low_main = [e for e in main if e["n"] <= 2]
        low_orac = [e for e in orac if e["n"] <= 2]
        assert low_main == low_orac

    def test_nonbiadditive_table_diverges_at_level_three(self):
        # the two implementations straighten different argument positions,
        # which only coincides while the sign table is multiplicative on
        # the degrees in play; at level 3 the cocycle spaces differ
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        with pytest.warns(NonComplexWarning):
            main = cohomology_table(build_lsca_complex(A, V, 3))
        orac = naive_oracle_table(A, V, 3)
        expected_z = {
            (0, 0, 0): (6, 4),
            (0, 1, 1): (7, 5),
            (1, 0, 1): (5, 3),
            (1, 1, 0): (5, 3),
        }
        main_at, orac_at = table_index(main), table_index(orac)
        for deg, (main_z, orac_z) in expected_z.items():
            me = main_at[(3, deg)]
            oe = orac_at[(3, deg)]
            assert me["dimZ"] == main_z
            assert oe["dimZ"] == orac_z
            assert me["dimC"] == oe["dimC"]
            assert me["dimB"] == oe["dimB"]

    def test_guards(self):
        G = GradingGroup([2])
        space = GradedSpace(G, [(f"e{i}", (0,)) for i in range(5)])
        big = ColorAlgebra(space, trivial_bicharacter(G), {})
        with pytest.raises(CohomologyError):
            naive_oracle_table(big, natural_bimodule(big), 1)
        A = one_generator_algebra()
        with pytest.raises(CohomologyError):
            naive_oracle_table(A, natural_bimodule(A), 4)


# ---------------------------------------------------------------------------
# gates

class TestGates:
    def test_lie_complex_rejects_broken_module_law(self):
        A = anticommuting_pair_algebra()
        L, W = lie_side(A, natural_bimodule(A))
        with pytest.raises(CohomologyError):
            build_lie_complex(L, W, 1)


# ---------------------------------------------------------------------------
# the two checks the theorem's report rests on, against plainer readings

@pytest.fixture(scope="module")
def premise_pairs(lsa_corpus, nonzero_lsa_corpus):
    """(A, V) for natural and trivial V over the Z3^2 and Z3^3 quantum
    exterior algebras, the anticommuting pair, the cyclic products, every
    fixture whose algebra is not a Lie algebra, and both random corpora."""
    algebras = [quantum_exterior_algebra(2), quantum_exterior_algebra(3),
                anticommuting_pair_algebra(), cyclic_products_algebra()]
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            A = parse_spec(path.read_text()).algebra
        except SpecErrorList:
            continue
        if not isinstance(A, LieColorAlgebra):
            algebras.append(A)
    algebras += lsa_corpus + nonzero_lsa_corpus
    return [(A, V) for A in algebras
            for V in (natural_bimodule(A), trivial_bimodule(A))]


class TestPremises:
    def test_module_law_gate_is_delta_squared(self, premise_pairs):
        # W fails the left-module law exactly when delta_1 delta_0 != 0
        failing = 0
        for A, V in premise_pairs:
            L, W = lie_side(A, V, force=True)
            square = lie_coboundary(L, W, 1).compose(lie_coboundary(L, W, 0))
            assert bool(validate_left_module(L, W)) == (not square.is_zero())
            failing += not square.is_zero()
        assert len(premise_pairs) == 128
        assert 0 < failing < len(premise_pairs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_intertwining_is_equal_bases_and_rows(self, premise_pairs, n):
        # phi is the identity on the row-major bases, so the report's
        # intertwining_zero says: C^{k+1}(A,V) and C^k([A],W) have equal
        # degree lists at k = n, n+1, and d_{n+1} and delta_n equal rows
        outcomes = set()
        for A, V in premise_pairs:
            L, W = lie_side(A, V, force=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = verify_main_theorem(A, V, n, force=True)
            same = (all(lsca_cochain_basis(A, V, k + 1).degrees
                        == lie_cochain_basis(L, W, k).degrees
                        for k in (n, n + 1))
                    and lsca_coboundary(A, V, n + 1).rows
                    == lie_coboundary(L, W, n).rows)
            assert report["intertwining_zero"] == same
            outcomes.add(same)
        assert outcomes == {True, False}
