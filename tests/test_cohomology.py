"""Cochain complexes: coboundary formulas, d o d = 0, the hom-adjunction
and intertwining identities, the dimension theorem, and the naive oracle.

Theorem-content assertions (complex identity, adjunction, intertwining,
dimension equality) run over biadditive bicharacters, where they are
provable; the non-biadditive sign table gets companion tests pinning the
exact computed failure pattern instead.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom.algebra import (
    ColorAlgebra,
    LieColorAlgebra,
    commutator_algebra,
    epsilon_derivations,
    left_mult_nilpotent,
    validate_left_symmetric,
)
from colorhom.bimodule import Bimodule, natural_bimodule, trivial_bimodule
from colorhom.cohomology import (
    CohomologyError,
    NonComplexWarning,
    build_lie_complex,
    build_lsca_complex,
    cohomology_table,
    invariant_subspace,
    lsca_cochain_basis,
    lsca_coboundary,
    naive_oracle_table,
    phi_matrix,
    verify_main_theorem,
)
from colorhom.glinalg import GradedSpace
from colorhom.grading import GradingGroup, trivial_bicharacter
from colorhom.scalars import CycScalar

from helpers import (
    MINUS_ONE,
    ONE,
    ZERO,
    anticommuting_pair_algebra,
    cyclic_products_algebra,
    eps_plus,
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


def unit_column(space, idx):
    return [ONE if i == idx else ZERO for i in range(space.dim)]


def map_column(gmap, src, idx):
    """Dense image of the idx-th basis vector."""
    return gmap.apply(unit_column(src, idx))


def is_zero_map(gmap):
    return all(all(c.is_zero() for row in gmap.block(d) for c in row)
               for d in gmap.dst.degrees_present())


def composition_is_zero(cx, k) -> bool:
    h = cx.diffs[k + 1].compose(cx.diffs[k])
    return is_zero_map(h)


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

    def test_level_zero_trivial_module_is_all_of_v(self):
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        assert lsca_cochain_basis(A, V, 0).dim == 1

    def test_level_zero_natural_here_is_all_of_v(self):
        # (xy)v = x(yv) holds for every v: both sides land on multiples of
        # z, and z multiplies everything to zero
        A = anticommuting_pair_algebra()
        assert invariant_subspace(A, natural_bimodule(A)).dim == 3


# ---------------------------------------------------------------------------
# coboundary formulas, checked against independent transcriptions

class TestCoboundaryFormulas:
    def test_d0_on_trivial_module_is_zero(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = trivial_bimodule(A)
        assert is_zero_map(lsca_coboundary(A, V, 0))

    def test_d0_natural_is_commutator_with_the_argument(self):
        # d_0(v)(x) = vx - eps(|v|,|x|) xv
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        c0 = lsca_cochain_basis(A, V, 0)
        c1 = lsca_cochain_basis(A, V, 1)
        d0 = lsca_coboundary(A, V, 0, src=c0, dst=c1)
        eps, space = A.eps, A.space
        for col in range(c0.dim):
            coords = list(c0.meta[col][1])
            got = d0.apply(unit_column(c0, col))
            for row in range(c1.dim):
                # C^1 = Hom((wedge^0 A)(x)A, V) is row-major: (x => w) sits
                # at x * dim V + w
                xi, wi = divmod(row, V.space.dim)
                expect = ZERO
                for vi, cv in enumerate(coords):
                    if cv.is_zero():
                        continue
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
            got = d1.apply(unit_column(c1, col))
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
            got = d2.apply(unit_column(c2, col))
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
        col = c1.names.index("[1@z=>u]")
        got = d1.apply(unit_column(c1, col))
        for row in range(c2.dim):
            expect = MINUS_ONE if c2.names[row] == "[x@y=>u]" else ZERO
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
    [w1^...^wk@w=>v]; the unit prefix "1" of level-1 words is dropped."""
    name = space.names[idx]
    word, _, target = name[1:-1].partition("=>")
    prefix, _, last = word.rpartition("@")
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
                out = d.apply(unit_column(src, col))
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

class TestAdjunctionAndIntertwining:
    def _dims(self, space):
        return {tuple(d.components): space.dim_at(d)
                for d in space.degrees_present()}

    def test_adjunction_dims_on_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        from colorhom.cohomology import lie_cochain_basis
        for A in lsa_corpus[:8] + nonzero_lsa_corpus[:8]:
            V = natural_bimodule(A)
            L, W = lie_side(A, V)
            for n in range(4):
                lhs = lsca_cochain_basis(A, V, n + 1)
                rhs = lie_cochain_basis(L, W, n)
                assert self._dims(lhs) == self._dims(rhs), n

    def test_adjunction_dims_survive_the_nonbiadditive_table(self):
        # pure combinatorics: word counts never consult bicharacter values
        from colorhom.cohomology import lie_cochain_basis
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
        for d in ph.dst.degrees_present():
            blk = ph.block(d)
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
            blk = ph.block(d)
            for i, row in enumerate(blk):
                for j, c in enumerate(row):
                    assert c == (ONE if i == j else ZERO)

    def _intertwining_zero(self, A, V, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonComplexWarning)
            lsca = build_lsca_complex(A, V, n + 1)
        L, W = lie_side(A, V)
        cx = build_lie_complex(L, W, n, check=False)
        ph_n = phi_matrix(A, V, n, src=lsca.bases[n + 1], dst=cx.bases[n])
        ph_n1 = phi_matrix(A, V, n + 1, src=lsca.bases[n + 2],
                           dst=cx.bases[n + 1])
        lhs = cx.diffs[n].compose(ph_n)
        rhs = ph_n1.compose(lsca.diffs[n + 1])
        degs = set(lhs.dst.degrees_present()) | set(rhs.dst.degrees_present())
        return all(lhs.block(d) == rhs.block(d) for d in degs)

    def test_intertwining_on_biadditive_fixtures(self):
        for A in (anticommuting_pair_algebra(eps_plus()),
                  square_to_second_algebra(2),
                  mutual_squares_algebra(3, 0)):
            for V in (natural_bimodule(A), trivial_bimodule(A)):
                for n in range(3):
                    assert self._intertwining_zero(A, V, n), n

    def test_intertwining_on_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:8] + nonzero_lsa_corpus[:8]:
            V = natural_bimodule(A)
            for n in range(3):
                assert self._intertwining_zero(A, V, n), n

    def test_nonbiadditive_table_breaks_intertwining_above_level_zero(self):
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        assert self._intertwining_zero(A, V, 0)
        assert not self._intertwining_zero(A, V, 1)
        assert not self._intertwining_zero(A, V, 2)


# ---------------------------------------------------------------------------
# the dimension theorem

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
    def test_one_call_builds_only_the_six_maps_it_compares(self, monkeypatch, n):
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
        A = anticommuting_pair_algebra(eps_plus())
        verify_main_theorem(A, natural_bimodule(A), n)
        assert calls == {
            "validate_left_symmetric": 1, "validate_left_module": 1,
            "lsca_coboundary": 2, "lie_coboundary": 2, "phi_matrix": 2,
            "cohomology_table": 0, "invariant_subspace": 0,
            "build_lsca_complex": 0, "build_lie_complex": 0,
            # [A] for the Lie side, plus one per coboundary with n >= 2
            "commutator_algebra": n + 1,
        }

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

    def test_cocycles_at_level_one_are_the_derivations(self, lsa_corpus):
        for A in [anticommuting_pair_algebra(eps_plus())] + lsa_corpus[:5]:
            V = natural_bimodule(A)
            entries = cohomology_table(build_lsca_complex(A, V, 1))
            z1 = {tuple(e["degree"]): e["dimZ"] for e in entries if e["n"] == 1}
            der = epsilon_derivations(A, V)
            by_deg = {}
            for d in der.degrees:
                key = tuple(d.components)
                by_deg[key] = by_deg.get(key, 0) + 1
            for key, dim in by_deg.items():
                assert z1.get(key, 0) == dim
            for key, dim in z1.items():
                assert by_deg.get(key, 0) == dim

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
            assert is_zero_map(diff)
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

    def test_check_flag_can_be_disabled_for_measurement(self):
        A = anticommuting_pair_algebra()
        L, W = lie_side(A, natural_bimodule(A))
        cx = build_lie_complex(L, W, 1, check=False)
        assert len(cx.diffs) == 2
