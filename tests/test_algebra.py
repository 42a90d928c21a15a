"""Color algebras: validators, the commutator construction, nilpotency,
and derivation spaces (ker d_1, hand-computed cases)."""

import json
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from colorhom.algebra import (
    AlgebraError,
    ColorAlgebra,
    LieColorAlgebra,
    commutator_algebra,
    left_mult_nilpotent,
    lie_from_brackets,
    validate_left_symmetric,
    validate_lie_color,
)
from colorhom.bimodule import natural_bimodule, trivial_bimodule
from colorhom.cli import SpecErrorList, parse_spec
from colorhom.cohomology import epsilon_derivations
from colorhom.glinalg import GradedSpace, hom_space
from colorhom.grading import GradingGroup, trivial_bicharacter
from colorhom.scalars import CycScalar
from colorhom.variety import DEFAULT_GRID

from helpers import (
    ANTICOMMUTING_PAIR_JSON,
    EPS_PLUS_JSON,
    MINUS_ONE,
    ONE,
    ZERO,
    anticommuting_pair_algebra,
    cross_product_lie,
    cyclic_products_algebra,
    eps_plus,
    klein,
    klein_problem,
    mat_mul,
    mixed_abelian_lie,
    quantum_exterior_algebra,
    random_lsa_corpus,
    random_nonzero_lsa_corpus,
    stored,
    xyz_space,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_specs():
    """The problem files of ``fixtures/`` that parse, by file name."""
    specs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            specs[path.name] = parse_spec(path.read_text())
        except SpecErrorList:
            pass
    return specs


def zero_algebra():
    return ColorAlgebra(xyz_space(), eps_plus(), {})


def dual_numbers():
    """Commutative associative: 1*1 = 1, 1*t = t*1 = t, t*t = 0."""
    G = GradingGroup([1])
    space = GradedSpace(G, [("one", (0,)), ("t", (0,))])
    eps = trivial_bicharacter(G)
    products = {
        (0, 0): [ONE, ZERO],
        (0, 1): [ZERO, ONE],
        (1, 0): [ZERO, ONE],
    }
    return ColorAlgebra(space, eps, products)


class TestLeftSymmetricValidator:
    def test_anticommuting_pair_is_valid(self):
        assert validate_left_symmetric(anticommuting_pair_algebra()) == []
        # the identity survives swapping the bicharacter: every triple
        # product vanishes because z annihilates and is annihilated
        assert validate_left_symmetric(anticommuting_pair_algebra(eps_plus())) == []

    def test_zero_algebra_is_valid(self):
        assert validate_left_symmetric(zero_algebra()) == []

    def test_cyclic_products_fail_at_xzx(self):
        bad = validate_left_symmetric(cyclic_products_algebra())
        assert bad
        triples = {t for t, _ in bad}
        assert ("x", "z", "x") in triples
        residual = dict(bad)[("x", "z", "x")]
        assert residual == {"z": MINUS_ONE}

    def test_matches_bruteforce_oracle(self, lsa_corpus):
        for A in lsa_corpus[:8]:
            assert _bruteforce_left_symmetric(A) == []
        bad_main = validate_left_symmetric(cyclic_products_algebra())
        bad_oracle = _bruteforce_left_symmetric(cyclic_products_algebra())
        assert {t for t, _ in bad_main} == {t for t, _ in bad_oracle}


def _naive_product(A, u, v):
    # independent bilinear product over the stored constants
    out = [ZERO] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            if u[i].is_zero() or v[j].is_zero():
                continue
            vec = stored(A.products, (i, j), A.dim)
            for k in range(A.dim):
                out[k] = out[k] + u[i] * v[j] * vec[k]
    return out


def _bruteforce_left_symmetric(A):
    n = A.dim
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei = [ONE if t == i else ZERO for t in range(n)]
                ej = [ONE if t == j else ZERO for t in range(n)]
                ek = [ONE if t == k else ZERO for t in range(n)]
                def assoc(a, b, c):
                    return [p - q for p, q in zip(
                        _naive_product(A, _naive_product(A, a, b), c),
                        _naive_product(A, a, _naive_product(A, b, c)))]
                e = A.eps(A.space.degrees[i], A.space.degrees[j])
                lhs = assoc(ei, ej, ek)
                rhs = assoc(ej, ei, ek)
                r = [p - e * q for p, q in zip(lhs, rhs)]
                if any(not c.is_zero() for c in r):
                    out.append(((A.space.names[i], A.space.names[j],
                                 A.space.names[k]), None))
    return out


class TestLieColorValidator:
    def test_cross_product_brackets(self):
        assert validate_lie_color(cross_product_lie()) == []

    def test_mixed_abelian_brackets(self):
        assert validate_lie_color(mixed_abelian_lie()) == []

    def test_abelian(self):
        L = LieColorAlgebra(xyz_space(), eps_plus(), {})
        assert validate_lie_color(L) == []

    def test_skew_violation_reported(self):
        space = xyz_space()
        # [x,y] = z with no mirrored bracket breaks skew-symmetry
        L = LieColorAlgebra(space, eps_plus(),
                            {(0, 1): [ZERO, ZERO, ONE]})
        bad = validate_lie_color(L)
        assert any(t[0] == "skew" for t, _ in bad)

    def test_jacobi_violation_reported(self):
        G = GradingGroup([1])
        space = GradedSpace(G, [("h", (0,)), ("e", (0,)), ("f", (0,))])
        eps = trivial_bicharacter(G)
        # sl2-style brackets with [e,f] corrupted to e: Jacobi fails at (h,e,f)
        two = CycScalar.rational(2)
        L = lie_from_brackets(space, eps, {
            (0, 1): [ZERO, two, ZERO],
            (0, 2): [ZERO, ZERO, -two],
            (1, 2): [ZERO, ONE, ZERO],
        })
        bad = validate_lie_color(L)
        assert any(t[0] == "jacobi" for t, _ in bad)
        assert all(t[0] != "skew" for t, _ in bad)


class TestCommutator:
    def test_anticommuting_pair_gives_2z(self):
        A = anticommuting_pair_algebra()  # eps_minus: eps(|x|,|y|) = 1
        L = commutator_algebra(A)
        two = CycScalar.rational(2)
        assert stored(L.products, (0, 1), L.dim) == [ZERO, ZERO, two]
        assert stored(L.products, (1, 0), L.dim) == [ZERO, ZERO, -two]
        assert validate_lie_color(L) == []

    def test_symmetric_products_trivial_eps_give_zero_bracket(self):
        G = GradingGroup([1])
        space = GradedSpace(G, [("a", (0,)), ("b", (0,))])
        products = {(0, 0): [ZERO, ONE], (0, 1): [ONE, ZERO],
                    (1, 0): [ONE, ZERO]}
        A = ColorAlgebra(space, trivial_bicharacter(G), products)
        if validate_left_symmetric(A):
            L = commutator_algebra(A, force=True)
        else:
            L = commutator_algebra(A)
        assert all(all(c.is_zero() for c in stored(L.products, (i, j), L.dim))
                   for i in range(2) for j in range(2))

    def test_refuses_non_left_symmetric(self):
        with pytest.raises(AlgebraError):
            commutator_algebra(cyclic_products_algebra())

    def test_force_reproduces_mixed_abelian(self):
        L = commutator_algebra(cyclic_products_algebra(), force=True)
        expected = mixed_abelian_lie()
        for i in range(3):
            for j in range(3):
                assert stored(L.products, (i, j), L.dim) == \
                    stored(expected.products, (i, j), L.dim)
        assert validate_lie_color(L) == []

    def test_lie_admissibility_over_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus + nonzero_lsa_corpus:
            L = commutator_algebra(A)
            assert validate_lie_color(L) == []


def _dense_left_mult_nilpotent(A):
    # the dense reference: the matrix of y -> e_i y (column j = e_i e_j)
    # raised to the power dim A with mat_mul
    n = A.dim
    for i in range(n):
        M = [[ZERO] * n for _ in range(n)]
        for j in range(n):
            for k, c in enumerate(A.products.get((i, j), [ZERO] * n)):
                M[k][j] = c
        P = M
        for _ in range(n - 1):
            P = mat_mul(P, M)
        if any(not c.is_zero() for row in P for c in row):
            return False
    return True


class TestLeftMultNilpotent:
    def test_anticommuting_pair(self):
        assert left_mult_nilpotent(anticommuting_pair_algebra()) is True

    def test_idempotent_fails(self):
        G = GradingGroup([1])
        space = GradedSpace(G, [("e", (0,))])
        A = ColorAlgebra(space, trivial_bicharacter(G), {(0, 0): [ONE]})
        assert left_mult_nilpotent(A) is False

    def test_zero_algebra(self):
        assert left_mult_nilpotent(zero_algebra()) is True

    def test_cyclic_products(self):
        # xz = 0 here, so l_x sends y -> z -> 0 and every l is 2-step nilpotent
        assert left_mult_nilpotent(cyclic_products_algebra()) is True

    def test_matches_the_dense_power(self):
        algebras = random_lsa_corpus() + random_nonzero_lsa_corpus()
        algebras += [spec.algebra for spec in fixture_specs().values()]
        algebras += [quantum_exterior_algebra(r) for r in (2, 3, 4)]
        outcomes = Counter()
        for A in algebras:
            got = left_mult_nilpotent(A)
            assert got is _dense_left_mult_nilpotent(A)
            outcomes[got] += 1
        # both outcomes occur, each more than once
        assert outcomes[True] > 1 and outcomes[False] > 1


class TestEpsilonDerivations:
    def test_trivial_module_over_cyclic_products(self):
        A = cyclic_products_algebra()
        V = trivial_bimodule(A)
        D = epsilon_derivations(A, V)
        # the condition collapses to f(ab) = 0; A*A = span{y, z}
        assert D.dim == 1
        assert D.degrees[0] == klein().degree([1, 1, 0])

    def test_zero_algebra_gives_all_of_hom(self):
        A = zero_algebra()
        V = trivial_bimodule(A)
        assert epsilon_derivations(A, V).dim == 3

    def test_classical_derivations_of_dual_numbers(self):
        A = dual_numbers()
        V = natural_bimodule(A)
        D = epsilon_derivations(A, V)
        # derivations of k[t]/(t^2): D(1) = 0, D(t) = c t
        assert D.dim == 1
        coords = D.meta[0]
        # the single derivation sends t to a multiple of t and kills 1
        H = hom_space(A.space, V.space)
        assert {H.names[i] for i in coords} == {"[t=>t]"}


class TestJson:
    """The algebra of a problem file, as parse_spec reads it."""

    def test_round_trip(self):
        A = parse_spec(json.dumps(klein_problem(ANTICOMMUTING_PAIR_JSON))).algebra
        assert A.dim == 3
        assert stored(A.products, (0, 1), A.dim)[2] == ONE
        assert validate_left_symmetric(A) == []

    def test_grading_violation_rejected(self):
        obj = {
            "basis": [{"name": "x", "degree": [1, 1, 0]},
                      {"name": "y", "degree": [1, 0, 1]}],
            "products": [
                {"left": "x", "right": "y",
                 "result": [{"basis": "x", "coeff": "1"}]},
            ],
        }
        with pytest.raises(SpecErrorList) as exc:
            parse_spec(json.dumps(klein_problem(obj, EPS_PLUS_JSON)))
        [error] = exc.value.errors
        assert error.path == "$.algebra.products[0]"
        assert error.message.startswith("result 'x' has degree")


class TestSparseRows:
    """``ColorAlgebra.rows`` is ``products`` as sparse rows: the same pairs,
    exactly the nonzero entries, keys ascending, no empty row."""

    @staticmethod
    def assert_rows_match(A):
        assert A.rows.keys() == A.products.keys()
        for key, row in A.rows.items():
            assert row and list(row) == sorted(row), key
            assert row == {k: c for k, c in enumerate(A.products[key])
                           if not c.is_zero()}, key

    def test_every_algebra_the_tests_build(self, lsa_corpus, nonzero_lsa_corpus):
        specs = fixture_specs()
        algebras = [spec.algebra for spec in specs.values()]
        for spec in specs.values():
            for fam in spec.families.values():
                grid = product(DEFAULT_GRID, repeat=len(fam.parameters))
                algebras += [fam.instantiate(dict(zip(fam.parameters, point)))
                             for point in grid]
        algebras += lsa_corpus + nonzero_lsa_corpus
        algebras += [quantum_exterior_algebra(r) for r in (2, 3)]
        algebras += [commutator_algebra(A, force=True) for A in algebras
                     if not isinstance(A, LieColorAlgebra)]
        # all three family fixtures take part, and so does an algebra
        # whose products all vanish
        assert sum(len(spec.families) for spec in specs.values()) == 3
        assert any(not A.rows for A in algebras)
        for A in algebras:
            self.assert_rows_match(A)

    def test_zero_rows_are_dropped_from_both_views(self):
        A = ColorAlgebra(xyz_space(), eps_plus(),
                         {(0, 1): [ZERO, ZERO, ZERO], (1, 0): (ZERO, ZERO, ONE)})
        assert A.products == {(1, 0): [ZERO, ZERO, ONE]}
        assert A.rows == {(1, 0): {2: ONE}}

    @pytest.mark.parametrize("row", [
        {0: ONE, 1: ZERO, 2: ZERO}, [1, 0, 0], [ONE, ZERO, 0], "xyz", None],
        ids=["dict", "ints", "one-int", "str", "none"])
    def test_refuses_a_row_that_is_not_a_list_of_scalars(self, row):
        with pytest.raises(AlgebraError,
                           match=r"^product vector for \(0,1\) is not a list of scalars$"):
            ColorAlgebra(xyz_space(), eps_plus(), {(0, 1): row})

    def test_refuses_a_row_of_the_wrong_length(self):
        with pytest.raises(AlgebraError,
                           match=r"^product vector for \(1,0\) has wrong length$"):
            ColorAlgebra(xyz_space(), eps_plus(), {(1, 0): [ZERO, ONE]})

    def test_refuses_a_product_off_the_grading(self):
        # x*y has degree (0,1,1), the degree of z, not of x
        with pytest.raises(AlgebraError,
                           match=r"^grading violation: x\*y hits x of degree "
                                 r"\(1,1,0\), expected \(0,1,1\)$"):
            ColorAlgebra(xyz_space(), eps_plus(), {(0, 1): [ONE, ZERO, ZERO]})
