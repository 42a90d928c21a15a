"""Bimodule axioms, predicates, and the Hom and cochain constructions."""

import json

import pytest

from colorhom.algebra import commutator_algebra
from colorhom.bimodule import (
    Bimodule,
    BimoduleError,
    LieModule,
    cochain_module_action,
    cochain_space,
    hom_bimodule,
    is_complete,
    is_right_trivial,
    lie_module_from_bimodule,
    natural_bimodule,
    trivial_bimodule,
    validate_bimodule,
    validate_left_module,
)
from colorhom.cli import SpecErrorList, parse_spec
from colorhom.cohomology import lie_coboundary, lie_side_coefficients
from colorhom.glinalg import exterior_basis
from colorhom.scalars import CycScalar

from helpers import (
    ANTICOMMUTING_PAIR_JSON,
    MINUS_ONE,
    ONE,
    ZERO,
    anticommuting_pair_algebra,
    cyclic_products_algebra,
    eps_plus,
    klein_problem,
    mixed_abelian_lie,
    quantum_exterior_algebra,
    stored,
)


class TestValidator:
    def test_natural_of_valid_algebra(self):
        V = natural_bimodule(anticommuting_pair_algebra())
        assert validate_bimodule(V) == []

    def test_trivial_always_valid(self):
        assert validate_bimodule(trivial_bimodule(anticommuting_pair_algebra())) == []
        assert validate_bimodule(trivial_bimodule(cyclic_products_algebra())) == []

    def test_natural_of_invalid_algebra_fails_bm1(self):
        # bm1 for the natural bimodule is literally the left-symmetric identity
        V = natural_bimodule(cyclic_products_algebra())
        bad = validate_bimodule(V)
        assert any(t[0] == "bm1" for t, _ in bad)

    def test_perturbed_constant_reported(self):
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        # graft a spurious right action z . x = y; bm2 mixes left and right
        # actions and catches it
        right = {k: stored(V.right, k, A.dim) for k in V.right}
        right[(2, 0)] = [ZERO, ONE, ZERO]
        W = Bimodule(A, A.space, V.left, right)
        bad = validate_bimodule(W)
        assert (("bm2", "x", "y", "x"), {"y": CycScalar.rational(2)}) in bad

    def test_scaling_one_product_can_survive(self):
        # negative control: x . y = 2z still passes because every composite
        # product of this algebra is zero, so no axiom sees the constant twice
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        left = {k: stored(V.left, k, A.dim) for k in V.left}
        left[(0, 1)] = [ZERO, ZERO, CycScalar.rational(2)]
        W = Bimodule(A, A.space, left, V.right)
        assert validate_bimodule(W) == []

    def test_grading_violation_rejected(self):
        A = anticommuting_pair_algebra()
        with pytest.raises(BimoduleError):
            # x . x = x would sit in the wrong degree
            Bimodule(A, A.space, {(0, 0): [ONE, ZERO, ZERO]}, {})


class TestPredicates:
    def test_trivial_is_right_trivial_and_complete(self):
        V = trivial_bimodule(anticommuting_pair_algebra())
        assert is_right_trivial(V)
        assert is_complete(V)

    def test_natural_anticommuting_is_complete(self):
        V = natural_bimodule(anticommuting_pair_algebra())
        assert not is_right_trivial(V)
        assert is_complete(V)

    def test_natural_cyclic_products_not_complete(self):
        V = natural_bimodule(cyclic_products_algebra())
        assert not is_complete(V)

    def test_right_trivial_implies_complete(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:10] + nonzero_lsa_corpus[:10]:
            H = hom_bimodule(A, natural_bimodule(A))
            assert is_right_trivial(H)
            assert is_complete(H)


class TestHomBimodule:
    def test_right_trivial_and_valid(self):
        # biadditive bicharacter: the hom action satisfies bm1 on the nose
        A = anticommuting_pair_algebra(eps_plus())
        H = hom_bimodule(A, natural_bimodule(A))
        assert H.space.dim == 9
        assert is_right_trivial(H)
        assert validate_bimodule(H) == []

    def test_minus_table_breaks_bm1(self):
        # the minus-table bicharacter is not biadditive (its strict mode
        # rejects it); bm1 for the hom action needs eps(|x|, |w|-|s|) to
        # split multiplicatively, and over this table it does not.  The
        # failure is a property of the data, not of the construction.
        A = anticommuting_pair_algebra()
        H = hom_bimodule(A, natural_bimodule(A))
        assert is_right_trivial(H)
        bad = validate_bimodule(H)
        assert bad and all(t[0] == "bm1" for t, _ in bad)

    def test_trivial_coefficient_shape(self):
        # with V trivial the action reduces to (xf)(z) = -eps(|x|,|f|) f(xz)
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        H = hom_bimodule(A, V)
        space = H.space  # Hom(A, V): one element per algebra basis vector
        # f = dual of z; (x f)(y) = -eps f(xy) = -eps(|x|,|f|) * coeff
        # Hom(A, V) is row-major: [e_s => v_w] sits at s * dim V + w
        f = 2 * V.space.dim + 0
        vec = stored(H.left, (0, f), space.dim)
        target = 1 * V.space.dim + 0
        eps_val = A.eps(A.space.degrees[0], space.degrees[f])
        assert vec[target] == -eps_val
        assert all(c.is_zero() for i, c in enumerate(vec) if i != target)

    def test_zero_algebra_uses_only_v_actions(self):
        from colorhom.algebra import ColorAlgebra
        from helpers import eps_plus, xyz_space
        A = ColorAlgebra(xyz_space(), eps_plus(), {})
        V = natural_bimodule(anticommuting_pair_algebra())
        # the bimodule must be over A, so rebuild V's actions over A's space
        V = Bimodule(A, A.space,
                     {k: stored(V.left, k, A.dim) for k in V.left},
                     {k: stored(V.right, k, A.dim) for k in V.right})
        H = hom_bimodule(A, V)
        # f = dual of x with value x; (x' f)(z) = x' f(z) + eps f(x') z
        assert validate_bimodule(H) == []

    def test_validates_over_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:6] + nonzero_lsa_corpus[:6]:
            H = hom_bimodule(A, natural_bimodule(A))
            assert validate_bimodule(H) == []

    def test_left_module_law_over_bracket(self):
        A = anticommuting_pair_algebra(eps_plus())
        L = commutator_algebra(A)
        H = hom_bimodule(A, natural_bimodule(A))
        W = lie_module_from_bimodule(L, H)
        assert validate_left_module(W) == []

    def test_module_law_fails_on_minus_table(self):
        # same construction over the non-biadditive minus table: the law
        # [x,y]f = x(yf) - eps(|x|,|y|) y(xf) picks up a 2 E_{y->z} defect,
        # driven by eps(b, |E_{z->x}|) evaluating at the reduced difference
        # degree instead of splitting over target and source
        A = anticommuting_pair_algebra()
        L = commutator_algebra(A)
        H = hom_bimodule(A, natural_bimodule(A))
        W = lie_module_from_bimodule(L, H)
        bad = validate_left_module(W)
        assert (("module", "x", "y", "[z=>x]"),
                {"[y=>z]": CycScalar.rational(2)}) in bad

    def test_module_law_fails_for_forced_bracket(self):
        # the cyclic-products algebra is not left-symmetric; its forced
        # bracket does not act on Hom(A, trivial) as a Lie module
        A = cyclic_products_algebra()
        L = commutator_algebra(A, force=True)
        H = hom_bimodule(A, trivial_bimodule(A))
        W = lie_module_from_bimodule(L, H)
        assert validate_left_module(W) != []


class TestCochainAction:
    def test_n0_matches_hom_bimodule(self):
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        H = hom_bimodule(A, V)
        C = cochain_module_action(A, V, 0)
        # align the two bases: Hom(A,V) vs Hom((wedge^0 A)(x)A, V); both
        # are row-major and wedge^0 A has the one word (), so [e_s => v_w]
        # sits at s * m + w in Hom(A,V) and at (0 * n + s) * m + w in C^1
        n, m = A.dim, V.space.dim
        for s in range(n):
            for w in range(m):
                h = s * m + w
                c = (0 * n + s) * m + w
                for a in range(n):
                    hv = stored(H.left, (a, h), H.space.dim)
                    cv = stored(C.left, (a, c), C.space.dim)
                    for s2 in range(n):
                        for w2 in range(m):
                            assert hv[s2 * m + w2] == cv[(0 * n + s2) * m + w2]

    def test_bm1_on_27_dim_cochains(self):
        A = anticommuting_pair_algebra(eps_plus())
        V = natural_bimodule(A)
        C = cochain_module_action(A, V, 1)
        assert C.space.dim == 27
        assert is_right_trivial(C)
        assert validate_bimodule(C) == []

    def test_27_dim_cochains_minus_table(self):
        # dims and right-triviality are combinatorial and survive the
        # non-biadditive table; bm1 does not (same defect as the hom action)
        A = anticommuting_pair_algebra()
        C = cochain_module_action(A, natural_bimodule(A), 1)
        assert C.space.dim == 27
        assert is_right_trivial(C)
        assert validate_bimodule(C) != []

    def test_trivial_v_surviving_terms(self):
        # with V trivial only the f(.., x x_last) and bracket-insertion terms
        # can survive; exercise each on the anticommuting-pair algebra
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        C = cochain_module_action(A, V, 1)
        wedge = exterior_basis(A.space, 1, A.eps)
        assert wedge.meta == [(0,), (1,), (2,)]

        def cochain(word, last):
            # C^2 = Hom(wedge^1 A (x) A, V) with dim A = 3, dim V = 1
            return (word * 3 + last) * 1 + 0

        # product term: f(x, z) = u, acting by x; x*y = z feeds the last slot,
        # so (x f)(x, y) = -eps(|x|,|f|) eps(|x|,|x|) f(x, xy) = +u
        f = cochain(0, 2)
        vec = stored(C.left, (0, f), C.space.dim)
        slot = cochain(0, 1)
        assert vec[slot] == ONE
        assert all(v.is_zero() for i, v in enumerate(vec) if i != slot)

        # bracket term: f(z, x) = u, acting by x; [x,y] = 2z replaces the
        # wedge letter y, so (x f)(y, x) = -eps(|x|,|f|) * 2 = -2
        f = cochain(2, 0)
        vec = stored(C.left, (0, f), C.space.dim)
        slot = cochain(1, 0)
        assert vec[slot] == CycScalar.rational(-2)
        assert all(v.is_zero() for i, v in enumerate(vec) if i != slot)

        # and a vanishing case: f(x, y) = u is annihilated by every action
        f = cochain(0, 1)
        for a in range(3):
            assert all(v.is_zero() for v in stored(C.left, (a, f), C.space.dim))

    def test_cochain_space_dims(self):
        A = anticommuting_pair_algebra()  # eps_minus: letters repeat
        V = natural_bimodule(A)
        assert cochain_space(A, V, 1).dim == 9
        assert cochain_space(A, V, 2).dim == 27
        assert cochain_space(A, V, 3).dim == 54  # wedge^2 is 6-dim
        with pytest.raises(ValueError):
            cochain_space(A, V, 0)


def module_of(decl):
    """The bimodule parse_spec resolves for the anticommuting pair with the
    module key ``decl``."""
    obj = klein_problem(ANTICOMMUTING_PAIR_JSON, module=decl)
    return parse_spec(json.dumps(obj)).module


class TestJson:
    """The module of a problem file, as parse_spec reads it."""

    def test_builtins(self):
        for decl in ("natural", None):
            V = module_of(decl)
            assert V.space is V.algebra.space
        assert module_of("trivial").space.dim == 1

    def test_explicit_module(self):
        obj = {
            "basis": [{"name": "u", "degree": [0, 0, 0]}],
            "left": [],
            "right": [],
        }
        V = module_of(obj)
        assert V.space.dim == 1
        assert validate_bimodule(V) == []

    def test_bad_module_rejected(self):
        with pytest.raises(SpecErrorList) as exc:
            module_of({"left": []})
        assert [(e.path, e.message) for e in exc.value.errors] == [
            ("$.module.basis", "must be a non-empty list")]


# ---------------------------------------------------------------------------
# the sparse action store

def _as_dicts(table, dim, pad):
    """The rows of a table as dicts, padded with explicit zeros at the
    indices in ``pad`` and inserted in descending index order."""
    out = {}
    for key in table:
        vec = stored(table, key, dim)
        keep = {t for t, c in enumerate(vec) if not c.is_zero()} | set(pad)
        out[key] = {t: vec[t] for t in sorted(keep, reverse=True)}
    return out


def _dense_rows(table, dim):
    return {key: stored(table, key, dim) for key in table}


def _assert_clean(table, dim):
    for key, row in table.items():
        assert isinstance(row, dict) and row, key
        assert list(row) == sorted(row), key
        assert all(type(t) is int and 0 <= t < dim for t in row), key
        assert not any(c.is_zero() for c in row.values()), key


def _error(build):
    with pytest.raises(BimoduleError) as info:
        build()
    return str(info.value)


class TestSparseStore:
    @pytest.fixture(scope="class")
    def bimodules(self):
        A = quantum_exterior_algebra(2)
        V = natural_bimodule(A)
        return [natural_bimodule(anticommuting_pair_algebra()),
                natural_bimodule(cyclic_products_algebra()),
                V, hom_bimodule(A, V), cochain_module_action(A, V, 1)]

    def test_dense_and_dict_input_give_one_store(self, bimodules):
        for V in bimodules:
            m = V.space.dim
            dense = Bimodule(V.algebra, V.space, _dense_rows(V.left, m),
                             _dense_rows(V.right, m))
            sparse = Bimodule(V.algebra, V.space, _as_dicts(V.left, m, (0,)),
                              _as_dicts(V.right, m, (m - 1,)))
            assert dense.left == sparse.left == V.left
            assert dense.right == sparse.right == V.right
            assert [list(r) for r in dense.left.values()] == \
                [list(r) for r in sparse.left.values()]

    def test_lie_module_dense_and_dict_input_give_one_store(self, bimodules):
        for V in bimodules[2:]:
            L, W = lie_side_coefficients(V.algebra, V, force=True)
            m = W.space.dim
            dense = LieModule(L, W.space, _dense_rows(W.left, m))
            sparse = LieModule(L, W.space, _as_dicts(W.left, m, range(m)))
            assert dense.left == sparse.left == W.left
            _assert_clean(W.left, m)

    def test_stored_rows_are_clean(self, bimodules):
        for V in bimodules:
            _assert_clean(V.left, V.space.dim)
            _assert_clean(V.right, V.space.dim)

    def test_zero_rows_and_zero_entries_are_dropped(self):
        A = anticommuting_pair_algebra()
        # x . y = z is allowed; x . x would be a grading violation, but a
        # zero there is no entry at all
        for left in ({(0, 1): [ZERO, ZERO, ONE], (1, 1): [ZERO] * 3},
                     {(0, 1): {2: ONE, 0: ZERO}, (1, 1): {1: ZERO}}):
            V = Bimodule(A, A.space, left, {(2, 2): {}})
            assert V.left == {(0, 1): {2: ONE}}
            assert V.right == {}

    def test_wrong_length_text_is_the_same_for_both_forms(self):
        A = anticommuting_pair_algebra()
        L = commutator_algebra(A)
        texts = {
            _error(lambda: Bimodule(A, A.space, {(0, 1): [ZERO, ONE]}, {})),
            _error(lambda: Bimodule(A, A.space, {(0, 1): {3: ONE}}, {})),
            _error(lambda: Bimodule(A, A.space, {(0, 1): {-1: ZERO}}, {})),
            _error(lambda: LieModule(L, A.space, {(0, 1): [ZERO] * 4})),
            _error(lambda: LieModule(L, A.space, {(0, 1): {2: ONE, 7: ZERO}})),
        }
        assert texts == {"left action vector at (0, 1) has wrong length"}
        assert _error(lambda: Bimodule(A, A.space, {}, {(1, 0): [ONE]})) == \
            _error(lambda: Bimodule(A, A.space, {}, {(1, 0): {True: ONE}})) == \
            "right action vector at (1, 0) has wrong length"

    def test_grading_violation_text_is_the_same_for_both_forms(self):
        A = anticommuting_pair_algebra()
        L = commutator_algebra(A)
        two = CycScalar.rational(2)
        # x . x lands in degree 0, so every component violates; the first
        # in ascending t is reported, whatever the insertion order
        for build in (Bimodule, lambda a, sp, left, right: LieModule(L, sp, left)):
            texts = {
                _error(lambda: build(A, A.space, {(0, 0): [ZERO, ONE, two]}, {})),
                _error(lambda: build(A, A.space, {(0, 0): {2: two, 1: ONE}}, {})),
                _error(lambda: build(A, A.space, {(0, 0): {1: ONE, 2: two}}, {})),
            }
            assert texts == {"grading violation in left action at (0, 0): "
                             "component y has degree (1,0,1), expected (0,0,0)"}
        assert _error(lambda: Bimodule(A, A.space, {}, {(0, 0): [ONE, ZERO, ZERO]})) == \
            _error(lambda: Bimodule(A, A.space, {}, {(0, 0): {0: ONE}}))

    def test_module_rows_are_read_without_a_zero_scan(self, monkeypatch):
        # the left-module check and delta_1 over C^1(A,V) read only the
        # nonzeros of the stored rows: on a dense store of length dim C^1
        # the zero tests outnumber the products about nine to one
        A = quantum_exterior_algebra(2)
        L, W = lie_side_coefficients(A, natural_bimodule(A))
        calls = dict.fromkeys(("is_zero", "__mul__"), 0)

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(CycScalar, name,
                                counted(name, getattr(CycScalar, name)))
        bad = validate_left_module(W)
        delta = lie_coboundary(L, W, 1)
        monkeypatch.undo()
        assert bad == [] and not delta.is_zero()
        assert 0 < calls["is_zero"] <= calls["__mul__"], calls
