"""Bimodule axioms, right-triviality, the Hom module and the cochain spaces."""

import json

import pytest

from colorhom.algebra import commutator_algebra
from colorhom.bimodule import (
    Bimodule,
    BimoduleError,
    cochain_module_action,
    cochain_space,
    natural_bimodule,
    trivial_bimodule,
    validate_bimodule,
    validate_left_module,
)
from colorhom.cli import SpecErrorList, parse_spec
from colorhom.cohomology import lie_coboundary
from colorhom.scalars import CycScalar

from helpers import (
    ANTICOMMUTING_PAIR_JSON,
    ONE,
    ZERO,
    anticommuting_pair_algebra,
    cyclic_products_algebra,
    eps_plus,
    klein_problem,
    lie_side,
    quantum_exterior_algebra,
    stored,
)


class TestValidator:
    def test_natural_of_valid_algebra(self):
        A = anticommuting_pair_algebra()
        assert validate_bimodule(A, natural_bimodule(A)) == []

    def test_trivial_always_valid(self):
        for A in (anticommuting_pair_algebra(), cyclic_products_algebra()):
            assert validate_bimodule(A, trivial_bimodule(A)) == []

    def test_natural_of_invalid_algebra_fails_bm1(self):
        # bm1 for the natural bimodule is literally the left-symmetric identity
        A = cyclic_products_algebra()
        bad = validate_bimodule(A, natural_bimodule(A))
        assert any(t[0] == "bm1" for t, _ in bad)

    def test_perturbed_constant_reported(self):
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        # graft a spurious right action z . x = y; bm2 mixes left and right
        # actions and catches it
        right = dict(V.right)
        right[(2, 0)] = {1: ONE}
        W = Bimodule(A, A.space, V.left, right)
        bad = validate_bimodule(A, W)
        assert (("bm2", "x", "y", "x"), {"y": CycScalar.rational(2)}) in bad

    def test_scaling_one_product_can_survive(self):
        # negative control: x . y = 2z still passes because every composite
        # product of this algebra is zero, so no axiom sees the constant twice
        A = anticommuting_pair_algebra()
        V = natural_bimodule(A)
        left = dict(V.left)
        left[(0, 1)] = {2: CycScalar.rational(2)}
        W = Bimodule(A, A.space, left, V.right)
        assert validate_bimodule(A, W) == []

    def test_grading_violation_rejected(self):
        A = anticommuting_pair_algebra()
        with pytest.raises(BimoduleError):
            # x . x = x would sit in the wrong degree
            Bimodule(A, A.space, {(0, 0): {0: ONE}}, {})


class TestPredicates:
    def test_trivial_is_right_trivial(self):
        V = trivial_bimodule(anticommuting_pair_algebra())
        assert not V.right

    def test_natural_anticommuting_acts_on_the_right(self):
        V = natural_bimodule(anticommuting_pair_algebra())
        assert V.right

    def test_hom_is_right_trivial(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:10] + nonzero_lsa_corpus[:10]:
            H = cochain_module_action(A, natural_bimodule(A))
            assert not H.right


class TestHomBimodule:
    """Hom(A,V) = C^1(A,V) with its right-trivial action."""

    def test_right_trivial_and_valid(self):
        # biadditive bicharacter: the hom action satisfies bm1 on the nose
        A = anticommuting_pair_algebra(eps_plus())
        H = cochain_module_action(A, natural_bimodule(A))
        assert H.space.dim == 9
        assert not H.right
        assert validate_bimodule(A, H) == []

    def test_minus_table_breaks_bm1(self):
        # the minus-table bicharacter is not biadditive (its strict mode
        # rejects it); bm1 for the hom action needs eps(|x|, |w|-|s|) to
        # split multiplicatively, and over this table it does not.  The
        # failure is a property of the data, not of the construction.
        A = anticommuting_pair_algebra()
        H = cochain_module_action(A, natural_bimodule(A))
        assert not H.right
        bad = validate_bimodule(A, H)
        assert bad and all(t[0] == "bm1" for t, _ in bad)

    def test_trivial_coefficient_shape(self):
        # with V trivial the action reduces to (xf)(z) = -eps(|x|,|f|) f(xz)
        A = anticommuting_pair_algebra()
        V = trivial_bimodule(A)
        H = cochain_module_action(A, V)
        space = H.space  # Hom(A, V): one element per algebra basis vector
        # f = dual of z; (x f)(y) = -eps f(xy) = -eps(|x|,|f|) * coeff
        # C^1 = Hom((wedge^0 A)(x)A, V) is row-major and wedge^0 A has the
        # one empty word, so [e_s => v_w] sits at s * dim V + w
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
        V = Bimodule(A, A.space, V.left, V.right)
        H = cochain_module_action(A, V)
        # f = dual of x with value x; (x' f)(z) = x' f(z) + eps f(x') z
        assert validate_bimodule(A, H) == []

    def test_validates_over_corpus(self, lsa_corpus, nonzero_lsa_corpus):
        for A in lsa_corpus[:6] + nonzero_lsa_corpus[:6]:
            H = cochain_module_action(A, natural_bimodule(A))
            assert validate_bimodule(A, H) == []

    def test_left_module_law_over_bracket(self):
        A = anticommuting_pair_algebra(eps_plus())
        L, W = lie_side(A, natural_bimodule(A))
        assert validate_left_module(L, W) == []

    def test_module_law_fails_on_minus_table(self):
        # same construction over the non-biadditive minus table: the law
        # [x,y]f = x(yf) - eps(|x|,|y|) y(xf) picks up a 2 E_{y->z} defect,
        # driven by eps(b, |E_{z->x}|) evaluating at the reduced difference
        # degree instead of splitting over target and source
        A = anticommuting_pair_algebra()
        L, W = lie_side(A, natural_bimodule(A))
        bad = validate_left_module(L, W)
        assert (("module", "x", "y", "[1@z=>x]"),
                {"[1@y=>z]": CycScalar.rational(2)}) in bad

    def test_module_law_fails_for_forced_bracket(self):
        # the cyclic-products algebra is not left-symmetric; its forced
        # bracket does not act on Hom(A, trivial) as a Lie module
        A = cyclic_products_algebra()
        L, W = lie_side(A, trivial_bimodule(A), force=True)
        assert validate_left_module(L, W) != []


class TestCochainSpace:
    def test_cochain_space_dims(self):
        A = anticommuting_pair_algebra()  # eps_minus: letters repeat
        V = natural_bimodule(A)
        assert cochain_space(A, V, 1).dim == 9
        assert cochain_space(A, V, 2).dim == 27
        assert cochain_space(A, V, 3).dim == 54  # wedge^2 is 6-dim
        with pytest.raises(ValueError):
            cochain_space(A, V, 0)


def module_of(decl):
    """The algebra and the bimodule parse_spec resolves for the
    anticommuting pair with the module key ``decl``."""
    obj = klein_problem(ANTICOMMUTING_PAIR_JSON, module=decl)
    spec = parse_spec(json.dumps(obj))
    return spec.algebra, spec.module


class TestJson:
    """The module of a problem file, as parse_spec reads it."""

    def test_builtins(self):
        for decl in ("natural", None):
            A, V = module_of(decl)
            assert V.space is A.space
        assert module_of("trivial")[1].space.dim == 1

    def test_explicit_module(self):
        obj = {
            "basis": [{"name": "u", "degree": [0, 0, 0]}],
            "left": [],
            "right": [],
        }
        A, V = module_of(obj)
        assert V.space.dim == 1
        assert validate_bimodule(A, V) == []

    def test_bad_module_rejected(self):
        with pytest.raises(SpecErrorList) as exc:
            module_of({"left": []})
        assert [(e.path, e.message) for e in exc.value.errors] == [
            ("$.module.basis", "must be a non-empty list")]


# ---------------------------------------------------------------------------
# the sparse action store

def _padded(table, pad):
    """The rows of a table with explicit zeros added at the indices in
    ``pad``, each inserted in descending index order."""
    return {key: {t: row.get(t, ZERO) for t in sorted(set(row) | set(pad),
                                                        reverse=True)}
            for key, row in table.items()}


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
        """(algebra, module) pairs."""
        pair, cyclic = anticommuting_pair_algebra(), cyclic_products_algebra()
        A = quantum_exterior_algebra(2)
        V = natural_bimodule(A)
        return [(pair, natural_bimodule(pair)), (cyclic, natural_bimodule(cyclic)),
                (A, V), (A, cochain_module_action(A, V))]

    def test_padded_rows_give_the_same_store(self, bimodules):
        for A, V in bimodules:
            m = V.space.dim
            again = Bimodule(A, V.space, _padded(V.left, (0,)),
                             _padded(V.right, (m - 1,)))
            assert again.left == V.left
            assert again.right == V.right
            assert [list(r) for r in again.left.values()] == \
                [list(r) for r in V.left.values()]

    def test_lie_module_padded_rows_give_the_same_store(self, bimodules):
        for A, V in bimodules[2:]:
            L, W = lie_side(A, V, force=True)
            m = W.space.dim
            again = Bimodule(L, W.space, _padded(W.left, range(m)), {})
            assert again.left == W.left
            assert [list(r) for r in again.left.values()] == \
                [list(r) for r in W.left.values()]
            _assert_clean(W.left, m)

    def test_stored_rows_are_clean(self, bimodules):
        for _, V in bimodules:
            _assert_clean(V.left, V.space.dim)
            _assert_clean(V.right, V.space.dim)

    def test_zero_rows_and_zero_entries_are_dropped(self):
        A = anticommuting_pair_algebra()
        # x . y = z is allowed; x . x would be a grading violation, but a
        # zero there is no entry at all
        left = {(0, 1): {2: ONE, 0: ZERO}, (1, 1): {1: ZERO}}
        V = Bimodule(A, A.space, left, {(2, 2): {}})
        assert V.left == {(0, 1): {2: ONE}}
        assert V.right == {}

    def test_wrong_length_text(self):
        # a key outside the basis and a row that is not a dict (such as a
        # dense list) are refused with one text
        A = anticommuting_pair_algebra()
        L = commutator_algebra(A)
        texts = {
            _error(lambda: Bimodule(A, A.space, {(0, 1): [ZERO, ZERO, ONE]}, {})),
            _error(lambda: Bimodule(A, A.space, {(0, 1): {3: ONE}}, {})),
            _error(lambda: Bimodule(A, A.space, {(0, 1): {-1: ZERO}}, {})),
            _error(lambda: Bimodule(L, A.space, {(0, 1): [ZERO, ZERO, ONE]}, {})),
            _error(lambda: Bimodule(L, A.space, {(0, 1): {2: ONE, 7: ZERO}}, {})),
        }
        assert texts == {"left action vector at (0, 1) has wrong length"}
        assert _error(lambda: Bimodule(A, A.space, {}, {(1, 0): [ONE]})) == \
            _error(lambda: Bimodule(A, A.space, {}, {(1, 0): {True: ONE}})) == \
            "right action vector at (1, 0) has wrong length"

    def test_grading_violation_text(self):
        A = anticommuting_pair_algebra()
        L = commutator_algebra(A)
        two = CycScalar.rational(2)
        # x . x lands in degree 0, so every component violates; the first
        # in ascending t is reported, whatever the insertion order
        for acting in (A, L):
            texts = {
                _error(lambda: Bimodule(acting, A.space, {(0, 0): {2: two, 1: ONE}}, {})),
                _error(lambda: Bimodule(acting, A.space, {(0, 0): {1: ONE, 2: two}}, {})),
            }
            assert texts == {"grading violation in left action at (0, 0): "
                             "component y has degree (1,0,1), expected (0,0,0)"}
        assert _error(lambda: Bimodule(A, A.space, {}, {(0, 0): {0: ONE}})) == \
            "grading violation in right action at (0, 0): " \
            "component x has degree (1,1,0), expected (0,0,0)"

    def test_module_rows_are_read_without_a_zero_scan(self, monkeypatch):
        # the left-module check and delta_1 over C^1(A,V) read only the
        # nonzeros of the stored rows: on a dense store of length dim C^1
        # the zero tests outnumber the products about nine to one
        A = quantum_exterior_algebra(2)
        L, W = lie_side(A, natural_bimodule(A))
        calls = dict.fromkeys(("is_zero", "__mul__"), 0)

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(CycScalar, name,
                                counted(name, getattr(CycScalar, name)))
        bad = validate_left_module(L, W)
        delta = lie_coboundary(L, W, 1)
        monkeypatch.undo()
        assert bad == [] and not delta.is_zero()
        assert 0 < calls["is_zero"] <= calls["__mul__"], calls
