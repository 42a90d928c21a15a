"""The sparse identity checks against plain dense references of the same
laws (``tests/helpers.py``): violation lists key for key and in order, and
residual values with ``==``, on valid inputs and on inputs with one stored
entry perturbed by 1, -2, zeta_3 or zeta_4."""

import pytest

from colorhom.algebra import (
    ColorAlgebra,
    LieColorAlgebra,
    commutator_algebra,
    validate_left_symmetric,
    validate_lie_color,
)
from colorhom.bimodule import (
    Bimodule,
    cochain_module_action,
    natural_bimodule,
    trivial_bimodule,
    validate_bimodule,
    validate_left_module,
)
from colorhom.cohomology import invariant_subspace, lsca_coboundary
from colorhom.scalars import CycScalar, root_of_unity

from helpers import (
    anticommuting_pair_algebra,
    cyclic_products_algebra,
    dense_bimodule,
    dense_d0,
    dense_invariants,
    dense_left_module,
    dense_left_symmetric,
    dense_lie_color,
    lie_side,
    perturbed,
    quantum_exterior_algebra,
)

DELTAS = {"1": CycScalar.rational(1), "-2": CycScalar.rational(-2),
          "zeta3": root_of_unity(3, 1), "zeta4": root_of_unity(4, 1)}
MODULES = {
    "natural": natural_bimodule,
    "trivial": trivial_bimodule,
    "hom": lambda A: cochain_module_action(A, natural_bimodule(A)),
}


@pytest.fixture(scope="module")
def algebras(nonzero_lsa_corpus):
    """The nonzero corpus, the quantum exterior algebra over Z3^2 and a copy
    with each product scaled by a cube root of unity (no longer
    left-symmetric), and two worked examples, one failing the identity."""
    qext = quantum_exterior_algebra(2)
    scaled = {key: [c * root_of_unity(3, key[0] + 2 * key[1]) for c in vec]
              for key, vec in qext.products.items()}
    return (list(nonzero_lsa_corpus)
            + [qext, ColorAlgebra(qext.space, qext.eps, scaled),
               anticommuting_pair_algebra(), cyclic_products_algebra()])


def assert_same(ours, ref):
    """Same violation keys in the same order, same residual keys in the same
    order, equal residual values; returns the number of violations."""
    assert [key for key, _ in ours] == [key for key, _ in ref]
    for (key, got), (_, want) in zip(ours, ref):
        assert list(got) == list(want), key
        assert all(got[name] == want[name] for name in got), key
    return len(ours)


def check_algebra(A):
    found = assert_same(validate_left_symmetric(A), dense_left_symmetric(A))
    L = commutator_algebra(A, force=True)
    return found + assert_same(validate_lie_color(L), dense_lie_color(L))


def check_bimodule(A, V):
    found = assert_same(validate_bimodule(A, V), dense_bimodule(A, V))
    C0 = invariant_subspace(A, V)
    ref = dense_invariants(A, V)
    assert [(d, list(meta[1])) for d, meta in zip(C0.degrees, C0.meta)] == ref
    d0 = lsca_coboundary(A, V, 0)
    # C^1 = Hom((wedge^0 A)(x)A, V) is row-major: (x => v_t) sits at x * m + t
    m = V.space.dim
    for k, want in enumerate(dense_d0(A, V, C0)):
        col, x = divmod(k, A.dim)
        got = [d0.entry(x * m + t, col) for t in range(m)]
        assert got == want
    return found


def check_module(L, W):
    return assert_same(validate_left_module(L, W), dense_left_module(L, W))


def test_valid_inputs_agree(algebras):
    found = 0
    for A in algebras:
        found += check_algebra(A)
        for build in MODULES.values():
            V = build(A)
            found += check_bimodule(A, V)
            if A.dim * V.space.dim <= 16:
                found += check_module(*lie_side(A, V, force=True))
    # the scaled algebra and the cyclic products fail the identity
    assert found > 0


@pytest.mark.parametrize("delta", DELTAS.values(), ids=DELTAS.keys())
def test_perturbed_products_agree(algebras, delta):
    found = 0
    for A in algebras:
        found += check_algebra(ColorAlgebra(A.space, A.eps, perturbed(A.products, delta, A.dim)))
        L = commutator_algebra(A, force=True)
        if L.products:
            bad = LieColorAlgebra(L.space, L.eps, perturbed(L.products, delta, L.dim))
            found += assert_same(validate_lie_color(bad), dense_lie_color(bad))
    assert found > 0


@pytest.mark.parametrize("delta", DELTAS.values(), ids=DELTAS.keys())
@pytest.mark.parametrize("module", ["natural", "hom"])
def test_perturbed_actions_agree(algebras, module, delta):
    found = 0
    for A in algebras:
        V = MODULES[module](A)
        left = perturbed(V.left, delta, V.space.dim)
        if left is not None:
            found += check_bimodule(A, Bimodule(A, V.space, left, V.right))
        right = perturbed(V.right, delta, V.space.dim)
        if right is not None:
            found += check_bimodule(A, Bimodule(A, V.space, V.left, right))
    assert found > 0


@pytest.mark.parametrize("delta", DELTAS.values(), ids=DELTAS.keys())
@pytest.mark.parametrize("module", ["natural", "trivial"])
def test_perturbed_module_actions_agree(algebras, module, delta):
    found = 0
    for A in algebras:
        L, W = lie_side(A, MODULES[module](A), force=True)
        left = perturbed(W.left, delta, W.space.dim)
        if left is not None:
            found += check_module(L, Bimodule(L, W.space, left, {}))
    assert found > 0


def test_module_pairs_fail_apart():
    # the bracket [x1, x2] alone is shifted by zeta_3 x1x2, so the law fails
    # at (x1, x2, w) and still holds at (x2, x1, w), although the two pairs
    # share the products x1(x2 w) and x2(x1 w)
    A = quantum_exterior_algebra(2)
    L, W = lie_side(A, natural_bimodule(A), force=True)
    x1, x2, x1x2 = (L.space.find(name) for name in ("x1", "x2", "x1x2"))
    products = {key: list(row) for key, row in L.products.items()}
    row = products.setdefault((x1, x2), [CycScalar.zero()] * L.dim)
    row[x1x2] = row[x1x2] + root_of_unity(3, 1)
    bad = LieColorAlgebra(L.space, L.eps, products)
    assert not validate_left_module(L, W)
    pairs = {key[1:3] for key, _ in validate_left_module(bad, W)}
    assert pairs == {("x1", "x2")}
    assert check_module(bad, W) > 0
