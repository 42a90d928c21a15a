"""Shared builders for the test suite: the worked examples and two seeded
random corpora of validated left-symmetric color algebras (the second with
a nonzero product in every member)."""

import random
from fractions import Fraction

from colorhom.algebra import (
    ColorAlgebra,
    LieColorAlgebra,
    lie_from_brackets,
    validate_left_symmetric,
)
from colorhom.glinalg import GradedSpace
from colorhom.grading import GradingGroup, bichar_from_form, bichar_from_table, trivial_bicharacter
from colorhom.scalars import CycScalar
from colorhom.variety import allowed_products

ONE = CycScalar.one()
MINUS_ONE = CycScalar.rational(-1)
ZERO = CycScalar.zero()


def klein():
    return GradingGroup([2, 2, 2])


SUPPORT = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def eps_plus():
    """Self-pairings 1, distinct listed pairs -1; biadditive (form mode)."""
    return bichar_from_form(klein(), [[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2)


def eps_minus(strict=False):
    """Self-pairings -1, distinct listed pairs 1; table mode, not biadditive."""
    vals = [[MINUS_ONE if i == j else ONE for j in range(3)] for i in range(3)]
    return bichar_from_table(klein(), SUPPORT, vals, strict=strict)


def xyz_space(group=None):
    G = group or klein()
    return GradedSpace(G, [("x", (1, 1, 0)), ("y", (1, 0, 1)), ("z", (0, 1, 1))])


def _vec(n, **entries):
    v = [ZERO] * n
    for k, c in entries.items():
        v[int(k[1:])] = CycScalar.rational(c) if not isinstance(c, CycScalar) else c
    return v


def anticommuting_pair_algebra(eps=None):
    """xy = z, yx = -z, everything else zero."""
    space = xyz_space()
    eps = eps or eps_minus()
    products = {
        (0, 1): _vec(3, e2=1),
        (1, 0): _vec(3, e2=-1),
    }
    return ColorAlgebra(space, eps, products)


def cyclic_products_algebra():
    """xy = z, zx = y, everything else zero; fails the left-symmetric
    identity at (x, z, x)."""
    space = xyz_space()
    products = {
        (0, 1): _vec(3, e2=1),
        (2, 0): _vec(3, e1=1),
    }
    return ColorAlgebra(space, eps_plus(), products)


def cross_product_lie():
    """Brackets [x,y] = z, [z,x] = y, [y,z] = x (mirrors filled by
    skew-symmetry)."""
    space = xyz_space()
    return lie_from_brackets(space, eps_plus(), {
        (0, 1): _vec(3, e2=1),
        (2, 0): _vec(3, e1=1),
        (1, 2): _vec(3, e0=1),
    })


def mixed_abelian_lie():
    """Brackets [x,y] = z, [z,x] = y, [y,z] = 0."""
    space = xyz_space()
    return lie_from_brackets(space, eps_plus(), {
        (0, 1): _vec(3, e2=1),
        (2, 0): _vec(3, e1=1),
    })


def square_to_second_algebra(c):
    """One-parameter family on Z_3: |x| = 1, |y| = 2, x^2 = c y."""
    G = GradingGroup([3])
    space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
    c = c if isinstance(c, CycScalar) else CycScalar.rational(c)
    products = {(0, 0): [ZERO, c]}
    return ColorAlgebra(space, trivial_bicharacter(G), products)


def mutual_squares_algebra(c1, c2):
    """Two-parameter family on Z_3: x^2 = c1 y, y^2 = c2 x."""
    G = GradingGroup([3])
    space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
    c1 = c1 if isinstance(c1, CycScalar) else CycScalar.rational(c1)
    c2 = c2 if isinstance(c2, CycScalar) else CycScalar.rational(c2)
    products = {(0, 0): [ZERO, c1], (1, 1): [c2, ZERO]}
    return ColorAlgebra(space, trivial_bicharacter(G), products)


# ---------------------------------------------------------------------------
# randomized corpus

_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
           Fraction(1, 2), Fraction(3)]


def _random_eps(rng):
    # mod 2 skew-symmetry means symmetric, so mirror the upper triangle
    M = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            M[i][j] = M[j][i] = rng.randrange(2)
    return bichar_from_form(klein(), M, 2)


def _random_space(rng):
    degs = [tuple(rng.randrange(2) for _ in range(3)) for _ in range(3)]
    return GradedSpace(klein(), [(nm, d) for nm, d in zip("abc", degs)])


def _random_algebra(rng):
    eps = _random_eps(rng)
    space = _random_space(rng)
    products = {}
    for _ in range(rng.randrange(3)):
        i, j = rng.randrange(3), rng.randrange(3)
        target = space.degrees[i] + space.degrees[j]
        hits = [k for k in range(3) if space.degrees[k] == target]
        if not hits:
            continue
        k = rng.choice(hits)
        vec = products.setdefault((i, j), [ZERO] * 3)
        vec[k] = vec[k] + CycScalar.rational(rng.choice(_COEFFS))
    return ColorAlgebra(space, eps, products)


def table_index(entries):
    """A dimension table keyed by (n, degree tuple)."""
    return {(e["n"], tuple(e["degree"])): e for e in entries}


def random_lsa_corpus(count=25, seed=20260816):
    """Deterministic list of random graded algebras passing the
    left-symmetric validator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = _random_algebra(rng)
        if not validate_left_symmetric(A):
            out.append(A)
    return out


def _random_nonzero_algebra(rng):
    """Degrees redrawn until the grading allows a product, then one or two
    distinct allowed structure constants set to nonzero values."""
    eps = _random_eps(rng)
    mask = set()
    while not mask:
        space = _random_space(rng)
        mask = allowed_products(space)
    products = {}
    for i, j, k in rng.sample(sorted(mask), min(len(mask), 1 + rng.randrange(2))):
        vec = products.setdefault((i, j), [ZERO] * 3)
        vec[k] = CycScalar.rational(rng.choice(_COEFFS))
    return ColorAlgebra(space, eps, products)


def random_nonzero_lsa_corpus(count=25, seed=20261018):
    """Deterministic list of random graded algebras with at least one
    nonzero product, each passing the left-symmetric validator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        A = _random_nonzero_algebra(rng)
        if not validate_left_symmetric(A):
            out.append(A)
    return out


# ---------------------------------------------------------------------------
# parameterized families

def subcase3_family():
    """x^2 = c y on Z_3 (|x| = 1, |y| = 2); one free parameter."""
    from colorhom.variety import FamilySpec
    G = GradingGroup([3])
    space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
    return FamilySpec(space, trivial_bicharacter(G), [((0, 0, 1), "c")])


def mutual_squares_family():
    """x^2 = c1 y, y^2 = c2 x on Z_3; two free parameters."""
    from colorhom.variety import FamilySpec
    G = GradingGroup([3])
    space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
    return FamilySpec(space, trivial_bicharacter(G),
                      [((0, 0, 1), "c1"), ((1, 1, 0), "c2")])


def subcase1_family():
    """x^2 = c y on Z_4 (|x| = 1, |y| = 2): the sibling family whose mask
    has a single slot because 2|y| leaves the support."""
    from colorhom.variety import FamilySpec
    G = GradingGroup([4])
    space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
    return FamilySpec(space, trivial_bicharacter(G), [((0, 0, 1), "c")])


def single_degree_pair_space():
    """Two basis vectors at the same nonzero degree; the grading mask is
    empty, so only the trivial algebra lives here."""
    G = GradingGroup([2])
    return GradedSpace(G, [("x", (1,)), ("y", (1,))])
