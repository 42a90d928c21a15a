"""Shared builders for the test suite: the worked examples, two seeded
random corpora of validated left-symmetric color algebras (the second with
a nonzero product in every member), quantum exterior algebras and their
seeded rescalings, direct sums, the bimodule of a monomial ideal, the
Lie-side coefficients of the main theorem, cocycle twists, eliminator,
``straighten`` and scalar product counters (fused updates included),
plain dense references of the identity checks and of ``GradedMap`` (its
blocks, kernels and products), and the Fraction-based reference scalar
``RefScalar``."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd

from colorhom.algebra import (
    ColorAlgebra,
    LieColorAlgebra,
    commutator_algebra,
    lie_from_brackets,
    validate_left_symmetric,
)
from colorhom.bimodule import Bimodule, cochain_module_action
from colorhom import cohomology, glinalg
from colorhom.glinalg import GradedMap, GradedSpace, rref
from colorhom.grading import GradingGroup, bichar_from_form, bichar_from_table, trivial_bicharacter
from colorhom.scalars import CycScalar, root_of_unity
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


# eps_plus, eps_minus and anticommuting_pair_algebra() as a problem file
# declares them
EPS_PLUS_JSON = {"mode": "form", "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                 "root_order": 2}
EPS_MINUS_JSON = {"mode": "table", "degrees": [list(d) for d in SUPPORT],
                  "values": [["-1" if i == j else "1" for j in range(3)]
                             for i in range(3)],
                  "strict": False}
ANTICOMMUTING_PAIR_JSON = {
    "basis": [{"name": "x", "degree": [1, 1, 0]},
              {"name": "y", "degree": [1, 0, 1]},
              {"name": "z", "degree": [0, 1, 1]}],
    "products": [
        {"left": "x", "right": "y", "result": [{"basis": "z", "coeff": "1"}]},
        {"left": "y", "right": "x", "result": [{"basis": "z", "coeff": "-1"}]},
    ],
}


def klein_problem(algebra, bicharacter=EPS_MINUS_JSON, **rest):
    """A problem-file object over klein(): the given algebra fragment and
    bicharacter, plus any further top-level keys (``module=...``)."""
    return dict({"group": {"orders": [2, 2, 2]}, "bicharacter": bicharacter,
                 "algebra": algebra}, **rest)


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


# ---------------------------------------------------------------------------
# quantum exterior algebras

def quantum_exterior_algebra(r):
    """Quantum exterior algebra on x_1..x_r over Z3^r: |x_i| = e_i,
    x_i^2 = 0 and x_j x_i = zeta_3 x_i x_j for i < j, on the ordered
    monomials (unit included), with the form bicharacter M_ij = 1,
    M_ji = 2 (i < j) at root order 3.  Associative, hence left-symmetric."""
    group = GradingGroup([3] * r)
    M = [[0 if i == j else (1 if i < j else 2) for j in range(r)]
         for i in range(r)]
    eps = bichar_from_form(group, M, 3)
    monomials = sorted((tuple(i for i in range(r) if mask >> i & 1)
                        for mask in range(2 ** r)), key=lambda s: (len(s), s))
    index = {s: t for t, s in enumerate(monomials)}
    space = GradedSpace(group, [
        ("".join(f"x{i + 1}" for i in s) or "1",
         [1 if i in s else 0 for i in range(r)]) for s in monomials])
    products = {}
    for S in monomials:
        for T in monomials:
            if set(S) & set(T):
                continue
            vec = [ZERO] * len(monomials)
            swaps = sum(1 for j in S for i in T if i < j)
            vec[index[tuple(sorted(S + T))]] = root_of_unity(3, swaps)
            products[(index[S], index[T])] = vec
    return ColorAlgebra(space, eps, products)


def rescaled(A, seed):
    """A on the basis s_i e_i, for seeded nonzero rationals s_i: the
    constants become s_i s_j c_ij^k / s_k.  Where every degree block is
    one-dimensional, as for the quantum exterior algebras, a rescaling is
    every graded change of basis."""
    rng = random.Random(seed)
    s = [CycScalar.rational(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                     rng.randint(1, 9)))
         for _ in range(A.dim)]
    products = {(i, j): [s[i] * s[j] * c / s[k] for k, c in enumerate(row)]
                for (i, j), row in A.products.items()}
    return ColorAlgebra(A.space, A.eps, products)


def direct_sum(A, k):
    """k orthogonal copies of A, basis names suffixed by the copy number:
    products between different copies vanish."""
    n = A.dim
    space = GradedSpace(A.space.group, [
        (f"{name}{c + 1}", d) for c in range(k)
        for name, d in zip(A.space.names, A.space.degrees)])
    products = {}
    for c in range(k):
        for (i, j), row in A.products.items():
            vec = [ZERO] * (n * k)
            vec[c * n:(c + 1) * n] = row
            products[(c * n + i, c * n + j)] = vec
    return ColorAlgebra(space, A.eps, products)


def ideal_bimodule(A, keep):
    """The sub-bimodule of A's natural bimodule spanned by the basis
    elements ``keep``, which must be closed under both products, in the
    order of A's basis.  Its left action x . w is the product x w and its
    right action w . x the product w x; they differ where A is not
    commutative, which the natural and trivial modules cannot show."""
    keep = sorted(keep)
    at = {k: t for t, k in enumerate(keep)}
    space = GradedSpace(A.space.group, [(A.space.names[k], A.space.degrees[k])
                                        for k in keep])
    left, right = {}, {}
    for (i, j), row in A.products.items():
        if i not in at and j not in at:
            continue
        vec = {k: c for k, c in enumerate(row) if not c.is_zero()}
        if not vec.keys() <= at.keys():
            raise ValueError(f"{A.space.names[i]}*{A.space.names[j]} leaves "
                             f"the span of {[A.space.names[k] for k in keep]}")
        vec = {at[k]: c for k, c in vec.items()}
        if j in at:
            left[(i, at[j])] = vec
        if i in at:
            right[(at[i], j)] = vec
    return Bimodule(A, space, left, right)


def lie_side(A, V, force=False):
    """[A] and the module C^1(A,V) it acts on, as verify_main_theorem
    builds them."""
    return commutator_algebra(A, force=force), cochain_module_action(A, V)


def twisted(A, S):
    """A twisted by the 2-cocycle sigma(a, b) = zeta_m^(a^T S b), where A's
    bicharacter is the form M at root order m: the product becomes
    x * y = sigma(|x|, |y|) xy and the bicharacter the form M + S - S^T
    (Scheunert, J. Math. Phys. 20, 1979).  The result is again
    left-symmetric, with the same cohomology dimensions."""
    m, M, r = A.eps.root_m, A.eps.matrix, A.space.group.rank

    def sigma(a, b):
        return root_of_unity(m, sum(a.components[i] * S[i][j] * b.components[j]
                                    for i in range(r) for j in range(r)) % m)

    form = [[(M[i][j] + S[i][j] - S[j][i]) % m for j in range(r)]
            for i in range(r)]
    degs = A.space.degrees
    products = {(i, j): [sigma(degs[i], degs[j]) * c for c in row]
                for (i, j), row in A.products.items()}
    return ColorAlgebra(A.space, bichar_from_form(A.space.group, form, m),
                        products)


# ---------------------------------------------------------------------------
# counting the work of the rank, assembly and identity-check layers

def _count_eliminations(monkeypatch):
    """Counts calls of the sparse eliminator per (map, degree).

    A block may be transposed before it is eliminated, so the rows the
    eliminator receives say nothing of where they came from; each call is
    charged to the (map, degree) whose block ``GradedMap._block`` read last.
    """
    calls, last = Counter(), []
    real_block, real_echelon = GradedMap._block, glinalg._echelon

    def block(self, d):
        last[:] = [(self, d)]
        return real_block(self, d)

    def counting(rows, reduced=False):
        calls[last[0]] += 1
        return real_echelon(rows, reduced)

    monkeypatch.setattr(GradedMap, "_block", block)
    monkeypatch.setattr(glinalg, "_echelon", counting)
    return calls


def _count_straightens(monkeypatch):
    """Counts calls of ``straighten`` from the coboundary assembly, per
    word straightened."""
    calls, real = Counter(), cohomology.straighten

    def counting(space, word, eps):
        calls[tuple(word)] += 1
        return real(space, word, eps)

    monkeypatch.setattr(cohomology, "straighten", counting)
    return calls


def _count_calls(monkeypatch, owner, *names):
    """Counts calls of the named methods of ``owner``, all together; returns
    a one-element list holding the count, which the caller may reset."""
    count = [0]
    for name in names:
        def counting(*args, real=getattr(owner, name)):
            count[0] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counting)
    return count


def _count_products(monkeypatch):
    """Counts ``CycScalar`` products and the fused updates v + f * b that
    ``glinalg`` makes, as :func:`_count_calls` does; a fused update that
    falls back to the operators counts its product too."""
    count = _count_calls(monkeypatch, CycScalar, "__mul__", "__rmul__")
    real = glinalg._fma

    def counting(v, f, b):
        count[0] += 1
        return real(v, f, b)
    monkeypatch.setattr(glinalg, "_fma", counting)
    return count


# ---------------------------------------------------------------------------
# dense references of GradedMap: a block as full rows, the kernel of a dense
# matrix by Gauss-Jordan (rref), and the plain matrix product

def dense_block(f, d):
    """The block of the GradedMap f at degree d as dim_dst(d) full rows over
    the dim_src(d) columns of degree d, in basis order."""
    cols = f.src.global_indices(d)
    return [[f.rows.get(i, {}).get(c, ZERO) for c in cols]
            for i in f.dst.global_indices(d)]


def exact_kernel(rows, ncols):
    """Basis of the right kernel {v : rows @ v = 0}, one full vector per
    free column of the reduced row echelon form."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for row_i, pc in enumerate(pivots):
            v[pc] = -reduced[row_i][free]
        basis.append(v)
    return basis


def mat_mul(A, B):
    """Dense product; A is r x k, B is k x c."""
    if not A or not B:
        return [[] for _ in A]
    c = len(B[0])
    out = []
    for row in A:
        acc = [ZERO] * c
        for j, a in enumerate(row):
            if a.is_zero():
                continue
            brow = B[j]
            for t in range(c):
                if not brow[t].is_zero():
                    acc[t] = acc[t] + a * brow[t]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# dense references of the identity checks: every vector a full list, every
# product of vectors the plain double loop over a table of stored vectors
# (dense algebra rows or sparse action rows, copied into full lists here)

def _dense(table, u, v, dim):
    """sum_ij u_i v_j table[(i, j)]; absent keys are zero."""
    out = [ZERO] * dim
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        for j, b in enumerate(v):
            if (i, j) in table and not b.is_zero():
                out = [o if x.is_zero() else o + a * b * x
                       for o, x in zip(out, stored(table, (i, j), dim))]
    return out


def _unit(n, k):
    v = [ZERO] * n
    v[k] = ONE
    return v


def stored(table, key, dim):
    """A dense copy of the vector stored at key in a table of stored
    vectors, whether a dense list or a sparse {index: scalar} row; absent
    keys are zero."""
    out = [ZERO] * dim
    vec = table.get(key)
    if isinstance(vec, dict):
        for t, c in vec.items():
            out[t] = c
    elif vec is not None:
        for t, c in enumerate(vec):
            out[t] = c
    return out


def _comb(*terms):
    """sum of c * vec over (c, vec) pairs."""
    out = [ZERO] * len(terms[0][1])
    for c, vec in terms:
        out = [o if x.is_zero() else o + c * x for o, x in zip(out, vec)]
    return out


def _named(space, vec):
    return {space.names[k]: c for k, c in enumerate(vec) if not c.is_zero()}


def dense_left_symmetric(A):
    """Reference of validate_left_symmetric, and the one reference of the
    left-symmetric identity: dense products re-expanded with its own loops,
    sharing no code with glinalg or the coboundary assembly.  Same format
    as the validator: violating triples in basis order, residuals keyed by
    basis name in basis order.  The residual, scan and tangent-space tests
    read it."""
    n, space, P = A.dim, A.space, A.products
    out = []
    for i in range(n):
        for j in range(n):
            e = A.eps(space.degrees[i], space.degrees[j])
            for k in range(n):
                def assoc(a, b):
                    return _comb(
                        (ONE, _dense(P, stored(P, (a, b), n), _unit(n, k), n)),
                        (MINUS_ONE, _dense(P, _unit(n, a), stored(P, (b, k), n), n)))
                r = _comb((ONE, assoc(i, j)), (-e, assoc(j, i)))
                if any(not c.is_zero() for c in r):
                    out.append(((space.names[i], space.names[j], space.names[k]),
                                _named(space, r)))
    return out


def dense_lie_color(L):
    """Reference of validate_lie_color."""
    n, space, P = L.dim, L.space, L.products
    eps, degs = L.eps, L.space.degrees
    out = []
    for i in range(n):
        for j in range(n):
            r = _comb((ONE, stored(P, (i, j), n)),
                      (eps(degs[i], degs[j]), stored(P, (j, i), n)))
            if any(not c.is_zero() for c in r):
                out.append((("skew", space.names[i], space.names[j]),
                            _named(space, r)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = _comb(*[(eps(degs[c], degs[a]),
                             _dense(P, stored(P, (a, b), n), _unit(n, c), n))
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))])
                if any(not c.is_zero() for c in r):
                    out.append((("jacobi", space.names[i], space.names[j],
                                 space.names[k]), _named(space, r)))
    return out


def dense_bimodule(A, V):
    """Reference of validate_bimodule."""
    n, m, eps = A.dim, V.space.dim, A.eps
    P, Vl, Vr = A.products, V.left, V.right
    an, vn = A.space.names, V.space.names
    out = []
    for i in range(n):
        for j in range(n):
            for w in range(m):
                ew = _unit(m, w)
                e = eps(A.space.degrees[i], A.space.degrees[j])
                r = _comb(
                    (ONE, _dense(Vl, stored(P, (i, j), n), ew, m)),
                    (MINUS_ONE, _dense(Vl, _unit(n, i), stored(Vl, (j, w), m), m)),
                    (-e, _dense(Vl, stored(P, (j, i), n), ew, m)),
                    (e, _dense(Vl, _unit(n, j), stored(Vl, (i, w), m), m)))
                if any(not c.is_zero() for c in r):
                    out.append((("bm1", an[i], an[j], vn[w]), _named(V.space, r)))
                e = eps(A.space.degrees[i], V.space.degrees[w])
                r = _comb(
                    (ONE, _dense(Vr, stored(Vl, (i, w), m), _unit(n, j), m)),
                    (MINUS_ONE, _dense(Vl, _unit(n, i), stored(Vr, (w, j), m), m)),
                    (-e, _dense(Vr, stored(Vr, (w, i), m), _unit(n, j), m)),
                    (e, _dense(Vr, ew, stored(P, (i, j), n), m)))
                if any(not c.is_zero() for c in r):
                    out.append((("bm2", an[i], vn[w], an[j]), _named(V.space, r)))
    return out


def dense_left_module(L, W):
    """Reference of validate_left_module."""
    n, m, P, Wl = L.dim, W.space.dim, L.products, W.left
    out = []
    for i in range(n):
        for j in range(n):
            e = L.eps(L.space.degrees[i], L.space.degrees[j])
            for w in range(m):
                r = _comb(
                    (ONE, _dense(Wl, stored(P, (i, j), n), _unit(m, w), m)),
                    (MINUS_ONE, _dense(Wl, _unit(n, i), stored(Wl, (j, w), m), m)),
                    (e, _dense(Wl, _unit(n, j), stored(Wl, (i, w), m), m)))
                if any(not c.is_zero() for c in r):
                    out.append((("module", L.space.names[i], L.space.names[j],
                                 W.space.names[w]), _named(W.space, r)))
    return out


def dense_invariants(A, V):
    """Reference of invariant_subspace: (degree, global coordinates) per
    kernel vector of the dense defect (e_i e_j) w - e_i (e_j w), one block
    per degree of V."""
    n, m, P, Vl = A.dim, V.space.dim, A.products, V.left
    out = []
    for d in V.space.degrees_present():
        ws = V.space.global_indices(d)
        defect = {w: [_comb(
            (ONE, _dense(Vl, stored(P, (i, j), n), _unit(m, w), m)),
            (MINUS_ONE, _dense(Vl, _unit(n, i), stored(Vl, (j, w), m), m)))
            for i in range(n) for j in range(n)] for w in ws}
        rows = [[defect[w][ij][t] for w in ws]
                for ij in range(n * n) for t in range(m)]
        for vec in exact_kernel(rows, len(ws)):
            coords = [ZERO] * m
            for w, c in zip(ws, vec):
                coords[w] = c
            out.append((d, coords))
    return out


def dense_d0(A, V, C0):
    """Reference of d_0 on C0 = invariant_subspace(A, V): per basis vector
    of C0 and per x, the V-vector v x - eps(|v|,|x|) x v."""
    n, m = A.dim, V.space.dim
    out = []
    for col in range(C0.dim):
        coords = [C0.meta[col].get(t, ZERO) for t in range(m)]
        for x in range(n):
            e = A.eps(C0.degrees[col], A.space.degrees[x])
            out.append(_comb((ONE, _dense(V.right, coords, _unit(n, x), m)),
                             (-e, _dense(V.left, _unit(n, x), coords, m))))
    return out


def perturbed(table, delta, dim):
    """A copy of a table of stored vectors of length dim, each row kept in
    its format (dense list or sparse dict), with its first nonzero entry, in
    key order, shifted by delta (None when the table is empty)."""
    for key in sorted(table):
        vec = stored(table, key, dim)
        for t, c in enumerate(vec):
            if not c.is_zero():
                new = dict(table)
                if isinstance(table[key], dict):
                    new[key] = {**table[key], t: c + delta}
                else:
                    vec[t] = c + delta
                    new[key] = vec
                return new
    return None


# ---------------------------------------------------------------------------
# reference scalars: Q(zeta_m) over Fraction coordinates, extended Euclid for
# inverses; the integer-backed CycScalar is cross-checked against it

def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_poly_divmod(p, d):
    """Quotient and remainder in Q[x]; d must be nonzero."""
    r = _ref_trim(list(p))
    q = [Fraction(0)] * max(len(p) - len(d) + 1, 0)
    while len(r) >= len(d):
        shift = len(r) - len(d)
        c = r[-1] / d[-1]
        q[shift] = c
        for i, b in enumerate(d):
            r[shift + i] -= c * b
        _ref_trim(r)
    return _ref_trim(q), r


@lru_cache(maxsize=None)
def _ref_cyclotomic(m):
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _ref_poly_mul(den, _ref_cyclotomic(d))
    return tuple(_ref_poly_divmod(num, den)[0])


def _ref_reduce(m, coeffs):
    """Coordinates of sum(coeffs[i] x^i) mod Phi_m, padded to phi(m)."""
    phi = len(_ref_cyclotomic(m)) - 1
    _, r = _ref_poly_divmod(_ref_trim([Fraction(c) for c in coeffs]),
                            _ref_cyclotomic(m))
    return tuple(r + [Fraction(0)] * (phi - len(r)))


class RefScalar:
    """Reference element of Q(zeta_m): Fraction coordinates ``coeffs`` in the
    power basis, rational values at conductor 1, m = 2 folded into 1,
    mixed conductors lifted to the lcm."""

    def __init__(self, m, coeffs):
        coeffs = _ref_reduce(m, coeffs)
        if m == 2 or not any(coeffs[1:]):
            m, coeffs = 1, coeffs[:1]
        self.m, self.coeffs = m, coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def _coords_in(self, m):
        step = m // self.m
        raw = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            raw[i * step] = c
        return list(_ref_reduce(m, raw))

    def _align(self, other):
        m = self.m * other.m // gcd(self.m, other.m)
        return m, self._coords_in(m), other._coords_in(m)

    def __add__(self, other):
        m, a, b = self._align(other)
        return RefScalar(m, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        m, a, b = self._align(other)
        return RefScalar(m, [x - y for x, y in zip(a, b)])

    def __mul__(self, other):
        m, a, b = self._align(other)
        return RefScalar(m, _ref_poly_mul(a, b))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        return self * other.inverse()

    def inverse(self):
        # extended Euclid in Q[x]: u*b + v*Phi_m = 1, so u = b^(-1) mod Phi_m
        r0, r1 = _ref_cyclotomic(self.m), _ref_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _ref_poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _ref_poly_mul(q, s1)
            width = max(len(s0), len(qs))
            s0, s1 = s1, _ref_trim(
                [a - b for a, b in zip(s0 + [0] * (width - len(s0)),
                                       qs + [0] * (width - len(qs)))])
        return RefScalar(self.m, [c / r0[0] for c in s0])

    def __eq__(self, other):
        _, a, b = self._align(other)
        return a == b

    def smallest(self):
        """The value at the least conductor (2 mod 4 skipped) holding it."""
        for d in range(3, self.m):
            if self.m % d == 0 and d % 4 != 2:
                # try every coordinate vector over Q(zeta_d) via elimination
                cols = [RefScalar(d, [0] * i + [1])._coords_in(self.m)
                        for i in range(len(_ref_cyclotomic(d)) - 1)]
                coords = _solve(cols, list(self.coeffs))
                if coords is not None:
                    return RefScalar(d, coords)
        return self

    def __repr__(self):
        s = self.smallest()
        terms = []
        for i, c in enumerate(s.coeffs):
            if not c:
                continue
            z = "" if i == 0 else (f"z{s.m}" if i == 1 else f"z{s.m}^{i}")
            if not z:
                terms.append(str(c))
            elif c in (1, -1):
                terms.append(z if c == 1 else f"-{z}")
            else:
                terms.append(f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    def to_json(self):
        s = self.smallest()
        if s.m == 1:
            return str(s.coeffs[0])
        return {"conductor": s.m, "coeffs": [str(c) for c in s.coeffs]}


def _solve(cols, target):
    """x with sum_i x_i cols[i] == target over Fractions, or None."""
    rows = [[Fraction(col[r]) for col in cols] + [Fraction(t)]
            for r, t in enumerate(target)]
    for i in range(len(cols)):
        p = next(r for r in range(i, len(rows)) if rows[r][i])
        rows[i], rows[p] = rows[p], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(len(rows)):
            if r != i and rows[r][i]:
                f = rows[r][i]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    if any(row[-1] for row in rows[len(cols):]):
        return None
    return [row[-1] for row in rows[:len(cols)]]
