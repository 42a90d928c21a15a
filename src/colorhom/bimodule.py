"""Bimodules over a left-symmetric color algebra.

The two defining axioms, on homogeneous x, y in A and w in V:

  bm1:  (xy)w - x(yw) = eps(|x|,|y|) ((yx)w - y(xw))
  bm2:  (xw)y - x(wy) = eps(|x|,|w|) ((wx)y - w(xy))

Constructors cover the natural bimodule (A acting on itself), the trivial
one, Hom(A,V) with its right-trivial action, and the right-trivial action on
cochain spaces that the cohomology layer reuses.  Everything is stored as
action constants over the basis, one sparse {index: nonzero scalar} row per
pair of basis elements, so downstream code only ever sees matrices and reads
only their nonzeros.  Hom and cochain spaces are row-major (see
:func:`~colorhom.glinalg.hom_space`), so their basis indices are computed,
not looked up.
"""

from __future__ import annotations

from .algebra import ColorAlgebra, LieColorAlgebra, commutator_algebra
from .glinalg import (
    GradedSpace,
    _axpy,
    _entries,
    _residuals,
    _through,
    exterior_basis,
    hom_space,
    straighten,
    tensor_space,
)
from .grading import _eps_pairwise
from .scalars import CycScalar

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()
_MINUS_ONE = -_ONE


class BimoduleError(ValueError):
    pass


class Bimodule:
    """Left and right action constants of an algebra on a graded space.

    ``left`` maps (i, w) to the V-vector e_i . v_w; ``right`` maps (w, i) to
    v_w . e_i.  The constructor takes each vector as a dense list over the
    basis of V (``natural_bimodule`` passes the algebra's dense product
    rows) or as a dict {t: scalar} (the problem-file reader), and
    stores it as a sparse row {t: nonzero scalar} in ascending t; zero rows
    and absent keys act as zero.  Both actions must respect the grading:
    A_a V_b lies in V_{a+b} and symmetrically.
    """

    def __init__(self, algebra: ColorAlgebra, space: GradedSpace, left, right):
        self.algebra = algebra
        self.space = space
        self.left = _clean_action(
            left, algebra.space, space, lambda i, w: (i, w), "left")
        self.right = _clean_action(
            right, algebra.space, space, lambda w, i: (i, w), "right")

    def __repr__(self):
        return (f"Bimodule(dim={self.space.dim}, |left|={len(self.left)}, "
                f"|right|={len(self.right)})")


def _clean_action(raw, aspace, vspace, keyfun, label):
    """The sparse store of an action table given with dense list or dict
    rows: zeros and zero rows dropped, keys in ascending order.  A dense row
    of the wrong length and a dict row with a key outside the basis of V
    fail alike, as do grading violations, checked in ascending t."""
    out = {}
    dim = vspace.dim
    for key, vec in raw.items():
        if isinstance(vec, dict):
            if not all(type(t) is int and 0 <= t < dim for t in vec):
                raise BimoduleError(
                    f"{label} action vector at {key} has wrong length")
            row = {t: vec[t] for t in sorted(vec) if not vec[t].is_zero()}
        else:
            vec = list(vec)
            if len(vec) != dim:
                raise BimoduleError(
                    f"{label} action vector at {key} has wrong length")
            row = dict(_entries(vec))
        if not row:
            continue
        i, w = keyfun(*key)
        target = aspace.degrees[i] + vspace.degrees[w]
        for t in row:
            if vspace.degrees[t] is not target:
                raise BimoduleError(
                    f"grading violation in {label} action at {key}: component "
                    f"{vspace.names[t]} has degree {vspace.degrees[t]}, "
                    f"expected {target}")
        out[key] = row
    return out


# ---------------------------------------------------------------------------
# validators and predicates

def validate_bimodule(V: Bimodule):
    """Violations of bm1/bm2 on all basis triples; empty list means valid."""
    A = V.algebra
    n, m = A.dim, V.space.dim
    eps, P, Vl, Vr = A.eps, A.products, V.left, V.right
    out = []
    for i in range(n):
        di = A.space.degrees[i]
        for j in range(n):
            e_ij = eps(di, A.space.degrees[j])
            for w in range(m):
                e_iw = eps(di, V.space.degrees[w])
                # bm1: (xy)w - x(yw) vs eps(|x|,|y|)((yx)w - y(xw))
                r = {}
                _through(r, _ONE, P.get((i, j)), lambda t: Vl.get((t, w)))
                _through(r, -_ONE, Vl.get((j, w)), lambda t: Vl.get((i, t)))
                _through(r, -e_ij, P.get((j, i)), lambda t: Vl.get((t, w)))
                _through(r, e_ij, Vl.get((i, w)), lambda t: Vl.get((j, t)))
                if r:
                    out.append((("bm1", A.space.names[i], A.space.names[j],
                                 V.space.names[w]), _residuals(V.space, r)))
                # bm2: (xw)y - x(wy) vs eps(|x|,|w|)((wx)y - w(xy))
                r = {}
                _through(r, _ONE, Vl.get((i, w)), lambda t: Vr.get((t, j)))
                _through(r, -_ONE, Vr.get((w, j)), lambda t: Vl.get((i, t)))
                _through(r, -e_iw, Vr.get((w, i)), lambda t: Vr.get((t, j)))
                _through(r, e_iw, P.get((i, j)), lambda t: Vr.get((w, t)))
                if r:
                    out.append((("bm2", A.space.names[i], V.space.names[w],
                                 A.space.names[j]), _residuals(V.space, r)))
    return out


def is_right_trivial(V: Bimodule) -> bool:
    return not V.right


def is_complete(V: Bimodule) -> bool:
    """Whether the right action satisfies the right-module law over the
    commutator bracket: w[x,y] = (wx)y - eps(|x|,|y|)(wy)x."""
    A = V.algebra
    n, m = A.dim, V.space.dim
    P, Vr = A.products, V.right
    for i in range(n):
        di = A.space.degrees[i]
        for j in range(n):
            e = A.eps(di, A.space.degrees[j])
            for w in range(m):
                r = {}
                _through(r, _ONE, P.get((i, j)), lambda t: Vr.get((w, t)))
                _through(r, -e, P.get((j, i)), lambda t: Vr.get((w, t)))
                _through(r, -_ONE, Vr.get((w, i)), lambda t: Vr.get((t, j)))
                _through(r, e, Vr.get((w, j)), lambda t: Vr.get((t, i)))
                if r:
                    return False
    return True


# ---------------------------------------------------------------------------
# constructors

def natural_bimodule(A: ColorAlgebra) -> Bimodule:
    """A acting on itself by its own product on both sides."""
    return Bimodule(A, A.space, A.products, A.products)


def trivial_bimodule(A: ColorAlgebra) -> Bimodule:
    """One-dimensional space u of degree 0 with both actions zero."""
    G = A.space.group
    return Bimodule(A, GradedSpace(G, [("u", G.zero)]), {}, {})


def hom_bimodule(A: ColorAlgebra, V: Bimodule) -> Bimodule:
    """Right-trivial bimodule on Hom(A, V) with left action

        (x f)(z) = x f(z) - eps(|x|,|f|) f(xz) + eps(|x|,|f|) f(x) z.
    """
    H = hom_space(A.space, V.space)
    eps = A.eps
    n, m = A.dim, V.space.dim
    left = {}
    for a in range(n):
        da = A.space.degrees[a]
        for h in range(H.dim):
            # f = [e_s => v_w] sits at s * m + w
            s, w = divmod(h, m)
            e = eps(da, H.degrees[h])
            # a sparse row; entries that cancel are dropped by Bimodule
            out = {}
            # x f(z): nonzero only where f does not vanish, i.e. z = s
            for t, v in V.left.get((a, w), {}).items():
                out[s * m + t] = v
            # -eps f(xz): f picks the e_s component of each product x e_z
            for z in range(n):
                c = A.products.get((a, z))
                if c is not None and not c[s].is_zero():
                    k = z * m + w
                    out[k] = out.get(k, _ZERO) - e * c[s]
            # +eps f(x) z: nonzero only when x = e_s
            if a == s:
                for z in range(n):
                    for t, v in V.right.get((w, z), {}).items():
                        k = z * m + t
                        out[k] = out.get(k, _ZERO) + e * v
            if out:
                left[(a, h)] = out
    return Bimodule(A, H, left, {})


# ---------------------------------------------------------------------------
# cochain spaces and the module structure on them

def cochain_space(A: ColorAlgebra, V: Bimodule, n: int) -> GradedSpace:
    """C^n(A,V) = Hom((Lambda^{n-1} A) (x) A, V) for n >= 1: the first n-1
    arguments are alternating, the last is unconstrained."""
    if n < 1:
        raise ValueError("cochain_space covers n >= 1 only")
    wedge = exterior_basis(A.space, n - 1, A.eps)
    return hom_space(tensor_space(wedge, A.space), V.space)


def cochain_module_action(A: ColorAlgebra, V: Bimodule, n: int) -> Bimodule:
    """Right-trivial left action of A on C^{n+1}(A,V):

      (x f)(x_1,...,x_{n+1}) = x f(x_1,...,x_{n+1})
        - eps(|x|, |f|+sum|x_i|) f(x_1,...,x_n, x x_{n+1})
        - sum_j eps(|x|, |f|+sum_{i<j}|x_i|) f(x_1,..,[x,x_j],..,x_n, x_{n+1})
        + eps(|x|, |f|+sum|x_i|) f(x_1,...,x_n, x) x_{n+1}

    For n = 0 this is exactly the Hom(A,V) action of hom_bimodule.
    """
    if n < 0:
        raise ValueError("cochain_module_action needs n >= 0")
    C = cochain_space(A, V, n + 1)
    wedge = exterior_basis(A.space, n, A.eps)
    eps = A.eps
    aspace = A.space
    # wedge^0 A has only the empty word, so n = 0 never reads the bracket
    brackets = commutator_algebra(A, force=True).products if n >= 1 else {}
    n_a, m = A.dim, V.space.dim

    def slot(word_idx, last, v):
        # C = Hom(wedge (x) A, V), row-major at both levels
        return (word_idx * n_a + last) * m + v

    left = {}
    for a in range(n_a):
        da = aspace.degrees[a]
        for h in range(C.dim):
            pair, v0 = divmod(h, m)
            w0, l0 = divmod(pair, n_a)
            word0 = wedge.meta[w0]
            d_f = C.degrees[h]
            # a sparse row; entries that cancel are dropped by Bimodule
            out = {}

            # x f(...): add x . v0 at the same argument tuple
            for t, c in V.left.get((a, v0), {}).items():
                out[slot(w0, l0, t)] = c

            # the remaining terms mention f at modified argument tuples; we
            # scatter over every target tuple (word, last) whose modification
            # reaches f's own tuple (word0, l0)
            e_full = eps(da, d_f) * _eps_pairwise(
                eps, (da,), [aspace.degrees[i] for i in word0])

            # -eps(|x|,|f|+sum|x_i|) f(x_1..x_n, x x_last): targets share
            # word0; need (x e_last) to hit e_{l0}
            for last in range(n_a):
                c = A.products.get((a, last))
                if c is not None and not c[l0].is_zero():
                    k = slot(w0, last, v0)
                    out[k] = out.get(k, _ZERO) - e_full * c[l0]

            # +eps(|x|,|f|+sum|x_i|) f(x_1..x_n, x) x_last
            if a == l0:
                for last in range(n_a):
                    for t, c in V.right.get((v0, last), {}).items():
                        k = slot(w0, last, t)
                        out[k] = out.get(k, _ZERO) + e_full * c

            # -sum_j eps(|x|,|f|+sum_{i<j}|x_i|) f(.., [x,x_j], ..): for each
            # target word W and slot j, replacing W_j by a bracket component
            # must straighten to word0
            for wi in range(wedge.dim):
                W = wedge.meta[wi]
                for j in range(len(W)):
                    br = brackets.get((a, W[j]))
                    if br is None:
                        continue
                    e_j = eps(da, d_f) * _eps_pairwise(
                        eps, (da,), [aspace.degrees[i] for i in W[:j]])
                    for k, c in _entries(br):
                        modified = W[:j] + (k,) + W[j + 1:]
                        st = straighten(aspace, modified, eps)
                        if st is None:
                            continue
                        coeff, canon = st
                        if canon != word0:
                            continue
                        tk = slot(wi, l0, v0)
                        out[tk] = out.get(tk, _ZERO) - e_j * c * coeff

            if out:
                left[(a, h)] = out
    return Bimodule(A, C, left, {})


# ---------------------------------------------------------------------------
# left modules over a Lie color algebra

class LieModule:
    """Graded left module over a Lie color algebra: constants for x . w.

    ``left`` maps (i, w) to e_i . w_w, taken as a dense list or a dict and
    stored as a sparse row {t: nonzero scalar}, as in :class:`Bimodule`.
    """

    def __init__(self, lie: LieColorAlgebra, space: GradedSpace, left):
        self.lie = lie
        self.space = space
        self.left = _clean_action(
            left, lie.space, space, lambda i, w: (i, w), "left")


def validate_left_module(W: LieModule):
    """Violations of the left-module law [x,y]w = x(yw) - eps(|x|,|y|) y(xw),
    in (x, y, w) order.  The pairs (x, y) and (y, x) read the same two
    products x(yw) and y(xw), so each is computed once for both."""
    L = W.lie
    n, m = L.dim, W.space.dim
    degs, Wl = L.space.degrees, W.left
    # the bracket rows as sparse rows, once per call
    P = {key: dict(_entries(row)) for key, row in L.products.items()}
    found = {}
    for i in range(n):
        for j in range(i, n):
            e_ij = L.eps(degs[i], degs[j])
            e_ji = e_ij if i == j else L.eps(degs[j], degs[i])
            for w in range(m):
                xy = {}  # x_i (x_j w)
                _through(xy, _ONE, Wl.get((j, w)), lambda t: Wl.get((i, t)))
                if i == j:
                    pairs = ((i, j, e_ij, xy, xy),)
                else:
                    yx = {}  # x_j (x_i w)
                    _through(yx, _ONE, Wl.get((i, w)),
                             lambda t: Wl.get((j, t)))
                    pairs = ((i, j, e_ij, xy, yx), (j, i, e_ji, yx, xy))
                for a, b, e, ab, ba in pairs:
                    r = {}
                    _through(r, _ONE, P.get((a, b)), lambda t: Wl.get((t, w)))
                    _axpy(r, _MINUS_ONE, ab)
                    _axpy(r, e, ba)
                    if r:
                        found[(a, b, w)] = r
    return [(("module", L.space.names[a], L.space.names[b],
              W.space.names[w]), _residuals(W.space, r))
            for (a, b, w), r in sorted(found.items())]


def lie_module_from_bimodule(L: LieColorAlgebra, B: Bimodule) -> LieModule:
    """View a right-trivial bimodule's left action as a module over L.

    For right-trivial bimodules axiom bm1 is literally the left-module law
    over the commutator bracket, so this is just a reinterpretation.
    """
    if not is_right_trivial(B):
        raise BimoduleError("only right-trivial bimodules restrict to left "
                            "modules this way")
    return LieModule(L, B.space, B.left)
