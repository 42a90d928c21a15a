"""Bimodules over a left-symmetric color algebra.

The two defining axioms, on homogeneous x, y in A and w in V:

  bm1:  (xy)w - x(yw) = eps(|x|,|y|) ((yx)w - y(xw))
  bm2:  (xw)y - x(wy) = eps(|x|,|w|) ((wx)y - w(xy))

Constructors cover the natural bimodule (A acting on itself), the trivial
one, and the right-trivial action on C^1(A,V) = Hom(A,V), the coefficient
module of the main theorem.  Each module is built one way only.
A module is its action tables, one sparse {index: nonzero scalar} row per
pair of basis elements; the acting algebra is passed beside it.  For a
right-trivial module, bm1 is the left-module law over the commutator
bracket, so the Lie tower reads its ``left`` table as it is.  Cochain
spaces are row-major (see :func:`~colorhom.glinalg.hom_space`), so their
basis indices are computed, not looked up.
"""

from __future__ import annotations

from .algebra import ColorAlgebra, LieColorAlgebra
from .glinalg import (
    GradedSpace,
    _axpy,
    _residuals,
    _through,
    exterior_basis,
    hom_space,
    tensor_space,
)
from .scalars import CycScalar

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()
_MINUS_ONE = -_ONE


class BimoduleError(ValueError):
    pass


class Bimodule:
    """Left and right action constants of an algebra on a graded space.

    ``left`` maps (i, w) to the V-vector e_i . v_w; ``right`` maps (w, i) to
    v_w . e_i.  The constructor takes each vector as a dict {t: scalar}
    over the basis indices of V and stores it as a sparse row
    {t: nonzero scalar} in ascending t; zero rows and absent keys act as
    zero.  Both actions must respect the grading: A_a V_b lies in V_{a+b}
    and symmetrically.  ``algebra`` is read for that check only; over a Lie
    color algebra with ``right`` empty this is a left module.
    """

    def __init__(self, algebra: ColorAlgebra, space: GradedSpace, left, right):
        self.space = space
        self.left = _clean_action(
            left, algebra.space, space, lambda i, w: (i, w), "left")
        self.right = _clean_action(
            right, algebra.space, space, lambda w, i: (i, w), "right")

    def __repr__(self):
        return (f"Bimodule(dim={self.space.dim}, |left|={len(self.left)}, "
                f"|right|={len(self.right)})")


def _clean_action(raw, aspace, vspace, keyfun, label):
    """The sparse store of an action table given with {t: scalar} rows:
    zeros and zero rows dropped, keys in ascending order.  A row that is not
    a dict, or has a key outside the basis of V, is refused as having the
    wrong length; grading violations are refused too, checked in ascending
    t."""
    out = {}
    dim = vspace.dim
    for key, vec in raw.items():
        if not (isinstance(vec, dict)
                and all(type(t) is int and 0 <= t < dim for t in vec)):
            raise BimoduleError(
                f"{label} action vector at {key} has wrong length")
        row = {t: vec[t] for t in sorted(vec) if not vec[t].is_zero()}
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

def validate_bimodule(A: ColorAlgebra, V: Bimodule):
    """Violations of bm1/bm2 on all basis triples; empty list means valid."""
    n, m = A.dim, V.space.dim
    eps, P, Vl, Vr = A.eps, A.rows, V.left, V.right
    out = []
    for i in range(n):
        di = A.space.degrees[i]
        e_iw = [eps(di, dw) for dw in V.space.degrees]
        neg_e_iw = [-e for e in e_iw]
        for j in range(n):
            e_ij = eps(di, A.space.degrees[j])
            neg_e_ij = -e_ij
            for w in range(m):
                # bm1: (xy)w - x(yw) vs eps(|x|,|y|)((yx)w - y(xw))
                r = {}
                _through(r, _ONE, P.get((i, j)), lambda t: Vl.get((t, w)))
                _through(r, _MINUS_ONE, Vl.get((j, w)), lambda t: Vl.get((i, t)))
                _through(r, neg_e_ij, P.get((j, i)), lambda t: Vl.get((t, w)))
                _through(r, e_ij, Vl.get((i, w)), lambda t: Vl.get((j, t)))
                if r:
                    out.append((("bm1", A.space.names[i], A.space.names[j],
                                 V.space.names[w]), _residuals(V.space, r)))
                # bm2: (xw)y - x(wy) vs eps(|x|,|w|)((wx)y - w(xy))
                r = {}
                _through(r, _ONE, Vl.get((i, w)), lambda t: Vr.get((t, j)))
                _through(r, _MINUS_ONE, Vr.get((w, j)), lambda t: Vl.get((i, t)))
                _through(r, neg_e_iw[w], Vr.get((w, i)), lambda t: Vr.get((t, j)))
                _through(r, e_iw[w], P.get((i, j)), lambda t: Vr.get((w, t)))
                if r:
                    out.append((("bm2", A.space.names[i], V.space.names[w],
                                 A.space.names[j]), _residuals(V.space, r)))
    return out


# ---------------------------------------------------------------------------
# constructors

def natural_bimodule(A: ColorAlgebra) -> Bimodule:
    """A acting on itself by its own product on both sides."""
    return Bimodule(A, A.space, A.rows, A.rows)


def trivial_bimodule(A: ColorAlgebra) -> Bimodule:
    """One-dimensional space u of degree 0 with both actions zero."""
    G = A.space.group
    return Bimodule(A, GradedSpace(G, [("u", G.zero)]), {}, {})


# ---------------------------------------------------------------------------
# cochain spaces and the module structure on them

def cochain_space(A: ColorAlgebra, V: Bimodule, n: int) -> GradedSpace:
    """C^n(A,V) = Hom((Lambda^{n-1} A) (x) A, V) for n >= 1: the first n-1
    arguments are alternating, the last is unconstrained."""
    if n < 1:
        raise ValueError("cochain_space covers n >= 1 only")
    wedge = exterior_basis(A.space, n - 1, A.eps)
    return hom_space(tensor_space(wedge, A.space), V.space)


def cochain_module_action(A: ColorAlgebra, V: Bimodule) -> Bimodule:
    """Right-trivial left action of A on C^1(A,V) = Hom(A,V), the
    coefficient module of the main theorem:

      (x f)(z) = x f(z) - eps(|x|,|f|) f(xz) + eps(|x|,|f|) f(x) z.
    """
    C = cochain_space(A, V, 1)
    n_a, m, P = A.dim, V.space.dim, A.rows
    left = {}
    for a in range(n_a):
        da = A.space.degrees[a]
        for l0 in range(n_a):
            # the arguments z with e_l0 in x e_z, and that coefficient
            hits = []
            for z in range(n_a):
                row = P.get((a, z))
                if row is not None and l0 in row:
                    hits.append((z, row[l0]))
            for v0 in range(m):
                # C^1 is row-major: [e_l0 => v_v0] sits at l0 * m + v0
                h = l0 * m + v0
                e_f = A.eps(da, C.degrees[h])
                # a sparse row; entries that cancel are dropped by Bimodule
                out = {}

                # x f(z): add x . v0 at the same argument
                for t, c in V.left.get((a, v0), {}).items():
                    out[l0 * m + t] = c

                # the other terms read f at a modified argument, so they land
                # at every argument z whose modification reaches e_l0

                # -eps(|x|,|f|) f(xz): need (x e_z) to hit e_l0
                for z, c in hits:
                    k = z * m + v0
                    out[k] = out.get(k, _ZERO) - e_f * c

                # +eps(|x|,|f|) f(x) z
                if a == l0:
                    for z in range(n_a):
                        for t, c in V.right.get((v0, z), {}).items():
                            k = z * m + t
                            out[k] = out.get(k, _ZERO) + e_f * c

                if out:
                    left[(a, h)] = out
    return Bimodule(A, C, left, {})


# ---------------------------------------------------------------------------
# left modules over a Lie color algebra

def validate_left_module(L: LieColorAlgebra, W: Bimodule):
    """Violations of the left-module law [x,y]w = x(yw) - eps(|x|,|y|) y(xw)
    for L acting through ``W.left``, in (x, y, w) order.  The pairs (x, y)
    and (y, x) read the same products x(yw) and y(xw), computed once."""
    n, m = L.dim, W.space.dim
    degs, P, Wl = L.space.degrees, L.rows, W.left
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

