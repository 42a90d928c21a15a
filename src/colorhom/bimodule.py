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
    _compose_tables,
    _eps_swap,
    _residuals,
    exterior_basis,
    hom_space,
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
    """Violations of bm1/bm2 on all basis triples; empty list means valid.

    The three associators are composed once per call, each a dict keyed by
    its triple: (xy)w - x(yw), (xw)y - x(wy) and (wx)y - w(xy).  A triple
    (x, y, w) is visited only where some term of bm1 or bm2 is nonzero,
    in basis order, bm1 before bm2."""
    eps, P, Vl, Vr = A.eps, A.rows, V.left, V.right
    adeg, vdeg = A.space.degrees, V.space.degrees
    left, mid, right = {}, {}, {}
    _compose_tables(left, _ONE, P, Vl, True)
    _compose_tables(left, _MINUS_ONE, Vl, Vl, False)
    _compose_tables(mid, _ONE, Vl, Vr, True)
    _compose_tables(mid, _MINUS_ONE, Vr, Vl, False)
    _compose_tables(right, _ONE, Vr, Vr, True)
    _compose_tables(right, _MINUS_ONE, P, Vr, False)
    # bm1: (xy)w - x(yw) vs eps(|x|,|y|)((yx)w - y(xw))
    bm1 = _eps_swap(left, eps, adeg, -1)
    triples = set(bm1)
    triples.update((i, j, w) for i, w, j in mid)
    triples.update((i, j, w) for w, i, j in right)
    out = []
    for i, j, w in sorted(triples):
        r = bm1.get((i, j, w))
        if r:
            out.append((("bm1", A.space.names[i], A.space.names[j],
                         V.space.names[w]), _residuals(V.space, r)))
        # bm2: (xw)y - x(wy) vs eps(|x|,|w|)((wx)y - w(xy))
        r = {}
        _axpy(r, _ONE, mid.get((i, w, j)))
        _axpy(r, -eps(adeg[i], vdeg[w]), right.get((w, i, j)))
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
    """C^n(A,V) for n >= 1: the first n-1 arguments are alternating, the
    last is unconstrained.  It is built curried, as
    Hom(Lambda^{n-1} A, Hom(A,V)), which is C^{n-1}([A], C^1(A,V)): the
    elementary cochain (word w, last argument e_l => v_t) sits at
    (w * dim A + l) * dim V + t, and its degree is |v_t| - |e_l| - |w|.

    The space keeps its factors (see :func:`~colorhom.glinalg.hom_space`):
    ``factors[0]`` is the word basis of Lambda^{n-1} A, built here once,
    and the coboundaries of both towers into and out of C^n read it
    there."""
    if n < 1:
        raise ValueError("cochain_space covers n >= 1 only")
    wedge = exterior_basis(A.space, n - 1, A.eps)
    return hom_space(wedge, hom_space(A.space, V.space))


def cochain_module_action(A: ColorAlgebra, V: Bimodule) -> Bimodule:
    """Right-trivial left action of A on C^1(A,V) = Hom(A,V), the
    coefficient module of the main theorem:

      (x f)(z) = x f(z) - eps(|x|,|f|) f(xz) + eps(|x|,|f|) f(x) z.
    """
    C = cochain_space(A, V, 1)
    n_a, m = A.dim, V.space.dim
    # (x, l0) -> the arguments z with e_l0 in x e_z, and that coefficient;
    # each product entry is read once
    hits = {}
    for (a, z), row in A.rows.items():
        for l0, c in row.items():
            hits.setdefault((a, l0), []).append((z, c))
    left = {}
    for a in range(n_a):
        da = A.space.degrees[a]
        for l0 in range(n_a):
            hits_at = hits.get((a, l0), ())
            for v0 in range(m):
                # C^1 = Hom(wedge^0 A, Hom(A,V)) is row-major: the map
                # e_l0 => v_v0 sits at l0 * m + v0
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
                for z, c in hits_at:
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
    for L acting through ``W.left``, in (x, y, w) order.  Like bm1 it is
    one :func:`~colorhom.glinalg._eps_swap`: -x(yw) is composed once per
    call and swapped, so the pairs (x, y) and (y, x) share it, then [x,y]w
    is added, and a triple is visited only where some term is nonzero."""
    Wl = W.left
    acc = {}
    _compose_tables(acc, _MINUS_ONE, Wl, Wl, False)
    res = _eps_swap(acc, L.eps, L.space.degrees, -1)
    _compose_tables(res, _ONE, L.rows, Wl, True)
    return [(("module", L.space.names[a], L.space.names[b], W.space.names[w]),
             _residuals(W.space, res[a, b, w])) for a, b, w in sorted(res)]
