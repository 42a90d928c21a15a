"""Color algebras from structure constants, identity validators, the
eps-commutator and the nilpotency test of left multiplications.

A ColorAlgebra stores e_i e_j = sum_k c_ij^k e_k with every c_ij^k a
CycScalar; grading compatibility (|e_i e_j| = |e_i| + |e_j|) is enforced at
construction.  Validators evaluate the defining identities on basis triples,
which is exhaustive because the identities are multilinear.
"""

from __future__ import annotations

from .glinalg import GradedSpace, _axpy, _entries, _residuals, _through
from .grading import Bicharacter
from .scalars import CycScalar

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


class AlgebraError(ValueError):
    pass


class ColorAlgebra:
    """Graded algebra with product given on basis pairs.

    ``products`` maps (i, j) to a dense coefficient vector over the basis;
    absent pairs multiply to zero.
    """

    def __init__(self, space: GradedSpace, eps: Bicharacter, products):
        self.space = space
        self.eps = eps
        clean = {}
        n = space.dim
        for (i, j), vec in products.items():
            vec = list(vec)
            if len(vec) != n:
                raise AlgebraError(f"product vector for ({i},{j}) has wrong length")
            entries = _entries(vec)
            if not entries:
                continue
            target = space.degrees[i] + space.degrees[j]
            for k, c in entries:
                if space.degrees[k] is not target:
                    raise AlgebraError(
                        f"grading violation: {space.names[i]}*{space.names[j]} "
                        f"hits {space.names[k]} of degree {space.degrees[k]}, "
                        f"expected {target}")
            clean[(i, j)] = vec
        self.products = clean

    @property
    def dim(self) -> int:
        return self.space.dim

    def __repr__(self):
        return f"ColorAlgebra(dim={self.dim}, |products|={len(self.products)})"


class LieColorAlgebra(ColorAlgebra):
    """Same storage as ColorAlgebra; the product is the bracket."""


def lie_from_brackets(space, eps, brackets) -> LieColorAlgebra:
    """Build a Lie color algebra from brackets on ordered pairs, filling the
    mirrored pairs by eps-skew-symmetry: [y,x] = -eps(|y|,|x|) [x,y]."""
    full = {}
    for (i, j), vec in brackets.items():
        full[(i, j)] = list(vec)
    for (i, j), vec in list(full.items()):
        if (j, i) not in full and i != j:
            s = -eps(space.degrees[j], space.degrees[i])
            full[(j, i)] = [s * c for c in vec]
    return LieColorAlgebra(space, eps, full)


# ---------------------------------------------------------------------------
# validators

def validate_left_symmetric(A: ColorAlgebra):
    """Violations of (xy)z - x(yz) = eps(|x|,|y|)((yx)z - y(xz)) on basis
    triples; the empty list means the identity holds."""
    n = A.dim
    space, eps = A.space, A.eps
    # the product rows as sparse rows, once per call
    P = {key: dict(_entries(row)) for key, row in A.products.items()}
    out = []
    for i in range(n):
        for j in range(n):
            e = eps(space.degrees[i], space.degrees[j])
            for k in range(n):
                # (xy)z - x(yz) - eps((yx)z - y(xz)) at x, y, z = e_i, e_j, e_k
                r = {}
                _through(r, _ONE, P.get((i, j)), lambda t: P.get((t, k)))
                _through(r, -_ONE, P.get((j, k)), lambda t: P.get((i, t)))
                _through(r, -e, P.get((j, i)), lambda t: P.get((t, k)))
                _through(r, e, P.get((i, k)), lambda t: P.get((j, t)))
                if r:
                    out.append(((space.names[i], space.names[j], space.names[k]),
                                _residuals(space, r)))
    return out


def validate_lie_color(L: LieColorAlgebra):
    """Violations of eps-skew-symmetry and the eps-Jacobi identity."""
    n = L.dim
    space, eps = L.space, L.eps
    # the bracket rows as sparse rows, once per call
    P = {key: dict(_entries(row)) for key, row in L.products.items()}
    out = []
    for i in range(n):
        for j in range(n):
            r = {}
            _axpy(r, _ONE, P.get((i, j)))
            _axpy(r, eps(space.degrees[i], space.degrees[j]), P.get((j, i)))
            if r:
                out.append((("skew", space.names[i], space.names[j]),
                            _residuals(space, r)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                di, dj, dk = space.degrees[i], space.degrees[j], space.degrees[k]
                r = {}
                for (a, b, c), (da, dc) in (((i, j, k), (di, dk)),
                                            ((j, k, i), (dj, di)),
                                            ((k, i, j), (dk, dj))):
                    # eps(|c|,|a|) [[a,b],c]
                    _through(r, eps(dc, da), P.get((a, b)),
                             lambda t: P.get((t, c)))
                if r:
                    out.append((("jacobi", space.names[i], space.names[j],
                                 space.names[k]), _residuals(space, r)))
    return out


# ---------------------------------------------------------------------------
# constructions

def commutator_algebra(A: ColorAlgebra, force: bool = False) -> LieColorAlgebra:
    """The eps-commutator bracket [x,y] = xy - eps(|x|,|y|) yx.

    Left-symmetry guarantees the result is a Lie color algebra, so input
    failing the validator is refused unless ``force`` is set (useful for
    reproducing bracket tables printed next to a defective product table).
    """
    if not force:
        bad = validate_left_symmetric(A)
        if bad:
            raise AlgebraError(
                f"input is not left-symmetric ({len(bad)} violating triples); "
                f"pass force=True to build the bracket anyway")
    space, eps, P = A.space, A.eps, A.products
    zero = [_ZERO] * A.dim
    brackets = {}
    for i in range(A.dim):
        for j in range(A.dim):
            if (i, j) not in P and (j, i) not in P:
                continue
            e = eps(space.degrees[i], space.degrees[j])
            # a bracket that vanishes is dropped by ColorAlgebra
            brackets[(i, j)] = [
                a - e * b for a, b in zip(P.get((i, j), zero), P.get((j, i), zero))]
    return LieColorAlgebra(space, eps, brackets)


def left_mult_nilpotent(A: ColorAlgebra) -> bool:
    """True iff every basis left multiplication y -> e_i y is nilpotent.

    The nilpotency index of an endomorphism of an n-dimensional space is at
    most n, so the n-th power decides: each basis vector, pushed n times
    through y -> e_i y as a sparse vector, must end at zero.
    """
    n, P = A.dim, A.products
    for i in range(n):
        for j in range(n):
            v = {j: _ONE}
            for _ in range(n):
                w = {}
                _through(w, _ONE, v, lambda t: P.get((i, t)))
                v = w
            if v:
                return False
    return True

