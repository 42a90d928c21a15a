"""Color algebras from structure constants, identity validators, the
eps-commutator and the nilpotency test of left multiplications.

A ColorAlgebra stores e_i e_j = sum_k c_ij^k e_k with every c_ij^k a
CycScalar; grading compatibility (|e_i e_j| = |e_i| + |e_j|) is enforced at
construction.  Validators evaluate the defining identities on basis triples,
which is exhaustive because the identities are multilinear; each composes
the stored tables once per call (``glinalg._compose_tables``), so a
residual is formed only at a triple where some term is nonzero.  The
left-symmetric identity, eps-skew-symmetry and the eps-commutator swap
two arguments and twist by eps; each is one ``glinalg._eps_swap``.
"""

from __future__ import annotations

from .glinalg import GradedSpace, _axpy, _compose_tables, _eps_swap, _residuals
from .grading import Bicharacter
from .scalars import CycScalar

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()
_MINUS_ONE = -_ONE


class AlgebraError(ValueError):
    pass


class ColorAlgebra:
    """Graded algebra with product given on basis pairs.

    ``products`` maps (i, j) to a dense list or tuple of CycScalar over the
    basis.  The main path reads ``rows``, the same pairs as sparse rows
    {k: nonzero scalar}, keys ascending; zero rows are dropped from both,
    and absent pairs multiply to zero.
    """

    def __init__(self, space: GradedSpace, eps: Bicharacter, products):
        self.space = space
        self.eps = eps
        dense, rows = {}, {}
        n = space.dim
        for (i, j), vec in products.items():
            if not (isinstance(vec, (list, tuple))
                    and all(isinstance(c, CycScalar) for c in vec)):
                raise AlgebraError(
                    f"product vector for ({i},{j}) is not a list of scalars")
            if len(vec) != n:
                raise AlgebraError(f"product vector for ({i},{j}) has wrong length")
            row = {k: c for k, c in enumerate(vec) if not c.is_zero()}
            if not row:
                continue
            target = space.degrees[i] + space.degrees[j]
            for k in row:
                if space.degrees[k] is not target:
                    raise AlgebraError(
                        f"grading violation: {space.names[i]}*{space.names[j]} "
                        f"hits {space.names[k]} of degree {space.degrees[k]}, "
                        f"expected {target}")
            dense[(i, j)] = list(vec)
            rows[(i, j)] = row
        self.products = dense
        self.rows = rows

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
    triples; the empty list means the identity holds.  The associators
    (xy)z - x(yz) are composed once per call from the stored products, and
    a residual is formed only at a triple where one of the two associators
    it reads is nonzero."""
    space, P = A.space, A.rows
    assoc = {}
    _compose_tables(assoc, _ONE, P, P, True)
    _compose_tables(assoc, _MINUS_ONE, P, P, False)
    # a(x, y, z) - eps(|x|,|y|) a(y, x, z) at x, y, z = e_i, e_j, e_k
    return [((space.names[i], space.names[j], space.names[k]),
             _residuals(space, r))
            for (i, j, k), r in _eps_swap(assoc, A.eps, space.degrees, -1).items()]


def validate_lie_color(L: LieColorAlgebra):
    """Violations of eps-skew-symmetry and the eps-Jacobi identity.  The
    double brackets [[x,y],z] are composed once per call, and each check
    visits only the pairs and triples where some term is nonzero."""
    space, eps, P = L.space, L.eps, L.rows
    degs = space.degrees
    # [x,y] + eps(|x|,|y|) [y,x]
    out = [(("skew", space.names[i], space.names[j]), _residuals(space, r))
           for (i, j), r in _eps_swap(P, eps, degs, 1).items()]
    double = {}
    _compose_tables(double, _ONE, P, P, True)
    triples = set()
    for a, b, c in double:
        triples.update(((a, b, c), (c, a, b), (b, c, a)))
    for i, j, k in sorted(triples):
        r = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            # eps(|c|,|a|) [[a,b],c]
            v = double.get((a, b, c))
            if v:
                _axpy(r, eps(degs[c], degs[a]), v)
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
    brackets = {}
    for key, r in _eps_swap(A.rows, A.eps, A.space.degrees, -1).items():
        # ColorAlgebra takes dense rows
        vec = [_ZERO] * A.dim
        for k, c in r.items():
            vec[k] = c
        brackets[key] = vec
    return LieColorAlgebra(A.space, A.eps, brackets)


def left_mult_nilpotent(A: ColorAlgebra) -> bool:
    """True iff every basis left multiplication y -> e_i y is nilpotent.

    The nilpotency index of an endomorphism of an n-dimensional space is at
    most n, so the n-th power decides: each basis vector, pushed n times
    through y -> e_i y as a sparse vector, must end at zero.
    """
    n, P = A.dim, A.rows
    for i in range(n):
        for j in range(n):
            v = {j: _ONE}
            for _ in range(n):
                w = {}
                for t, c in v.items():
                    _axpy(w, c, P.get((i, t)))
                v = w
            if v:
                return False
    return True

