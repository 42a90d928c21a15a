"""Cochain complexes and cohomology of left-symmetric color algebras.

Two complexes are built from structure constants:

* the left-symmetric complex C^n(A,V) = Hom(Lambda^{n-1} A, Hom(A,V)) with
  the four-sum coboundary d_n (first n-1 arguments alternating, last free),
* the Lie color complex C^n(L,W) = Hom(Lambda^n L, W) with the two-sum
  coboundary delta_n.

Both differentials preserve the G-degree of cochains, so every matrix is
assembled per degree block and all ranks and kernels are exact.  The map
phi f(x_1,...,x_n)(x) = f(x_1,...,x_n,x) identifies the two towers; since
C^{n+1}(A,V) is built as C^n([A], C^1(A,V)), phi is the identity map of
one space.  The intertwining identity delta o phi = phi o d is then the
exact equality of the stored rows of delta and d, which the theorem check
reads without building phi; it is the arbiter for sign bookkeeping.  The
eps-derivations A -> V are read off the tower as ker d_1.

A deliberately naive second implementation (raw multilinear arrays, no
exterior reduction) provides an independent oracle for the dimension tables.
"""

from __future__ import annotations

import warnings

from .algebra import ColorAlgebra, LieColorAlgebra, commutator_algebra, validate_left_symmetric
from .bimodule import (
    Bimodule,
    cochain_module_action,
    cochain_space,
    validate_left_module,
)
from .glinalg import (
    GradedMap,
    GradedSpace,
    _axpy,
    _compose_tables,
    _kernel_space,
    exact_rank,
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


class CohomologyError(ValueError):
    pass


class NonComplexWarning(UserWarning):
    """The coboundary sequence about to be built may fail d_{n+1} d_n = 0.

    Raised-as-warning rather than refused: the matrices themselves are well
    defined and their dimension tables are still meaningful as computed
    values, but the cocycle/coboundary interpretation needs the flagged
    assumption.
    """


def _sign(i):
    # (-1)^(i+1) for 1-based i
    return _ONE if i % 2 == 1 else _MINUS_ONE


# ---------------------------------------------------------------------------
# left-symmetric cochain tower

def invariant_subspace(A: ColorAlgebra, V: Bimodule) -> GradedSpace:
    """C^0(A,V) = {v in V : (xy)v = x(yv) for all x, y}, as an exact kernel.

    The convention makes d_1 d_0 = 0 come out exactly.  When A is
    associative, (xy)v = x(yv) on its natural bimodule, so C^0 is all of
    V there; a left-symmetric algebra that is not associative can have a
    smaller C^0 on its natural bimodule.  The defect (xy)v - x(yv) is
    composed once per call from the stored tables, so only the triples
    where it is nonzero are visited, and its target space is built only
    when it is nonzero.  Each basis element's meta holds its
    coordinates over V, as a sparse {index: scalar} vector.
    """
    P, Vl = A.rows, V.left
    n, m = A.dim, V.space.dim
    assoc = {}
    _compose_tables(assoc, _ONE, P, Vl, True)
    _compose_tables(assoc, _MINUS_ONE, Vl, Vl, False)
    # a zero defect has no rows, so V serves as its target
    target = (hom_space(tensor_space(A.space, A.space), V.space) if assoc
              else V.space)
    defect = GradedMap(V.space, target)
    # (e_i e_j) w - e_i (e_j w), on the rows (e_i (x) e_j => v_t)
    for i, j, w in sorted(assoc):
        for t, c in assoc[i, j, w].items():
            defect.add((i * n + j) * m + t, w, c)
    return _kernel_space(defect, "v")


def lsca_cochain_basis(A: ColorAlgebra, V: Bimodule, n: int) -> GradedSpace:
    """Basis of C^n(A,V); n = 0 is the invariant subspace of V."""
    if n < 0:
        raise ValueError("cochain level must be nonnegative")
    if n == 0:
        return invariant_subspace(A, V)
    return cochain_space(A, V, n)


def lsca_coboundary(A: ColorAlgebra, V: Bimodule, n: int,
                    src: GradedSpace = None, dst: GradedSpace = None) -> GradedMap:
    """The matrix of d_n : C^n(A,V) -> C^{n+1}(A,V).

    d_0(v)(x) = vx - eps(|v|,|x|) xv.  For n >= 1 the four-sum formula

      (d_n f)(x_1,...,x_{n+1}) =
          sum_i (-1)^(i+1) eps(|f|+|x_1..x_{i-1}|,|x_i|) x_i f(..^i.., x_{n+1})
        + sum_i (-1)^(i+1) eps(|x_i|,|x_{i+1}..x_n|) f(..^i.., x_i) x_{n+1}
        - sum_i (-1)^(i+1) eps(|x_i|,|x_{i+1}..x_n|) f(..^i.., x_i x_{n+1})
        + sum_{j<i} (-1)^(i+1) eps(|x_{j+1}..x_{i-1}|,|x_i|)
                              f(x_1,..,[x_j,x_i],..,^i,..,x_{n+1})

    with i, j running over the first n (alternating) arguments; every eps at
    a summed degree is expanded as a product of pairwise values.

    Each quantity is computed at the loop level it depends on.  Once per
    call: the bracket table, and the action rows of V by acting letter and
    by last argument (the product rows are read as ``A.rows`` stores
    them).  Once per (word, position i): the remaining word, the sign, the
    eps prefactors of terms 1 to 3, and term 4 (one ``straighten`` per
    bracket entry).  Only the placement at each last argument, and term 1's
    eps(|f|, |x_i|), which depends on the column, run dim A times per
    (word, i).  Each row receives its contributions in order of i, then of
    the four terms.

    The word bases of Lambda^{n-1} A and Lambda^n A are the ones ``src``
    and ``dst`` were built from (see
    :func:`~colorhom.bimodule.cochain_space`), so a tower builds each
    once; called without them, d_n builds both cochain spaces, and so
    each word basis, once.  C^{n+1}(A,V) is built as C^n([A], C^1(A,V)),
    so d_n and delta_{n-1} can share their spaces.
    """
    src = src if src is not None else lsca_cochain_basis(A, V, n)
    dst = dst if dst is not None else lsca_cochain_basis(A, V, n + 1)
    eps = A.eps
    aspace = A.space
    n_a, m = A.dim, V.space.dim
    d = GradedMap(src, dst)

    # C^k = Hom(wedge^{k-1} A, Hom(A,V)) is row-major at both levels: the
    # elementary map (word w, last argument e_l => v_t) sits at
    # (w * dim A + l) * dim V + t
    if n == 0:
        # target C^1 = Hom(wedge^0 A, Hom(A,V)); wedge^0 A has the one word ()
        for col in range(src.dim):
            coords = src.meta[col]
            dv = src.degrees[col]
            for x in range(A.dim):
                # v x, then -eps(|v|,|x|) x v
                r = {}
                for w, c in coords.items():
                    _axpy(r, c, V.right.get((w, x)))
                e = -eps(dv, aspace.degrees[x])
                for w, c in coords.items():
                    _axpy(r, e * c, V.left.get((x, w)))
                for t, c in r.items():
                    d.add(x * m + t, col, c)
        return d

    # C^k = Hom(wedge^{k-1} A, Hom(A,V)) keeps its factors
    wedge_src = src.factors[0]
    wedge_dst = dst.factors[0]
    swidx = wedge_src.meta_index()
    # term 4 needs j < i <= n, so only n >= 2 reads the bracket
    brackets = commutator_algebra(A, force=True).rows if n >= 2 else {}
    # the action rows by acting letter (left) and by last argument (right),
    # as [(v, items)] in ascending v
    Vl, Vr = V.left, V.right
    lefts = [[(v, Vl[x, v].items()) for v in range(m) if (x, v) in Vl]
             for x in range(n_a)]
    rights = [[(v, Vr[v, last].items()) for v in range(m) if (v, last) in Vr]
              for last in range(n_a)]
    P = A.rows
    block = n_a * m

    for wi in range(wedge_dst.dim):
        W = wedge_dst.meta[wi]
        degs = [aspace.degrees[i] for i in W]
        # the rows of d at (W, last) are (wi * dim A + last) * dim V + t, t
        # over the basis of V; the columns at (word, last) likewise
        rows0 = wi * block
        for i1 in range(1, n + 1):
            i = i1 - 1
            x = W[i]
            base = swidx[W[:i] + W[i + 1:]] * block
            sign = _sign(i1)
            # term 1 carries eps(|x_1..x_{i-1}|, |x_i|); terms 2 and 3 share
            # eps(|x_i|, |x_{i+1}..x_n|)
            pre1 = sign * _eps_pairwise(eps, degs[:i], (degs[i],))
            pre23 = sign * _eps_pairwise(eps, (degs[i],), degs[i + 1:])
            # term 4: f(.., [x_j, x_i] at j, .., ^i, .., x_{n+1}), j < i, as
            # (column of (canonical word, last 0, v 0), value) pairs
            term4 = []
            for j in range(i):
                bracket = brackets.get((W[j], x))
                if bracket is None:
                    continue
                e_mid = _eps_pairwise(eps, degs[j + 1:i], (degs[i],))
                for k, c in bracket.items():
                    modified = W[:j] + (k,) + W[j + 1:i] + W[i + 1:]
                    st = straighten(aspace, modified, eps)
                    if st is None:
                        continue
                    coeff, canon = st
                    term4.append((swidx[canon] * block,
                                  sign * e_mid * c * coeff))
            for last in range(n_a):
                row0 = rows0 + last * m
                # term 1: x_i . f(..^i.., x_{n+1}); the eps(|f|, x_i) part
                # depends on the column
                col0 = base + last * m
                for v, items in lefts[x]:
                    col = col0 + v
                    e_f = pre1 * eps(src.degrees[col], degs[i])
                    for t, c in items:
                        d.add(row0 + t, col, e_f * c)
                # term 2: f(..^i.., x_i) . x_{n+1}
                col0 = base + x * m
                for v, items in rights[last]:
                    for t, c in items:
                        d.add(row0 + t, col0 + v, pre23 * c)
                # term 3: -f(..^i.., x_i x_{n+1})
                for k, c in P.get((x, last), {}).items():
                    val, col0 = -(pre23 * c), base + k * m
                    for v in range(m):
                        d.add(row0 + v, col0 + v, val)
                # term 4, at this last argument
                for col0, val in term4:
                    col0 += last * m
                    for v in range(m):
                        d.add(row0 + v, col0 + v, val)
    return d


def epsilon_derivations(A: ColorAlgebra, V: Bimodule) -> GradedSpace:
    """The eps-derivations A -> V, maps with
    f(x1 x2) = f(x1) x2 + eps(|f|,|x1|) x1 f(x2), as ker d_1.

    (d_1 f)(x1, x2) is the right side of that law minus the left, so the
    derivations are exactly the 1-cocycles.  Each basis element's meta holds
    its coordinates over the elementary-hom basis of C^1(A,V) = Hom(A,V),
    as a sparse {index: scalar} vector.
    """
    return _kernel_space(lsca_coboundary(A, V, 1), "D")


# ---------------------------------------------------------------------------
# Lie color cochain tower

def lie_cochain_basis(L: LieColorAlgebra, W: Bimodule, n: int) -> GradedSpace:
    """C^n(L,W) = Hom(Lambda^n L, W); n = 0 gives W itself.  The word
    basis of Lambda^n L is built here once and kept as ``factors[0]``."""
    if n < 0:
        raise ValueError("cochain level must be nonnegative")
    return hom_space(exterior_basis(L.space, n, L.eps), W.space)


def lie_coboundary(L: LieColorAlgebra, W: Bimodule, n: int,
                   src: GradedSpace = None, dst: GradedSpace = None) -> GradedMap:
    """The matrix of delta_n : C^n(L,W) -> C^{n+1}(L,W):

      (delta_n f)(x_1,...,x_{n+1}) =
          sum_i (-1)^(i+1) eps(|f|+|x_1..x_{i-1}|,|x_i|) x_i f(..^i..)
        + sum_{j<i} (-1)^(i+1) eps(|x_{j+1}..x_{i-1}|,|x_i|)
                                f(x_1,..,[x_j,x_i],..,^i,..,x_{n+1})

    W's left action is read as an action of L, as given.  Without the left-module law neither
    delta o delta = 0 nor the intertwining identity holds, so the callers
    (build_lie_complex, verify_main_theorem) validate W once beforehand.

    The word bases of Lambda^n L and Lambda^{n+1} L are the ones ``src``
    and ``dst`` were built from, as on the left-symmetric side: a space of
    :func:`lie_cochain_basis`, or, for W = C^1(A,V) and L = [A], the
    left-symmetric C^{n+1}(A,V) (see
    :func:`~colorhom.bimodule.cochain_space`), which is the same space.
    """
    src = src if src is not None else lie_cochain_basis(L, W, n)
    dst = dst if dst is not None else lie_cochain_basis(L, W, n + 1)
    eps = L.eps
    lspace = L.space
    delta = GradedMap(src, dst)

    # C^k = Hom(wedge^k L, W) keeps its factors
    wedge_src = src.factors[0]
    wedge_dst = dst.factors[0]
    swidx = wedge_src.meta_index()

    # C^k = Hom(wedge^k L, W) is row-major: (word u => w_t) sits at u * m + t
    m = W.space.dim
    # the action rows by acting letter, as [(w, items)] in ascending w
    Wl = W.left
    lefts = [[(w, Wl[x, w].items()) for w in range(m) if (x, w) in Wl]
             for x in range(lspace.dim)]
    for ui in range(wedge_dst.dim):
        U = wedge_dst.meta[ui]
        degs = [lspace.degrees[i] for i in U]
        for i1 in range(1, n + 2):
            i = i1 - 1
            rest = U[:i] + U[i + 1:]
            sign = _sign(i1)
            # action term
            pre = sign * _eps_pairwise(eps, degs[:i], (degs[i],))
            for w, items in lefts[U[i]]:
                col = swidx[rest] * m + w
                e_f = pre * eps(src.degrees[col], degs[i])
                for t, c in items:
                    delta.add(ui * m + t, col, e_f * c)
            # bracket-insertion terms; L.rows already holds the bracket
            for j in range(i):
                bracket = L.rows.get((U[j], U[i]))
                if bracket is None:
                    continue
                e_mid = _eps_pairwise(eps, degs[j + 1:i], (degs[i],))
                for k, c in bracket.items():
                    modified = U[:j] + (k,) + U[j + 1:i] + U[i + 1:]
                    st = straighten(lspace, modified, eps)
                    if st is None:
                        continue
                    coeff, canon = st
                    val = sign * e_mid * c * coeff
                    row0, col0 = ui * m, swidx[canon] * m
                    for w in range(m):
                        delta.add(row0 + w, col0 + w, val)
    return delta


# ---------------------------------------------------------------------------
# complexes and tables

class CochainComplex:
    """Bases C^0..C^{max_n+1} and differentials d_0..d_{max_n}."""

    def __init__(self, bases, diffs):
        self.bases = bases
        self.diffs = diffs


def _warn_if_not_a_complex(A: ColorAlgebra, bad):
    """Warn that the tower need not be a complex: A fails the identity
    (``bad`` from validate_left_symmetric) or eps is not biadditive."""
    if bad:
        warnings.warn(
            f"algebra fails the left-symmetric identity on {len(bad)} basis "
            f"triples (first at {bad[0][0]}); dimensions are reported as "
            f"computed from the raw coboundary matrices, which need not "
            f"compose to zero", NonComplexWarning, stacklevel=3)
    if getattr(A.eps, "warnings", None):
        count = len(A.eps.warnings)
        warnings.warn(
            f"bicharacter is not biadditive ({count} recorded "
            f"violation{'s' if count != 1 else ''}); d o d = 0 and the "
            f"hom-complex identifications are not guaranteed above level 1",
            NonComplexWarning, stacklevel=3)


def build_lsca_complex(A: ColorAlgebra, V: Bimodule, max_n: int) -> CochainComplex:
    _warn_if_not_a_complex(A, validate_left_symmetric(A))
    bases = [lsca_cochain_basis(A, V, k) for k in range(max_n + 2)]
    diffs = [lsca_coboundary(A, V, k, src=bases[k], dst=bases[k + 1])
             for k in range(max_n + 1)]
    return CochainComplex(bases, diffs)


def build_lie_complex(L: LieColorAlgebra, W: Bimodule,
                      max_n: int) -> CochainComplex:
    bases = [lie_cochain_basis(L, W, k) for k in range(max_n + 2)]
    if validate_left_module(L, W):
        raise CohomologyError("coefficients fail the left-module law")
    diffs = [lie_coboundary(L, W, k, src=bases[k], dst=bases[k + 1])
             for k in range(max_n + 1)]
    return CochainComplex(bases, diffs)


def cohomology_table(cx: CochainComplex):
    """Per (n, degree): dim C, dim Z, dim B, dim H.

    H^0 is Z^0 with no quotient; for n >= 1, H^n = Z^n / B^n and the listed
    dims satisfy dim H = dim Z - dim B.  That is >= 0 only on a complex: on
    inputs where d_n d_{n-1} != 0 the image need not lie in the kernel, and
    dim H can be negative.
    """
    entries = []
    for k in range(len(cx.diffs)):
        space = cx.bases[k]
        d_out = cx.diffs[k]
        d_in = cx.diffs[k - 1] if k >= 1 else None
        for deg in space.degrees_present():
            dim_c = space.dim_at(deg)
            dim_z = d_out.nullity_at(deg)
            dim_b = d_in.rank_at(deg) if d_in is not None else 0
            entries.append({
                "n": k,
                "degree": list(deg.components),
                "dimC": dim_c,
                "dimZ": dim_z,
                "dimB": dim_b,
                "dimH": dim_z - dim_b,
            })
    entries.sort(key=lambda e: (e["n"], tuple(e["degree"])))
    return entries


# ---------------------------------------------------------------------------
# phi and the main theorem

def phi_matrix(A: ColorAlgebra, V: Bimodule, n: int,
               src: GradedSpace = None, dst: GradedSpace = None) -> GradedMap:
    """The degree-0 bijection C^{n+1}(A,V) -> C^n([A], C^1(A,V)) given by
    (phi f)(x_1,...,x_n)(x) = f(x_1,...,x_n,x); a permutation of bases.

    C^{n+1}(A,V) is built as Hom(Lambda^n A, C^1(A,V)) (see
    :func:`~colorhom.bimodule.cochain_space`), which is C^n([A], C^1(A,V)):
    the elementary cochain (word w, last argument e_l => v_t) sits at
    (w * dim A + l) * dim V + t on both sides, so phi is the identity map
    of one space, and ``dst`` defaults to ``src``.  :func:`verify_main_theorem`
    therefore reads the intertwining square without it; the tests build the
    square from it, as the independent reference.
    """
    src = src if src is not None else lsca_cochain_basis(A, V, n + 1)
    phi = GradedMap(src, dst if dst is not None else src)
    for col in range(src.dim):
        phi.add(col, col, _ONE)
    return phi


def verify_main_theorem(A: ColorAlgebra, V: Bimodule, n: int,
                        force: bool = False) -> dict:
    """Per-degree comparison of dim H^{n+1}(A,V) with dim H^n([A], C^1(A,V)),
    plus the exact intertwining check delta_n phi_n = phi_{n+1} d_{n+1}.

    Validates A and the induced coefficients W once each: a failure raises
    CohomologyError, or warns under ``force``.  Builds C^n..C^{n+2}(A,V)
    once and reads them as C^{n-1}..C^{n+1}([A],W) too, since each is
    built as that space (see :func:`~colorhom.bimodule.cochain_space`).
    On them it builds only d_n, d_{n+1}, delta_{n-1} and delta_n; each
    dim H is nullity(outgoing) - rank(incoming).  Assembly is disjoint
    (four-sum tower vs two-sum tower); a Lie-side map equal entry for
    entry to its left-symmetric twin reads that map's ranks.  phi_n and
    phi_{n+1} are identity maps (see :func:`phi_matrix`), so the square
    holds exactly when delta_n.rows == d_{n+1}.rows, the same comparison.
    """
    if n < 1:
        raise ValueError("the theorem compares levels n >= 1")
    bad = validate_left_symmetric(A)
    if bad and not force:
        raise CohomologyError(
            f"algebra fails the left-symmetric identity on {len(bad)} "
            f"triples, e.g. {bad[0][0]}")
    _warn_if_not_a_complex(A, bad)
    # A was validated above; commutator_algebra need not do it again
    L = commutator_algebra(A, force=True)
    W = cochain_module_action(A, V)
    if validate_left_module(L, W):
        if not force:
            raise CohomologyError("coefficients fail the left-module law")
        warnings.warn(
            "induced coefficients fail the left-module law; the Lie-side "
            "dimensions are computed from raw matrices",
            NonComplexWarning, stacklevel=2)

    # C^n..C^{n+2}(A,V), which are C^{n-1}..C^{n+1}([A],W); W's space is
    # C^1(A,V)
    s0 = W.space if n == 1 else lsca_cochain_basis(A, V, n)
    s1, s2 = lsca_cochain_basis(A, V, n + 1), lsca_cochain_basis(A, V, n + 2)
    d_n = lsca_coboundary(A, V, n, src=s0, dst=s1)
    d_n1 = lsca_coboundary(A, V, n + 1, src=s1, dst=s2)
    delta_in = lie_coboundary(L, W, n - 1, src=s0, dst=s1)
    delta_n = lie_coboundary(L, W, n, src=s1, dst=s2)
    # with phi_n and phi_{n+1} the identities of s1 and s2, this is the
    # whole square; equal maps also share their ranks
    residual_zero = delta_n.rows == d_n1.rows
    out = d_n1 if residual_zero else delta_n
    inc = d_n if delta_in.rows == d_n.rows else delta_in
    checks = []
    for deg in s1.degrees_present():
        lh = d_n1.nullity_at(deg) - d_n.rank_at(deg)
        rh = out.nullity_at(deg) - inc.rank_at(deg)
        checks.append({
            "n": n,
            "degree": list(deg.components),
            "lhs": lh,
            "rhs": rh,
            "equal": lh == rh,
            "intertwining_zero": residual_zero,
        })
    return {
        "n": n,
        "equal": all(c["equal"] for c in checks),
        "intertwining_zero": residual_zero,
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# naive oracle

def naive_oracle_table(A: ColorAlgebra, V: Bimodule, max_n: int):
    """Cohomology dimensions computed from raw multilinear arrays.

    Cochains at level n are arbitrary maps on n-tuples of basis letters with
    no exterior reduction; the eps-alternating relations on the first n-1
    slots are imposed as explicit linear constraints, d_n is evaluated
    pointwise from the defining formula, and dimensions fall out of exact
    kernels.  Independent of the straightening/hom-basis machinery on
    purpose, but not of everything: it shares with the main path the
    scalars and the bicharacter.  It builds the signs (-1)^(i+1) and every
    product of pairwise eps values with its own loops, not with ``_sign``
    and ``_eps_pairwise``.  It first copies the sparse action rows of
    ``V.left`` and ``V.right`` into dense lists with its own zero-default
    loop, then reads those and the dense ``A.products`` entry by entry and
    forms the commutator bracket itself, so it shares neither the sparse
    ``A.rows``, nor the bracket table of ``commutator_algebra``, nor the
    stored-vector helpers: ``_compose_tables``, behind the validators and
    ``invariant_subspace``, ``_eps_swap``, behind the validators and the
    bracket, and ``_axpy``, behind d_0.
    Its ranks come from the dense Gauss-Jordan ``exact_rank`` (``rref``),
    while the main path ranks with the sparse elimination of
    ``GradedMap``, so a bug in either rank kernel shows as a
    disagreement.
    """
    if A.dim > 4 or max_n > 3:
        raise CohomologyError("oracle guard: dim A <= 4 and max_n <= 3 only")
    eps = A.eps
    aspace = A.space
    n_a, m = A.dim, V.space.dim
    zero_a, zero_v = [_ZERO] * n_a, [_ZERO] * m

    def densified(table):
        out = {}
        for key, row in table.items():
            vec = [_ZERO] * m
            for t, c in row.items():
                vec[t] = c
            out[key] = vec
        return out

    left, right = densified(V.left), densified(V.right)

    def tuple_degree(tup, t):
        d = V.space.degrees[t]
        for i in tup:
            d = d - aspace.degrees[i]
        return d

    def raw_basis(level):
        # list of (tuple, t); grouped by hom degree
        out = {}
        tuples = [()]
        for _ in range(level):
            tuples = [tup + (i,) for tup in tuples for i in range(n_a)]
        for tup in tuples:
            for t in range(m):
                out.setdefault(tuple_degree(tup, t).components, []).append(
                    (tup, t))
        return out

    def alternating_rows(level, basis_at):
        # f(..,a,b,..) + eps(|a|,|b|) f(..,b,a,..) = 0 on adjacent wedge slots
        rows = []
        index = {k: i for i, k in enumerate(basis_at)}
        seen = set()
        # positions 0..level-2 are the wedge region; swap p, p+1 inside it
        for (tup, t) in basis_at:
            for p in range(level - 2):
                swapped = tup[:p] + (tup[p + 1], tup[p]) + tup[p + 2:]
                key = (min(tup, swapped), max(tup, swapped), p, t)
                if key in seen:
                    continue
                seen.add(key)
                row = [_ZERO] * len(basis_at)
                e = eps(aspace.degrees[tup[p]], aspace.degrees[tup[p + 1]])
                row[index[(tup, t)]] = row[index[(tup, t)]] + _ONE
                row[index[(swapped, t)]] = row[index[(swapped, t)]] + e
                rows.append(row)
        return rows

    def d_rows(level, src_at, dst_at_degree):
        """Rows of d_level on one degree block: one row per (target tuple, t)
        in dst, columns over src_at."""
        index = {k: i for i, k in enumerate(src_at)}
        rows = []
        for (args, t) in dst_at_degree:
            row = [_ZERO] * len(src_at)

            def bump(tup, tt, coeff):
                key = (tup, tt)
                if key in index and not coeff.is_zero():
                    row[index[key]] = row[index[key]] + coeff

            nn = level  # f takes `level` arguments; d f takes level+1
            xs = args
            degs = [aspace.degrees[i] for i in xs]
            sign = _MINUS_ONE
            for i1 in range(1, nn + 1):
                i = i1 - 1
                sign = -sign  # (-1)^(i1+1)
                rest = xs[:i] + xs[i + 1:nn] + (xs[nn],)
                # term 1: x_i . f(rest): expand the action over V; x_i
                # passes x_1..x_{i-1}
                head = _ONE
                for g in degs[:i]:
                    head = head * eps(g, degs[i])
                for t_src in range(m):
                    vec = left.get((xs[i], t_src), zero_v)
                    if vec[t].is_zero():
                        continue
                    e_f = eps(tuple_degree(rest, t_src), degs[i])
                    bump(rest, t_src, sign * head * e_f * vec[t])
                # terms 2/3 share the tail factor
                tail = _ONE
                for g in degs[i + 1:nn]:
                    tail = tail * eps(degs[i], g)
                args2 = xs[:i] + xs[i + 1:nn] + (xs[i],)
                for t_src in range(m):
                    vec = right.get((t_src, xs[nn]), zero_v)
                    if not vec[t].is_zero():
                        bump(args2, t_src, sign * tail * vec[t])
                prod = A.products.get((xs[i], xs[nn]))
                if prod is not None:
                    for k, c in enumerate(prod):
                        if not c.is_zero():
                            bump(xs[:i] + xs[i + 1:nn] + (k,), t,
                                 -(sign * tail * c))
                # term 4
                for j in range(i):
                    bracket = [a - b for a, b in zip(
                        A.products.get((xs[j], xs[i]), zero_a),
                        [eps(degs[j], degs[i]) * q
                         for q in A.products.get((xs[i], xs[j]), zero_a)])]
                    # x_i passes x_{j+1}..x_{i-1}
                    e_mid = _ONE
                    for g in degs[j + 1:i]:
                        e_mid = e_mid * eps(g, degs[i])
                    for k, c in enumerate(bracket):
                        if not c.is_zero():
                            modified = xs[:j] + (k,) + xs[j + 1:i] + \
                                xs[i + 1:nn] + (xs[nn],)
                            bump(modified, t, sign * e_mid * c)
            rows.append(row)
        return rows

    def invariance_defect(i, j, t):
        # (e_i e_j) v_t - e_i (e_j v_t), expanded from the stored constants
        vec = [_ZERO] * m
        for k, c in enumerate(A.products.get((i, j), ())):
            for u, v in enumerate(left.get((k, t), ())):
                vec[u] = vec[u] + c * v
        for k, c in enumerate(left.get((j, t), ())):
            for u, v in enumerate(left.get((i, k), ())):
                vec[u] = vec[u] - c * v
        return vec

    def d0_rows(ts):
        # one row per (x, out_t) over columns ts
        index = {t: i for i, t in enumerate(ts)}
        rows = []
        for x in range(n_a):
            for out_t in range(m):
                row = [_ZERO] * len(ts)
                nonzero = False
                for t in ts:
                    e = eps(V.space.degrees[t], aspace.degrees[x])
                    vec = [a - e * b for a, b in zip(
                        right.get((t, x), zero_v), left.get((x, t), zero_v))]
                    if not vec[out_t].is_zero():
                        row[index[t]] = vec[out_t]
                        nonzero = True
                if nonzero:
                    rows.append(row)
        return rows

    # level 0, per degree of V: (dim C^0, dim Z^0) from one rank of the
    # naive invariance rows and one of those rows stacked on d_0's
    v_by_deg = {}
    for t in range(m):
        v_by_deg.setdefault(V.space.degrees[t].components, []).append(t)
    level0 = {}
    for dcomp, ts in v_by_deg.items():
        inv = []
        for i in range(n_a):
            for j in range(n_a):
                vecs = [invariance_defect(i, j, t) for t in ts]
                for out_t in range(m):
                    row = [vec[out_t] for vec in vecs]
                    if any(not c.is_zero() for c in row):
                        inv.append(row)
        stacked = inv + d0_rows(ts)
        level0[dcomp] = (len(ts) - (exact_rank(inv) if inv else 0),
                         len(ts) - (exact_rank(stacked) if stacked else 0))

    entries = []
    for dcomp, (dim_c0, dim_z0) in sorted(level0.items()):
        if dim_c0 == 0:
            continue
        entries.append({"n": 0, "degree": list(dcomp), "dimC": dim_c0,
                        "dimZ": dim_z0, "dimB": 0, "dimH": dim_z0})

    # helper: constrained nullity and kernel-restricted rank per level
    bases = {lvl: raw_basis(lvl) for lvl in range(1, max_n + 2)}

    def constrained_dims(level):
        """per degree: (dim C fancy = nullity of constraints,
                        dim Z = nullity of constraints + d rows)"""
        out = {}
        for dcomp, at in bases[level].items():
            constr = alternating_rows(level, at)
            dst = bases[level + 1].get(dcomp, [])
            drows = d_rows(level, at, dst)
            nc = len(at) - (exact_rank(constr) if constr else 0)
            nz = len(at) - (exact_rank(constr + drows) if constr + drows else 0)
            out[dcomp] = (nc, nz)
        return out

    dims = {lvl: constrained_dims(lvl) for lvl in range(1, max_n + 1)}

    # dim B^{n+1} = (alternating nullity at n) - (alternating-and-closed
    # nullity at n): the rank of d_n on the constrained subspace
    for lvl in range(1, max_n + 1):
        for dcomp in sorted(dims[lvl]):
            nc, nz = dims[lvl][dcomp]
            if lvl == 1:
                # B^1 = image of d_0 on the invariant subspace
                dim_c0, dim_z0 = level0.get(dcomp, (0, 0))
                dim_b = dim_c0 - dim_z0
            else:
                prev_nc, prev_nz = dims[lvl - 1].get(dcomp, (0, 0))
                dim_b = prev_nc - prev_nz
            if nc == 0 and dim_b == 0:
                # degree absent from the reduced cochain space; the straight
                # table never lists it
                continue
            entries.append({"n": lvl, "degree": list(dcomp), "dimC": nc,
                            "dimZ": nz, "dimB": dim_b, "dimH": nz - dim_b})
    entries.sort(key=lambda e: (e["n"], tuple(e["degree"])))
    return entries
