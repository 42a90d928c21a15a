"""Graded vector spaces and exact linear algebra over cyclotomic scalars.

Spaces carry a degree per basis element; degree-preserving maps are stored
as one dense block per degree, so ranks, kernels, and compositions never mix
degrees.  Row reduction is classical Gauss-Jordan with exact field division,
which CycScalar supports; no floating point enters anywhere.
"""

from __future__ import annotations

from .grading import Degree, GradingGroup, degree_sum
from .scalars import CycScalar

_ZERO = CycScalar.zero()
_ONE = CycScalar.one()


class GradedSpace:
    """Finite-dimensional G-graded space with a named, ordered basis.

    ``items`` is a sequence of (name, degree) or (name, degree, meta)
    tuples; ``meta`` is an arbitrary hashable payload (a word of letters, a
    hom pair, ...) used by constructions layered on top.
    """

    __slots__ = ("group", "names", "degrees", "meta", "_by_degree", "_local")

    def __init__(self, group: GradingGroup, items):
        names, degrees, meta = [], [], []
        for item in items:
            if len(item) == 2:
                nm, d = item
                payload = None
            else:
                nm, d, payload = item
            if not isinstance(d, Degree):
                d = group.degree(d)
            names.append(nm)
            degrees.append(d)
            meta.append(payload)
        self.group = group
        self.names = names
        self.degrees = degrees
        self.meta = meta
        self._by_degree = {}
        self._local = []
        for i, d in enumerate(degrees):
            bucket = self._by_degree.setdefault(d, [])
            self._local.append(len(bucket))
            bucket.append(i)

    @property
    def dim(self) -> int:
        return len(self.names)

    def dim_at(self, d: Degree) -> int:
        return len(self._by_degree.get(d, ()))

    def degrees_present(self):
        return sorted(self._by_degree, key=lambda d: d.components)

    def global_indices(self, d: Degree):
        return list(self._by_degree.get(d, ()))

    def local_of(self, i: int) -> int:
        return self._local[i]

    def find(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def meta_index(self) -> dict:
        return {m: i for i, m in enumerate(self.meta) if m is not None}

    def zero_vector(self):
        return _zero_vec(self.dim)

    def __repr__(self):
        parts = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedSpace[{parts}]"


# ---------------------------------------------------------------------------
# dense coefficient vectors and structure-constant tables

def _zero_vec(n):
    return [_ZERO] * n


def _basis(n, k):
    v = _zero_vec(n)
    v[k] = _ONE
    return v


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _scale(c, vec):
    return [c * v for v in vec]


def _residuals(space, vec):
    """Nonzero coordinates of vec keyed by basis name."""
    return {space.names[k]: c for k, c in enumerate(vec) if not c.is_zero()}


def _row(table, key, dim):
    """A copy of the vector stored at key, or the zero vector."""
    vec = table.get(key)
    return list(vec) if vec is not None else _zero_vec(dim)


def _bilinear(table, u, v, dim):
    """sum_ij u_i v_j table[(i, j)] for a table of dense vectors of length
    dim; absent keys are zero."""
    out = _zero_vec(dim)
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        for j, b in enumerate(v):
            if b.is_zero():
                continue
            vec = table.get((i, j))
            if vec is None:
                continue
            c = a * b
            for k, x in enumerate(vec):
                if not x.is_zero():
                    out[k] = out[k] + c * x
    return out


# ---------------------------------------------------------------------------
# exact row reduction

def rref(rows, ncols=None):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    Input rows are lists of CycScalar and are not modified.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()),
                     None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = _ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def exact_rank(rows) -> int:
    return len(rref(rows)[1])


def exact_kernel(rows, ncols: int):
    """Basis of the right kernel {v : rows @ v = 0}, one vector per free column."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [_ZERO] * ncols
        v[free] = _ONE
        for row_i, pc in enumerate(pivots):
            v[pc] = -reduced[row_i][free]
        basis.append(v)
    return basis


def mat_mul(A, B):
    """Dense product; A is r x k, B is k x c."""
    if not A or not B:
        return [[] for _ in A]
    k, c = len(B), len(B[0])
    out = []
    for row in A:
        acc = [_ZERO] * c
        for j, a in enumerate(row):
            if a.is_zero():
                continue
            brow = B[j]
            for t in range(c):
                if not brow[t].is_zero():
                    acc[t] = acc[t] + a * brow[t]
        out.append(acc)
    return out


def zeros(r: int, c: int):
    return [[_ZERO] * c for _ in range(r)]


# ---------------------------------------------------------------------------
# degree-preserving maps

class GradedMap:
    """Degree-preserving linear map stored as one dense block per degree.

    ``blocks[d]`` is a dim_dst(d) x dim_src(d) matrix in the local bases;
    absent degrees act as zero.  Entries are addressed by global basis
    indices through :meth:`add`, which routes them to the right block.
    """

    __slots__ = ("src", "dst", "blocks")

    def __init__(self, src: GradedSpace, dst: GradedSpace, blocks=None):
        self.src = src
        self.dst = dst
        self.blocks = blocks if blocks is not None else {}

    def _block_for(self, d: Degree):
        blk = self.blocks.get(d)
        if blk is None:
            blk = zeros(self.dst.dim_at(d), self.src.dim_at(d))
            self.blocks[d] = blk
        return blk

    def add(self, i_dst: int, i_src: int, val: CycScalar):
        if val.is_zero():
            return
        d = self.src.degrees[i_src]
        if self.dst.degrees[i_dst] != d:
            raise ValueError(
                f"entry ({i_dst},{i_src}) would not preserve degree: "
                f"{self.dst.degrees[i_dst]} vs {d}")
        blk = self._block_for(d)
        r, c = self.dst.local_of(i_dst), self.src.local_of(i_src)
        blk[r][c] = blk[r][c] + val

    def block(self, d: Degree):
        blk = self.blocks.get(d)
        if blk is None:
            return zeros(self.dst.dim_at(d), self.src.dim_at(d))
        return blk

    def entry(self, i_dst: int, i_src: int) -> CycScalar:
        d = self.src.degrees[i_src]
        if self.dst.degrees[i_dst] != d:
            return _ZERO
        return self.block(d)[self.dst.local_of(i_dst)][self.src.local_of(i_src)]

    def apply(self, vec):
        """Apply to a dense global coordinate vector."""
        if len(vec) != self.src.dim:
            raise ValueError("vector length does not match source dimension")
        out = [_ZERO] * self.dst.dim
        for d, blk in self.blocks.items():
            src_idx = self.src.global_indices(d)
            dst_idx = self.dst.global_indices(d)
            for r, gi in enumerate(dst_idx):
                acc = _ZERO
                for c, gj in enumerate(src_idx):
                    if not blk[r][c].is_zero() and not vec[gj].is_zero():
                        acc = acc + blk[r][c] * vec[gj]
                out[gi] = acc
        return out

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (matrix product block by block)."""
        if other.dst is not self.src and other.dst.names != self.src.names:
            raise ValueError("composition spaces do not line up")
        blocks = {}
        for d in other.blocks:
            left = self.blocks.get(d)
            if left is None:
                continue
            blocks[d] = mat_mul(left, other.blocks[d])
        return GradedMap(other.src, self.dst, blocks)

    def rank_at(self, d: Degree) -> int:
        blk = self.blocks.get(d)
        return exact_rank(blk) if blk else 0

    def rank(self) -> int:
        return sum(self.rank_at(d) for d in self.blocks)

    def nullity_at(self, d: Degree) -> int:
        return self.src.dim_at(d) - self.rank_at(d)

    def kernel_at(self, d: Degree):
        """Local kernel basis at degree d (vectors of length dim_src(d))."""
        blk = self.blocks.get(d)
        n = self.src.dim_at(d)
        if not blk:
            return [_basis(n, i) for i in range(n)]
        return exact_kernel(blk, n)

    def is_zero(self) -> bool:
        return all(v.is_zero() for blk in self.blocks.values()
                   for row in blk for v in row)

    def __repr__(self):
        live = sum(1 for blk in self.blocks.values()
                   for row in blk for v in row if not v.is_zero())
        return (f"GradedMap({self.src.dim} -> {self.dst.dim}, "
                f"{len(self.blocks)} blocks, {live} entries)")


def _kernel_space(f: GradedMap, prefix: str, tag: str) -> GradedSpace:
    """ker f as a graded space: one basis element per kernel vector, named
    prefix0, prefix1, ... and carrying meta (tag, global coordinates)."""
    src = f.src
    items = []
    for d in src.degrees_present():
        globals_ = src.global_indices(d)
        for local in f.kernel_at(d):
            coords = _zero_vec(src.dim)
            for loc, gi in enumerate(globals_):
                coords[gi] = local[loc]
            items.append((f"{prefix}{len(items)}", d, (tag, tuple(coords))))
    return GradedSpace(src.group, items)


# ---------------------------------------------------------------------------
# words, straightening, derived spaces

def straighten(space: GradedSpace, word, eps):
    """Sort a wedge word into canonical order, tracking the sign rule
    x ^ y = -eps(|x|,|y|) y ^ x.

    Returns (coefficient, canonical tuple), or None when the word is zero,
    i.e. contains a repeated letter whose self-pairing is 1.
    """
    w = list(word)
    coeff = _ONE
    # bubble sort into the declared basis order: each adjacent swap
    # contributes -eps(left, right)
    for end in range(len(w) - 1, 0, -1):
        for p in range(end):
            if w[p] > w[p + 1]:
                di, dj = space.degrees[w[p]], space.degrees[w[p + 1]]
                coeff = coeff * -eps(di, dj)
                w[p], w[p + 1] = w[p + 1], w[p]
    for p in range(len(w) - 1):
        if w[p] == w[p + 1]:
            d = space.degrees[w[p]]
            if eps(d, d) == _ONE:
                return None
    return coeff, tuple(w)


def exterior_basis(space: GradedSpace, n: int, eps) -> GradedSpace:
    """The n-th eps-exterior power, spanned by canonical words.

    Words are non-decreasing in the letter order; a letter may repeat only
    when its self-pairing is -1 (otherwise x ^ x = 0 in characteristic 0).
    """
    if n < 0:
        raise ValueError("exterior power needs n >= 0")
    order = list(range(space.dim))
    repeatable = [eps(space.degrees[i], space.degrees[i]) != _ONE
                  for i in range(space.dim)]
    words = []

    def extend(prefix, start):
        if len(prefix) == n:
            words.append(tuple(prefix))
            return
        for pos in range(start, len(order)):
            i = order[pos]
            if prefix and prefix[-1] == i and not repeatable[i]:
                continue
            prefix.append(i)
            extend(prefix, pos)
            prefix.pop()

    extend([], 0)
    items = []
    for wtuple in words:
        name = "^".join(space.names[i] for i in wtuple) if wtuple else "1"
        d = degree_sum(space.group, [space.degrees[i] for i in wtuple])
        items.append((name, d, wtuple))
    return GradedSpace(space.group, items)


def hom_space(src: GradedSpace, dst: GradedSpace) -> GradedSpace:
    """Hom(src, dst) on elementary maps; E sends src basis i to dst basis j,
    so its degree is |dst_j| - |src_i|.  meta = ("hom", i_src, j_dst)."""
    items = []
    for i in range(src.dim):
        for j in range(dst.dim):
            name = f"[{src.names[i]}=>{dst.names[j]}]"
            d = dst.degrees[j] - src.degrees[i]
            items.append((name, d, ("hom", i, j)))
    return GradedSpace(src.group, items)


def tensor_space(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    """a (x) b on pairs of basis elements; meta = ("tensor", i, j)."""
    items = []
    for i in range(a.dim):
        for j in range(b.dim):
            name = f"{a.names[i]}@{b.names[j]}"
            items.append((name, a.degrees[i] + b.degrees[j], ("tensor", i, j)))
    return GradedSpace(a.group, items)
