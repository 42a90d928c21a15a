"""Graded vector spaces and exact linear algebra over cyclotomic scalars.

Spaces carry a degree per basis element; a degree-preserving map is stored
as one sparse row per target basis element, keyed by global indices.  Every
entry preserves degree, so the rows of one degree form a block, and ranks
and kernels are taken block by block.  They come from sparse Gaussian
elimination with exact field division, which CycScalar supports; no
floating point enters anywhere.  A rank is taken in the orientation with
fewer rows: a block with more stored rows than columns is transposed
first, since rank is invariant under transposition and the elimination
visits every row.  A kernel is taken in the original orientation, so its
vectors are those of the block's reduced row echelon form.  The dense
Gauss-Jordan :func:`rref` (with :func:`exact_rank`) is kept as an
independent reference: the naive oracle ranks with it, ``GradedMap`` never
does.

Stored and computed vectors share one format: sparse {index: nonzero
scalar} dicts.  The stored rows are the structure constants
``ColorAlgebra.rows`` and the action tables ``Bimodule.left`` and
``.right``, of a bimodule and of the Lie-side module alike, each with its
keys ascending.  An action on a cochain space such as C^1(A,V) = Hom(A,V)
has rows of length dim A * dim V with only a handful of nonzeros, so
reading a row costs its nonzeros, not its length.  Each table is a dict
keyed by basis pairs, absent keys are zero, and it is read in place
(``table.get(key)``, skipping ``None``), never through copying accessors.
The computed vectors are the rows and kernel vectors of a ``GradedMap``
and the residuals of the identity checks: :func:`_axpy` and
:func:`_through` add stored rows into them, so a law is evaluated without
building unit vectors.  An algebra also keeps the dense lists its
constructor takes, as ``ColorAlgebra.products``.  Of the package, only
:mod:`colorhom.algebra` and the naive oracle read that view; the workload
constructors in ``perfbench/workloads.py`` read and write it as it is.

:func:`hom_space` and :func:`tensor_space` lay out their bases row-major,
so a pair (i, j) is addressed by index arithmetic, not by lookup.  Their
basis names are built on first read: assembling, ranking and comparing
cochains reads only degrees, so a table or a theorem check never formats
the names of its cochain bases.  Degrees are interned (see
:mod:`colorhom.grading`), so the per-degree dicts here hash and compare them
by identity.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .grading import Degree, GradingGroup, degree_sum
from .scalars import CycScalar

_ONE = CycScalar.one()


class GradedSpace:
    """Finite-dimensional G-graded space with a named, ordered basis.

    ``items`` is a sequence of (name, degree) or (name, degree, meta)
    tuples; ``meta`` is a payload used by constructions layered on top: the
    word of an exterior basis element, or the sparse vector of a kernel
    basis element.  Only words are hashable, so :meth:`meta_index` indexes
    exterior bases only.  The hom and tensor spaces build their ``names``
    on first read (see :meth:`_named_later`).
    """

    __slots__ = ("group", "degrees", "meta", "_names", "_by_degree")

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
        self._fill(group, names, degrees, meta)

    @classmethod
    def _named_later(cls, group: GradingGroup, degrees, names):
        """A space on a list of Degrees, with no meta, whose basis names are
        the list the zero-argument callable ``names`` returns on first read."""
        space = object.__new__(cls)
        space._fill(group, names, degrees, [None] * len(degrees))
        return space

    def _fill(self, group, names, degrees, meta):
        self.group = group
        self._names = names
        self.degrees = degrees
        self.meta = meta
        self._by_degree = {}
        for i, d in enumerate(degrees):
            self._by_degree.setdefault(d, []).append(i)

    @property
    def names(self):
        names = self._names
        if names.__class__ is not list:
            names = self._names = names()
        return names

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def dim_at(self, d: Degree) -> int:
        return len(self._by_degree.get(d, ()))

    def degrees_present(self):
        return sorted(self._by_degree, key=lambda d: d.components)

    def global_indices(self, d: Degree):
        return list(self._by_degree.get(d, ()))

    def find(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def meta_index(self) -> dict:
        return {m: i for i, m in enumerate(self.meta) if m is not None}

    def __repr__(self):
        parts = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GradedSpace[{parts}]"


# ---------------------------------------------------------------------------
# sparse vectors

def _axpy(acc, c, vec):
    """acc += c * vec, for a sparse acc, a nonzero scalar c and a sparse
    vector; None is the zero vector.  Entries that cancel are dropped."""
    if not vec:
        return
    for k, x in vec.items():
        y = c * x
        v = acc.get(k)
        if v is None:
            acc[k] = y
        else:
            y = v + y
            if y.is_zero():
                del acc[k]
            else:
                acc[k] = y


def _through(acc, c, vec, rows):
    """acc += c * sum_t vec[t] * rows(t): a sparse vector pushed through one
    slot of a table, whose other slot is fixed by ``rows``; c is nonzero,
    and ``vec`` or a row may be None, the zero vector."""
    if not vec:
        return
    for t, x in vec.items():
        _axpy(acc, c * x, rows(t))


def _residuals(space, acc):
    """The entries of a sparse vector keyed by basis name, in basis order."""
    return {space.names[k]: acc[k] for k in sorted(acc)}


# ---------------------------------------------------------------------------
# dense exact row reduction (the reference rank)

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


# ---------------------------------------------------------------------------
# sparse exact elimination

def _echelon(rows, reduced=False):
    """Sparse Gaussian elimination of rows given as {column: scalar} dicts.

    Columns are integers, such as the global source indices of a
    ``GradedMap`` block; only their order matters.  Returns the pivot rows
    as (column, row) pairs in increasing column order; their number is the
    rank.  The input rows are not modified.  Rows are eliminated as given:
    :meth:`GradedMap.rank_at` passes the transpose of a block with more
    rows than columns, :meth:`GradedMap.kernel_at` never transposes.

    The pivot column is the leftmost live column, and the pivot row the live
    row with the fewest nonzeros in that column (earliest in the list on
    ties), a Markowitz-style choice that limits fill-in.  Entries that
    cancel are dropped, so rows stay sparse.  With ``reduced`` the pivot
    rows are scaled to a leading 1 and back-substituted: they are then the
    nonzero rows of the reduced row echelon form, which is unique, hence
    equal to what the dense :func:`rref` gives.
    """
    live, by_col = {}, {}
    for i, row in enumerate(rows):
        if row:
            live[i] = dict(row)
            for c in row:
                by_col.setdefault(c, set()).add(i)
    pivots = []
    # fill-in lands only in columns that already hold a live row, so the
    # columns to visit are known up front
    for c in sorted(by_col):
        ids = by_col.pop(c, None)
        if not ids:
            continue
        p = min(ids, key=lambda i: (len(live[i]), i))
        ids.discard(p)
        prow = live.pop(p)
        rest = [(k, b) for k, b in prow.items() if k != c]
        for k, _ in rest:
            by_col[k].discard(p)
        inv = _ONE / prow[c]
        for i in ids:
            row = live[i]
            # row -= (row[c] / prow[c]) * prow, with the sign in f
            f = -(row.pop(c) * inv)
            for k, b in rest:
                v = row.get(k)
                if v is None:
                    row[k] = f * b
                    by_col[k].add(i)
                else:
                    v = v + f * b
                    if v.is_zero():
                        del row[k]
                        by_col[k].discard(i)
                    else:
                        row[k] = v
            if not row:
                del live[i]
        pivots.append((c, prow))
    if reduced:
        done = {}
        for c, prow in reversed(pivots):
            inv = _ONE / prow[c]
            row = {k: v * inv for k, v in prow.items()}
            for k in [k for k in row if k in done]:
                f = -row.pop(k)
                for j, b in done[k].items():
                    if j == k:
                        continue
                    v = row.get(j)
                    v = f * b if v is None else v + f * b
                    if v.is_zero():
                        del row[j]
                    else:
                        row[j] = v
            done[c] = row
        pivots = [(c, done[c]) for c, _ in pivots]
    return pivots


def _transpose(rows):
    """The columns of sparse rows as sparse rows, keyed by row position,
    in increasing column order."""
    cols = {}
    for i, row in enumerate(rows):
        for c, x in row.items():
            cols.setdefault(c, {})[i] = x
    return [cols[c] for c in sorted(cols)]


# ---------------------------------------------------------------------------
# degree-preserving maps

class GradedMap:
    """Degree-preserving linear map stored as one sparse row per target
    basis element.

    ``rows`` maps a global dst index to {global src index: nonzero
    CycScalar}.  Absent rows and entries are zero and no stored row is
    empty, so two maps between the same spaces are equal exactly when
    their ``rows`` are.  :meth:`add` refuses an entry that would not
    preserve degree, so the rows and columns of degree d form the block at
    d (:meth:`_block`).  Ranks and kernels come from the sparse elimination
    :func:`_echelon`: a rank in the orientation with fewer rows, a kernel
    in the original one, as sparse vectors keyed like the rows.  The rank
    of each block is cached until the next :meth:`add` touches it.
    """

    __slots__ = ("src", "dst", "rows", "_ranks")

    def __init__(self, src: GradedSpace, dst: GradedSpace, rows=None):
        self.src = src
        self.dst = dst
        self.rows = rows if rows is not None else {}
        self._ranks = {}

    def add(self, i_dst: int, i_src: int, val: CycScalar):
        if val.is_zero():
            return
        d = self.src.degrees[i_src]
        if self.dst.degrees[i_dst] is not d:
            raise ValueError(
                f"entry ({i_dst},{i_src}) would not preserve degree: "
                f"{self.dst.degrees[i_dst]} vs {d}")
        row = self.rows.get(i_dst)
        if row is None:
            self.rows[i_dst] = {i_src: val}
        elif i_src not in row:
            row[i_src] = val
        else:
            new = row[i_src] + val
            if not new.is_zero():
                row[i_src] = new
            elif len(row) > 1:
                del row[i_src]
            else:
                del self.rows[i_dst]
        self._ranks.pop(d, None)

    def _block(self, d: Degree):
        """The stored rows of degree d, in basis order."""
        rows = self.rows
        return [rows[i] for i in self.dst.global_indices(d) if i in rows]

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (sparse row product)."""
        # degrees are interned, so this compares them by identity
        if other.dst.degrees != self.src.degrees:
            raise ValueError("composition spaces do not line up")
        right = other.rows
        rows = {}
        for i, lrow in self.rows.items():
            acc = {}
            for j, a in lrow.items():
                _axpy(acc, a, right.get(j))
            if acc:
                rows[i] = acc
        return GradedMap(other.src, self.dst, rows)

    def rank_at(self, d: Degree) -> int:
        """Rank of the block at d, eliminated in the orientation with fewer
        rows: a block with more stored rows than columns is transposed
        first.  Rank is invariant under transposition; the test is one
        comparison, so square and wide blocks pay nothing for it."""
        rank = self._ranks.get(d)
        if rank is None:
            rows = self._block(d)
            if len(rows) > self.src.dim_at(d):
                rows = _transpose(rows)
            rank = self._ranks[d] = len(_echelon(rows)) if rows else 0
        return rank

    def nullity_at(self, d: Degree) -> int:
        return self.src.dim_at(d) - self.rank_at(d)

    def kernel_at(self, d: Degree):
        """Kernel basis at degree d, one sparse {global src index: scalar}
        vector per free column of the reduced row echelon form, keys
        ascending: a pivot row reaches a free column only to the right of
        its pivot."""
        rows = self._block(d)
        pivots = _echelon(rows, reduced=True) if rows else []
        self._ranks[d] = len(pivots)
        pivot_cols = {c for c, _ in pivots}
        basis = []
        for free in self.src.global_indices(d):
            if free in pivot_cols:
                continue
            v = {c: -row[free] for c, row in pivots if free in row}
            v[free] = _ONE
            basis.append(v)
        return basis

    def is_zero(self) -> bool:
        return not self.rows

    def __repr__(self):
        live = sum(len(row) for row in self.rows.values())
        return (f"GradedMap({self.src.dim} -> {self.dst.dim}, "
                f"{len(self.rows)} rows, {live} entries)")


def _kernel_space(f: GradedMap, prefix: str) -> GradedSpace:
    """ker f as a graded space: one basis element per kernel vector, named
    prefix0, prefix1, ... and carrying that vector as its meta."""
    items = []
    for d in f.src.degrees_present():
        for vec in f.kernel_at(d):
            items.append((f"{prefix}{len(items)}", d, vec))
    return GradedSpace(f.src.group, items)


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
    repeatable = [eps(d, d) != _ONE for d in space.degrees]
    items = []
    # non-decreasing words in lexicographic order; a repeat is adjacent
    for wtuple in combinations_with_replacement(range(space.dim), n):
        if any(a == b and not repeatable[a] for a, b in zip(wtuple, wtuple[1:])):
            continue
        name = "^".join(space.names[i] for i in wtuple) if wtuple else "1"
        d = degree_sum(space.group, [space.degrees[i] for i in wtuple])
        items.append((name, d, wtuple))
    return GradedSpace(space.group, items)


def hom_space(src: GradedSpace, dst: GradedSpace) -> GradedSpace:
    """Hom(src, dst) on elementary maps, row-major: the map sending src
    basis i to dst basis j sits at index ``i * dst.dim + j``, and its degree
    is |dst_j| - |src_i|."""
    return GradedSpace._named_later(
        src.group, [dj - di for di in src.degrees for dj in dst.degrees],
        lambda: [f"[{a}=>{b}]" for a in src.names for b in dst.names])


def tensor_space(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    """a (x) b on pairs of basis elements, row-major: the pair (i, j) sits at
    index ``i * b.dim + j``, and its degree is |a_i| + |b_j|."""
    return GradedSpace._named_later(
        a.group, [di + dj for di in a.degrees for dj in b.degrees],
        lambda: [f"{x}@{y}" for x in a.names for y in b.names])
