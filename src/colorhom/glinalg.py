"""Graded vector spaces and exact linear algebra over cyclotomic scalars.

Spaces carry a degree per basis element; a degree-preserving map is stored
as one sparse row per target basis element, keyed by global indices.  Every
entry preserves degree, so the rows of one degree form a block, and ranks
and kernels are taken block by block.  They come from sparse Gaussian
elimination with exact field division, which CycScalar supports; no
floating point enters anywhere.  The elimination indexes its live rows
by their leading column only, which is exact when the columns are visited
in increasing order (see :func:`_echelon`).  A rank is taken in the
orientation with fewer rows: a block with more stored rows than columns
is transposed first, since rank is invariant under transposition and the
elimination visits every row.  A kernel is taken in the original
orientation, so its vectors are those of the block's reduced row echelon
form.  Every sparse update v + f * b goes through :func:`_axpy`, the
elimination and its back-substitution included, and is one fused
``scalars._fma``, which reduces once where the operators would build a
product and reduce twice; a new entry is one product.  The dense
Gauss-Jordan :func:`rref` (with :func:`exact_rank`) is kept as an
independent reference: the naive oracle ranks with it, ``GradedMap``
never does.

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
and the residuals of the identity checks: :func:`_axpy` adds stored rows
into them, so a law is evaluated without building unit vectors, and a
vector pushed through a table is one :func:`_axpy` per entry, as in
:meth:`GradedMap.compose`.  The identity checks and the invariance defect
of C^0 take their associators from :func:`_compose_tables`, which
composes two tables into sparse vectors keyed by basis triples, one
product per pair of entries that meet.  The five laws that swap two
arguments and twist by eps (the left-symmetric identity,
eps-skew-symmetry, the eps-commutator, bm1 and the left-module law) are
each one call of :func:`_eps_swap` on a stored or composed table.  The
naive oracle and the tests' dense references call none of these
helpers.  An algebra also keeps the dense lists its constructor takes,
as ``ColorAlgebra.products``.  Of the package, only
:mod:`colorhom.algebra` and the naive oracle read that view; the workload
constructors in ``perfbench/workloads.py`` read and write it as it is.

:func:`hom_space` and :func:`tensor_space` lay out their bases row-major,
so a pair (i, j) is addressed by index arithmetic, not by lookup, and
they compute one row of degrees per distinct degree of the left factor.
They keep the two spaces they were built from as ``factors``, so a
cochain space carries the word basis it was built on.  A cochain space
of either tower is a hom space on a word basis, Hom(Lambda^k A, W), so
one space serves both towers of the main theorem; :func:`tensor_space`
builds only the source A (x) A of the invariance defect's target.
Their basis names, and those of :func:`exterior_basis`, are built on
first read: assembling, ranking and comparing cochains reads only
degrees, so a table or a theorem check never formats the names of its
cochain bases.  A space's per-degree index is likewise built on the first
query by degree, so tensor factors and exterior powers, which nothing
queries that way, never build one.  Degrees are interned (see
:mod:`colorhom.grading`), so the per-degree dicts here hash and compare them
by identity.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations_with_replacement

from .grading import Degree, GradingGroup, degree_sum
from .scalars import CycScalar, _fma

_ONE = CycScalar.one()


class GradedSpace:
    """Finite-dimensional G-graded space with a named, ordered basis.

    ``items`` is a sequence of (name, degree) pairs.  ``meta`` holds one
    payload per basis element, None on a space built from pairs: the word
    of an exterior basis element, or the sparse vector of a kernel basis
    element.  Those spaces, like the hom and tensor spaces, are made by
    :meth:`_named_later`, the one constructor that takes ``meta``, and
    build their ``names`` on first read.  Only words are hashable, so
    :meth:`meta_index` indexes exterior bases only.  Every space builds
    its per-degree index on the first :meth:`dim_at`,
    :meth:`global_indices` or :meth:`degrees_present`.  A hom or tensor
    space keeps the pair of spaces it was built from as ``factors``
    (None on every other space), so a cochain space Hom(Lambda^k A, W)
    hands its word basis, ``factors[0]``, to the coboundaries of both
    towers that read it.
    """

    __slots__ = ("group", "degrees", "meta", "factors", "_names", "_by_degree")

    def __init__(self, group: GradingGroup, items):
        names, degrees = [], []
        for nm, d in items:
            if not isinstance(d, Degree):
                d = group.degree(d)
            names.append(nm)
            degrees.append(d)
        self._fill(group, names, degrees, [None] * len(degrees))

    @classmethod
    def _named_later(cls, group: GradingGroup, degrees, names, meta=None):
        """A space on a list of Degrees, with meta (or none), whose basis
        names are the list the zero-argument callable ``names`` returns on
        first read."""
        space = object.__new__(cls)
        space._fill(group, names, degrees,
                    meta if meta is not None else [None] * len(degrees))
        return space

    def _fill(self, group, names, degrees, meta):
        self.group = group
        self._names = names
        self.degrees = degrees
        self.meta = meta
        self.factors = None
        self._by_degree = None

    def _degree_index(self):
        """{degree: ascending global indices}, built on first use."""
        index = self._by_degree
        if index is None:
            index = self._by_degree = {}
            for i, d in enumerate(self.degrees):
                index.setdefault(d, []).append(i)
        return index

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
        return len(self._degree_index().get(d, ()))

    def degrees_present(self):
        return sorted(self._degree_index(), key=lambda d: d.components)

    def global_indices(self, d: Degree):
        return list(self._degree_index().get(d, ()))

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
    vector; None is the zero vector.  A new entry is one product, an entry
    already in acc one fused update ``_fma``.  Entries that cancel are
    dropped.  It is the one sparse update of this module: the elimination
    and its back-substitution reduce their rows through it too."""
    if not vec:
        return
    for k, x in vec.items():
        v = acc.get(k)
        if v is None:
            acc[k] = c * x
        else:
            v = _fma(v, c, x)
            if v.is_zero():
                del acc[k]
            else:
                acc[k] = v


def _eps_swap(table, eps, degrees, sign):
    """{key: table[key] + sign * eps(|a|,|b|) * table[(b, a, ...)]} for a
    table of sparse vectors keyed by index tuples (a, b, ...), where
    ``degrees`` gives |a| and |b| and ``sign`` is 1 or -1.  The keys are
    those of the table and their swaps of the first two slots, in sorted
    order; eps is evaluated once per key, the vector at the key is copied
    rather than scaled by 1, and only nonzero vectors are kept.  It is
    the one form of the laws that swap two arguments: the
    left-symmetric identity, eps-skew-symmetry, the eps-commutator, the
    bimodule law bm1 and the left-module law."""
    out = {}
    for key in sorted(table.keys() | {k[1::-1] + k[2:] for k in table}):
        e = eps(degrees[key[0]], degrees[key[1]])
        r = dict(table.get(key) or ())
        _axpy(r, e if sign > 0 else -e, table.get(key[1::-1] + key[2:]))
        if r:
            out[key] = r
    return out


def _compose_tables(acc, c, outer, inner, first):
    """acc += c * (outer composed with inner), for two tables of stored
    rows keyed by basis pairs, into a dict of sparse vectors keyed by
    basis triples.

    Each entry t: x of each row outer[(p, q)] adds c * x times every row
    that inner stores with t in one slot: with ``first`` that is the first
    slot, and inner[(t, s)] lands at acc[(p, q, s)]; otherwise it is the
    second, and inner[(s, t)] lands at acc[(s, p, q)].  inner is grouped
    by that slot once per call, so the work is one product per pair of
    entries that meet (Gustavson's row-by-row product).  acc keeps only
    nonzero vectors: a triple appears where some such pair meets, and
    leaves again when its terms all cancel."""
    by_slot = {}
    for (a, b), row in inner.items():
        if first:
            by_slot.setdefault(a, []).append((b, row))
        else:
            by_slot.setdefault(b, []).append((a, row))
    for (p, q), vec in outer.items():
        for t, x in vec.items():
            hits = by_slot.get(t)
            if hits is None:
                continue
            f = c * x
            for s, row in hits:
                key = (p, q, s) if first else (s, p, q)
                r = acc.get(key)
                if r is None:
                    r = acc[key] = {}
                _axpy(r, f, row)
    for key in [key for key, r in acc.items() if not r]:
        del acc[key]


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
    ties), a Markowitz-style choice that limits fill-in.  Live rows sit in
    buckets keyed by their leading column, and the columns are popped from
    a heap in increasing order.  Every column left of the current one is
    already pivoted, so the rows with a nonzero in it are exactly the rows
    that lead there: the buckets are the whole index.  A reduced row moves
    to the bucket of its new leading column.  The pivot's negated inverse
    is formed once per column, and only when its bucket holds another row,
    so a row alone in its column costs no division.  Each reduced row
    then costs one product for its factor f = row[c] * (-1 / pivot), and
    is updated by :func:`_axpy` with f times the pivot row without its
    pivot entry (built once per column): per entry one product where it is
    new in the row or one fused update ``_fma`` where it is shared.
    Entries that cancel are dropped, so rows stay sparse.  With
    ``reduced`` the pivot rows are scaled to a leading 1 and
    back-substituted through :func:`_axpy` the same way, each against the
    later pivot rows without their pivot entries: they are then the
    nonzero rows of the reduced row echelon form, which is unique, hence
    equal to what the dense :func:`rref` gives.
    """
    # a bucket holds (nonzeros, position, row) entries, so its least entry
    # is the pivot row
    by_lead = {}
    for i, row in enumerate(rows):
        if row:
            by_lead.setdefault(min(row), []).append((len(row), i, dict(row)))
    heap = sorted(by_lead)  # a sorted list is a heap
    pivots = []
    while heap:
        c = heappop(heap)
        bucket = by_lead.pop(c)
        if len(bucket) == 1:
            pivots.append((c, bucket[0][2]))
            continue
        p = min(bucket)
        prow = p[2]
        rest = {k: b for k, b in prow.items() if k != c}
        ninv = -(_ONE / prow[c])
        for entry in bucket:
            if entry is p:
                continue
            _, i, row = entry
            # row -= (row[c] / prow[c]) * prow, with the sign in ninv
            _axpy(row, row.pop(c) * ninv, rest)
            if row:
                lead = min(row)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heappush(heap, lead)
                by_lead[lead].append((len(row), i, row))
        pivots.append((c, prow))
    if reduced:
        # done[c] is pivot row c, scaled and reduced, without its pivot
        # entry, so no update is spent cancelling that entry
        done = {}
        for i in reversed(range(len(pivots))):
            c, prow = pivots[i]
            inv = _ONE / prow[c]
            row = {k: v * inv for k, v in prow.items()}
            for k in [k for k in row if k in done]:
                _axpy(row, -row.pop(k), done[k])
            pivots[i] = (c, row)
            done[c] = {k: b for k, b in row.items() if k != c}
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
    degrees, meta = [], []
    for d in f.src.degrees_present():
        for vec in f.kernel_at(d):
            degrees.append(d)
            meta.append(vec)
    return GradedSpace._named_later(
        f.src.group, degrees, lambda: [f"{prefix}{k}" for k in range(len(meta))],
        meta)


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
    Each word is the meta of its basis element; the names, such as
    ``x^y``, are built on first read.
    """
    if n < 0:
        raise ValueError("exterior power needs n >= 0")
    repeatable = [eps(d, d) != _ONE for d in space.degrees]
    words, degrees = [], []
    # non-decreasing words in lexicographic order; a repeat is adjacent
    for wtuple in combinations_with_replacement(range(space.dim), n):
        if any(a == b and not repeatable[a] for a, b in zip(wtuple, wtuple[1:])):
            continue
        words.append(wtuple)
        degrees.append(degree_sum(space.group, [space.degrees[i] for i in wtuple]))
    return GradedSpace._named_later(
        space.group, degrees,
        lambda: ["^".join(space.names[i] for i in w) if w else "1" for w in words],
        words)


def _row_major_degrees(left, right, degree):
    """[degree(a, b) for a in left for b in right], computed once per
    distinct a: a row of degrees is copied, not recomputed, where a left
    degree repeats."""
    out, rows = [], {}
    for a in left:
        row = rows.get(a)
        if row is None:
            row = rows[a] = [degree(a, b) for b in right]
        out += row
    return out


def hom_space(src: GradedSpace, dst: GradedSpace) -> GradedSpace:
    """Hom(src, dst) on elementary maps, row-major: the map sending src
    basis i to dst basis j sits at index ``i * dst.dim + j``, and its degree
    is |dst_j| - |src_i|.  ``factors`` is (src, dst)."""
    space = GradedSpace._named_later(
        src.group,
        _row_major_degrees(src.degrees, dst.degrees, lambda di, dj: dj - di),
        lambda: [f"[{a}=>{b}]" for a in src.names for b in dst.names])
    space.factors = (src, dst)
    return space


def tensor_space(a: GradedSpace, b: GradedSpace) -> GradedSpace:
    """a (x) b on pairs of basis elements, row-major: the pair (i, j) sits at
    index ``i * b.dim + j``, and its degree is |a_i| + |b_j|.  ``factors``
    is (a, b).  The cochain spaces are hom spaces on word bases, so in
    the package only the invariance defect of C^0 builds one, A (x) A,
    as the source of its target Hom(A (x) A, V)."""
    space = GradedSpace._named_later(
        a.group,
        _row_major_degrees(a.degrees, b.degrees, lambda di, dj: di + dj),
        lambda: [f"{x}@{y}" for x in a.names for y in b.names])
    space.factors = (a, b)
    return space
