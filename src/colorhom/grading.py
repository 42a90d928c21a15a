"""Finite abelian grading groups, degrees, and skew-symmetric bicharacters.

A grading group is a product of cyclic groups Z_{m_1} x ... x Z_{m_r}.  A
bicharacter eps : G x G -> k^x assigns a root of unity to each pair of
degrees, skew-symmetrically: eps(a,b) * eps(b,a) = 1.  Two representations
are supported:

* form mode -- eps(a,b) = zeta_m^(a^T M b) for an integer matrix M.
  Biadditive by construction; validated for well-definedness and
  skew-symmetry on generators.
* table mode -- an explicit value matrix over a finite list of degrees.
  Values off the listed degrees are extended along canonical shortest
  expressions in the listed generators.  In strict mode the table must be
  consistent with biadditivity on the subgroup the listed degrees generate;
  in non-strict mode inconsistencies are kept as warnings so that value
  tables printed without a globally consistent extension can still be used.

The constructors take values, not problem-file objects; ``cli`` reads those.

>>> G = GradingGroup([2, 2])
>>> eps = bichar_from_form(G, [[1, 0], [0, 0]], 2)
>>> eps(G.degree([1, 0]), G.degree([1, 1]))
-1

Groups and degrees are interned: equal cyclic orders give one group, and a
group keeps one degree per element it has met, so both compare and hash by
identity, and a copy or an unpickled value is the interned object again.
The same few degrees recur through every cochain basis, so this saves
building and comparing them anew.

>>> GradingGroup([3, 3]) is GradingGroup((3, 3))
True
>>> G.degree([3, 1]) is G.degree([1, -1])
True
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm

from .scalars import CycScalar, parse_scalar, root_of_unity

_ONE = CycScalar.one()
_MINUS_ONE = CycScalar.rational(-1)

# box enumeration bound for the table-mode relation-lattice check
_CLOSURE_CAP = 1 << 14


class GradingError(ValueError):
    pass


class BicharacterError(ValueError):
    pass


class GradingGroup:
    """Z_{m_1} + ... + Z_{m_r}, presented by its list of cyclic orders.

    Interned: equal ``orders`` give one object, which keeps one
    :class:`Degree` per element it has met, so groups and degrees compare
    and hash by identity.
    """

    __slots__ = ("orders", "exponent", "zero", "_degrees")
    _interned = {}

    def __new__(cls, orders):
        orders = tuple(int(m) for m in orders)
        group = cls._interned.get(orders)
        if group is not None:
            return group
        if not orders or any(m < 1 for m in orders):
            raise GradingError(f"cyclic orders must be positive: {orders!r}")
        group = object.__new__(cls)
        object.__setattr__(group, "orders", orders)
        object.__setattr__(group, "exponent", lcm(*orders))
        object.__setattr__(group, "_degrees", {})
        object.__setattr__(group, "zero", Degree(group, (0,) * len(orders)))
        cls._interned[orders] = group
        return group

    def __reduce__(self):
        return GradingGroup, (self.orders,)

    def __setattr__(self, *_):
        raise AttributeError("GradingGroup is immutable")

    @property
    def rank(self) -> int:
        return len(self.orders)

    def degree(self, components) -> "Degree":
        return Degree(self, components)

    def elements(self):
        for comps in product(*(range(m) for m in self.orders)):
            yield Degree(self, comps)

    def __repr__(self):
        return "Z" + "xZ".join(str(m) for m in self.orders)


class Degree:
    """An element of a grading group, stored with reduced components.

    Interned per group: ``Degree(G, c)`` returns the one degree of G with
    the reduced components of c.  Sums and differences are looked up in
    per-degree tables that fill in as pairs are met.
    """

    __slots__ = ("group", "components", "_sums", "_diffs")

    def __new__(cls, group: GradingGroup, components):
        components = tuple(components)
        table = group._degrees
        try:
            d = table.get(components)
        except TypeError:  # unhashable components; int() below says why
            d = None
        if d is not None:
            return d
        if len(components) != len(group.orders):
            raise GradingError(
                f"degree needs {group.rank} components, got {components!r}")
        components = tuple(int(c) % m for c, m in zip(components, group.orders))
        d = table.get(components)
        if d is None:
            d = object.__new__(cls)
            object.__setattr__(d, "group", group)
            object.__setattr__(d, "components", components)
            object.__setattr__(d, "_sums", {})
            object.__setattr__(d, "_diffs", {})
            table[components] = d
        return d

    def __reduce__(self):
        return Degree, (self.group, self.components)

    def __setattr__(self, *_):
        raise AttributeError("Degree is immutable")

    def __add__(self, other: "Degree") -> "Degree":
        d = self._sums.get(other)
        if d is None:
            d = self._sums[other] = Degree(self.group, tuple(
                a + b for a, b in zip(self.components, other.components)))
        return d

    def __sub__(self, other: "Degree") -> "Degree":
        d = self._diffs.get(other)
        if d is None:
            d = self._diffs[other] = Degree(self.group, tuple(
                a - b for a, b in zip(self.components, other.components)))
        return d

    def __neg__(self) -> "Degree":
        return self.group.zero - self

    def is_zero(self) -> bool:
        return not any(self.components)

    def order(self) -> int:
        return lcm(*(m // gcd(m, c) if c else 1
                     for c, m in zip(self.components, self.group.orders)))

    def __repr__(self):
        return "(" + ",".join(str(c) for c in self.components) + ")"


def degree_sum(group: GradingGroup, degrees) -> Degree:
    total = group.zero
    for d in degrees:
        total = total + d
    return total


def _is_int(v) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


class Bicharacter:
    """Skew-symmetric bicharacter in form or table representation.

    Construct through :func:`bichar_from_form`, :func:`bichar_from_table`,
    or :func:`trivial_bicharacter`; evaluate by calling, ``eps(a, b)``.
    ``warnings`` carries the non-strict table mode's recorded biadditivity
    violations.
    """

    __slots__ = ("group", "mode", "matrix", "root_m", "degrees", "values",
                 "strict", "warnings", "_reps", "_cache")

    def __init__(self, group, mode, matrix=None, root_m=None,
                 degrees=None, values=None, strict=True, warnings=None,
                 reps=None):
        self.group = group
        self.mode = mode
        self.matrix = matrix
        self.root_m = root_m
        self.degrees = degrees
        self.values = values
        self.strict = strict
        self.warnings = warnings or []
        self._reps = reps
        self._cache = {}

    def __call__(self, a: Degree, b: Degree) -> CycScalar:
        key = (a, b)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        val = self._eval(a, b)
        self._cache[key] = val
        return val

    def _eval(self, a: Degree, b: Degree) -> CycScalar:
        if self.mode == "form":
            m = self.root_m
            e = 0
            for i, ai in enumerate(a.components):
                if ai:
                    row = self.matrix[i]
                    for j, bj in enumerate(b.components):
                        if bj:
                            e += ai * row[j] * bj
            return root_of_unity(m, e % m)
        ra, rb = self._reps.get(a), self._reps.get(b)
        if ra is None or rb is None:
            missing = a if ra is None else b
            raise BicharacterError(
                f"degree {missing} is outside the subgroup generated by the "
                f"table's degrees; the bicharacter value is undefined")
        val = _ONE
        for p in ra:
            for q in rb:
                val = val * self.values[p][q]
        return val

    def __repr__(self):
        if self.mode == "form":
            return f"Bicharacter(form, m={self.root_m}, M={self.matrix})"
        return (f"Bicharacter(table on {self.degrees}, "
                f"strict={self.strict}, warnings={len(self.warnings)})")


def _eps_pairwise(eps, lefts, rights) -> CycScalar:
    """eps(sum of lefts, sum of rights) as the product of the pairwise values
    eps(a, b), the reading that stays meaningful for non-biadditive tables."""
    val = _ONE
    for a in lefts:
        for b in rights:
            val = val * eps(a, b)
    return val


def trivial_bicharacter(group: GradingGroup) -> Bicharacter:
    """eps identically 1: the zero generator matrix."""
    r = group.rank
    return bichar_from_form(group, [[0] * r for _ in range(r)], 1)


def bichar_from_form(group: GradingGroup, M, root_m: int) -> Bicharacter:
    """Biadditive bicharacter eps(a,b) = zeta_root_m^(a^T M b).

    Well-definedness over the cyclic factors requires root_m to divide
    M[i][j] * gcd(m_i, m_j) for all i, j (changing a representative of a
    component by its order must not move the exponent mod root_m), and
    skew-symmetry requires root_m | (M + M^T)[i][j].  Violations are errors.
    """
    r = group.rank
    if not _is_int(root_m) or root_m < 1:
        raise BicharacterError(f"root order must be a positive integer, got {root_m!r}")
    if not isinstance(M, (list, tuple)) or len(M) != r or any(
            not isinstance(row, (list, tuple)) or len(row) != r for row in M):
        raise BicharacterError(f"generator matrix must be {r}x{r}")
    if not all(_is_int(v) for row in M for v in row):
        raise BicharacterError(f"generator matrix entries must be integers: {M!r}")
    M = [list(row) for row in M]
    for i in range(r):
        for j in range(r):
            if (M[i][j] * gcd(group.orders[i], group.orders[j])) % root_m:
                raise BicharacterError(
                    f"ill-defined exponent: m={root_m} does not divide "
                    f"M[{i}][{j}]*gcd(order_{i}, order_{j})")
            if (M[i][j] + M[j][i]) % root_m:
                raise BicharacterError(
                    f"skew-symmetry fails on generators ({i},{j}): "
                    f"M[{i}][{j}]+M[{j}][{i}] is nonzero mod {root_m}")
    return Bicharacter(group, "form", matrix=M, root_m=root_m)


def _canonical_reps(group: GradingGroup, degrees) -> dict:
    # breadth-first shortest expressions in the listed generators; the zero
    # degree gets the empty expression, a listed degree its own one-letter one
    reps = {group.zero: ()}
    frontier = [group.zero]
    while frontier:
        nxt = []
        for s in frontier:
            for p, g in enumerate(degrees):
                t = s + g
                if t not in reps:
                    reps[t] = reps[s] + (p,)
                    nxt.append(t)
        frontier = nxt
    return reps


def bichar_from_table(group: GradingGroup, degrees, values,
                      strict: bool = True) -> Bicharacter:
    """Bicharacter given by an explicit value table on listed degrees.

    Skew-symmetry and the diagonal-in-{1,-1} law are always enforced.
    Biadditivity on the generated subgroup is enforced when ``strict`` and
    recorded as warnings otherwise.  Evaluation extends the table along the
    canonical shortest expression of each degree in the listed generators,
    and fails for degrees outside the generated subgroup.
    """
    degrees = [d if isinstance(d, Degree) else group.degree(d) for d in degrees]
    k = len(degrees)
    if len({d.components for d in degrees}) != k:
        raise BicharacterError("listed degrees must be pairwise distinct")
    if len(values) != k or any(len(row) != k for row in values):
        raise BicharacterError(f"value table must be {k}x{k}")
    values = [[v if isinstance(v, CycScalar) else parse_scalar(v) for v in row]
              for row in values]

    for i in range(k):
        d = values[i][i]
        if d != _ONE and d != _MINUS_ONE:
            raise BicharacterError(
                f"eps({degrees[i]},{degrees[i]}) = {d} is not 1 or -1")
        if degrees[i].is_zero() and any(values[i][j] != _ONE or values[j][i] != _ONE
                                        for j in range(k)):
            raise BicharacterError("eps(0, a) must be 1 for every listed a")
        for j in range(k):
            if values[i][j].is_zero():
                raise BicharacterError("bicharacter values must be nonzero")
            if values[i][j] * values[j][i] != _ONE:
                raise BicharacterError(
                    f"skew-symmetry fails at ({degrees[i]},{degrees[j]}): "
                    f"eps(a,b)*eps(b,a) = {values[i][j] * values[j][i]}")

    warnings = _biadditivity_violations(group, degrees, values)
    if strict and warnings:
        raise BicharacterError(
            "table is inconsistent with biadditivity on the generated "
            "subgroup: " + "; ".join(warnings))

    reps = _canonical_reps(group, degrees)
    return Bicharacter(group, "table", degrees=degrees, values=values,
                       strict=strict, warnings=warnings, reps=reps)


def _biadditivity_violations(group, degrees, values) -> list[str]:
    """Relation-lattice consistency check for a table bicharacter.

    The table extends biadditively to the generated subgroup iff for every
    integer relation sum_i n_i g_i = 0 among the listed degrees and every j,
    prod_i eps(g_i, g_j)^(n_i) = 1.  The relation lattice is generated by the
    vectors ord(g_i) * e_i together with the relations inside the finite box
    prod [0, ord(g_i)), so checking those suffices.
    """
    k = len(degrees)
    orders = [d.order() for d in degrees]
    box = 1
    for o in orders:
        box *= o
    if box > _CLOSURE_CAP:
        raise BicharacterError(
            f"generated subgroup too large to validate ({box} > {_CLOSURE_CAP})")

    relations = []
    for i, o in enumerate(orders):
        n = [0] * k
        n[i] = o
        relations.append(n)
    for combo in product(*(range(o) for o in orders)):
        if not any(combo):
            continue
        total = group.zero
        for i, c in enumerate(combo):
            for _ in range(c):
                total = total + degrees[i]
        if total.is_zero():
            relations.append(list(combo))

    out = []
    for n in relations:
        for j in range(k):
            prod_val = _ONE
            for i, ni in enumerate(n):
                if ni:
                    prod_val = prod_val * values[i][j] ** ni
            if prod_val != _ONE:
                rel = "+".join(f"{ni}*{degrees[i]}" for i, ni in enumerate(n) if ni)
                out.append(
                    f"relation {rel} = 0 forces eps(., {degrees[j]}) product "
                    f"{prod_val} != 1")
                break
    return out
