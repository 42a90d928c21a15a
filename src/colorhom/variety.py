"""Grid exploration of low-dimensional left-symmetric color algebra varieties.

The grading forces most structure constants to vanish: e_i e_j can only hit
basis vectors of degree |e_i| + |e_j|.  `allowed_products` computes that
mask, `FamilySpec` describes a parameterized family living on it, and
`scan_family` instantiates the family on an exact rational grid and reports
where the left-symmetric identity holds.  Residuals are quadratic in at most
three parameters at this scale, so exact grid evaluation recovers the
solution structure (typically coordinate axes) without polynomial solving.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .algebra import ColorAlgebra
from .glinalg import GradedSpace
from .grading import Bicharacter
from .scalars import CycScalar, parse_scalar

DEFAULT_GRID = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
                Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
                Fraction(5), Fraction(7)]
DEFAULT_CAP = 10 ** 4


class VarietyError(ValueError):
    pass


def allowed_products(space: GradedSpace):
    """All (i, j, k) with |e_k| = |e_i| + |e_j|; every other structure
    constant is forced to zero by the grading."""
    mask = set()
    for i in range(space.dim):
        for j in range(space.dim):
            target = space.degrees[i] + space.degrees[j]
            for k in range(space.dim):
                if space.degrees[k] is target:
                    mask.add((i, j, k))
    return mask


class FamilySpec:
    """A family of algebras on a graded space: some structure constants
    fixed, some free parameters, all confined to the grading mask."""

    def __init__(self, space: GradedSpace, eps: Bicharacter,
                 free, fixed=None):
        if space.dim not in (2, 3):
            raise VarietyError("families are 2- or 3-dimensional")
        names = []
        mask = allowed_products(space)
        for slot, name in free:
            if tuple(slot) not in mask:
                raise VarietyError(
                    f"slot {slot} violates the grading; it is forced zero")
            names.append(name)
        if len(set(names)) != len(names):
            raise VarietyError("duplicate parameter names")
        if len(names) > 3:
            raise VarietyError("at most 3 parameters")
        fixed = dict(fixed or {})
        for slot in fixed:
            if tuple(slot) not in mask:
                raise VarietyError(
                    f"fixed slot {slot} violates the grading")
        self.space = space
        self.eps = eps
        self.free = [(tuple(slot), name) for slot, name in free]
        self.fixed = {tuple(slot): val for slot, val in fixed.items()}

    @property
    def parameters(self):
        return [name for _, name in self.free]

    def instantiate(self, values) -> ColorAlgebra:
        """The member algebra at one parameter point."""
        products = {}
        points = list(self.fixed.items())
        points += [(slot, values[name]) for slot, name in self.free]
        for (i, j, k), val in points:
            if not isinstance(val, CycScalar):
                val = CycScalar.rational(val)
            row = products.setdefault((i, j), [CycScalar.zero()] * self.space.dim)
            row[k] = row[k] + val
        return ColorAlgebra(self.space, self.eps, products)


def identity_residual(A: ColorAlgebra):
    """Basis triples with nonzero left-symmetric residual.

    Deliberately re-expands all products from the structure constants with
    its own loops (no shared evaluation path with validate_left_symmetric),
    so the two can serve as independent checks of each other.
    """
    n = A.dim
    space, eps = A.space, A.eps
    struct = {}
    for (i, j), vec in A.products.items():
        for k, c in enumerate(vec):
            if not c.is_zero():
                struct[(i, j, k)] = c

    def two_then_one(i, j, k):
        # (e_i e_j) e_k as a dense vector
        out = [CycScalar.zero()] * n
        for (p, q, r), c in struct.items():
            if p == i and q == j:
                for (p2, q2, r2), c2 in struct.items():
                    if p2 == r and q2 == k:
                        out[r2] = out[r2] + c * c2
        return out

    def one_then_two(i, j, k):
        # e_i (e_j e_k)
        out = [CycScalar.zero()] * n
        for (p, q, r), c in struct.items():
            if p == j and q == k:
                for (p2, q2, r2), c2 in struct.items():
                    if p2 == i and q2 == r:
                        out[r2] = out[r2] + c * c2
        return out

    violations = []
    for i in range(n):
        for j in range(n):
            e = eps(space.degrees[i], space.degrees[j])
            for k in range(n):
                res = [
                    (a - b) - e * (c - d)
                    for a, b, c, d in zip(two_then_one(i, j, k),
                                          one_then_two(i, j, k),
                                          two_then_one(j, i, k),
                                          one_then_two(j, i, k))
                ]
                if any(not c.is_zero() for c in res):
                    residual = {space.names[r]: c
                                for r, c in enumerate(res) if not c.is_zero()}
                    violations.append(
                        ((space.names[i], space.names[j], space.names[k]),
                         residual))
    return violations


def scan_family(fam: FamilySpec, grid=None, cap=None):
    """Evaluate the left-symmetric identity at every grid point.

    grid: dict mapping parameter name to a list of scalars (Fractions or
    CycScalars); missing parameters fall back to DEFAULT_GRID.  Points are
    the cartesian product; the cap (default 10^4, COLORHOM_MAX_GRID
    overrides) guards against accidental blowups.

    Returns a list of {"point", "passes", "first_violation"} dicts, exact
    at every point.  A family with no parameters yields the single fixed
    member.
    """
    grid = dict(grid or {})
    if cap is None:
        raw = os.environ.get("COLORHOM_MAX_GRID", DEFAULT_CAP)
        try:
            cap = int(raw)
        except ValueError:
            raise VarietyError(
                f"COLORHOM_MAX_GRID must be an integer, got {raw!r}") from None
    axes = []
    for name in fam.parameters:
        values = grid.get(name, DEFAULT_GRID)
        axes.append([(name, v) for v in values])
    total = 1
    for axis in axes:
        total *= len(axis)
    if total > cap:
        raise VarietyError(f"grid of {total} points exceeds the cap {cap}")

    points = [{}]
    for axis in axes:
        points = [dict(p, **{name: v}) for p in points for name, v in axis]

    results = []
    for point in points:
        A = fam.instantiate(point)
        bad = identity_residual(A)
        results.append({
            "point": {k: _scalarize(v) for k, v in point.items()},
            "passes": not bad,
            "first_violation": bad[0][0] if bad else None,
        })
    return results


def _scalarize(v):
    return v if isinstance(v, CycScalar) else CycScalar.rational(v)


def scan_csv(results):
    """CSV rendering: point, pass, first violating triple."""
    lines = ["point,pass,first_violation"]
    for r in results:
        pt = " ".join(f"{k}={str(v)}" for k, v in sorted(r["point"].items()))
        viol = " ".join(r["first_violation"]) if r["first_violation"] else ""
        lines.append(f"{pt or '-'},{'1' if r['passes'] else '0'},{viol}")
    return "\n".join(lines)


def family_from_json(space: GradedSpace, eps: Bicharacter, obj) -> FamilySpec:
    """Family description: {"free": [{"left","right","result","parameter"}],
    "fixed": [{"left","right","result","value"}]}."""
    if not isinstance(obj, dict):
        raise VarietyError("family must be an object")

    def slot(entry):
        try:
            i = space.find(entry["left"])
            j = space.find(entry["right"])
            k = space.find(entry["result"])
        except (KeyError, TypeError) as exc:
            raise VarietyError(f"bad family slot {entry}: {exc}") from exc
        return (i, j, k)

    def value(entry):
        try:
            return parse_scalar(entry["value"])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise VarietyError(f"fixed slot {entry} needs a scalar value") from exc

    free, fixed = obj.get("free", []), obj.get("fixed", [])
    if not isinstance(free, list) or not isinstance(fixed, list):
        raise VarietyError("free and fixed must be lists of slots")
    free = [(slot(e), e.get("parameter")) for e in free]
    for (_, name) in free:
        if not isinstance(name, str) or not name:
            raise VarietyError("each free slot needs a parameter name")
    fixed = {slot(e): value(e) for e in fixed}
    return FamilySpec(space, eps, free, fixed)


def parse_grid(obj):
    """{"c1": ["-2", "1/2", ...], ...} with scalars in fraction syntax."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise VarietyError("grid must map parameter names to value lists")
    out = {}
    for name, vals in obj.items():
        if not isinstance(vals, list):
            raise VarietyError(f"grid for {name} must be a list")
        out[name] = [parse_scalar(v) for v in vals]
    return out
