"""Grid exploration of low-dimensional left-symmetric color algebra varieties.

The grading forces most structure constants to vanish: e_i e_j can only hit
basis vectors of degree |e_i| + |e_j|.  `allowed_products` computes that
mask, `FamilySpec` describes a parameterized family living on it (`cli`
reads families and grids from a problem file), and `scan_family`
instantiates the family on an exact rational grid and reports where the
left-symmetric identity holds, checking each point with
`validate_left_symmetric`, the validator every other command runs.  The
tests check that validator against an independent dense reference, both
directly and at scan points.  Residuals are quadratic in at most three
parameters at this scale, so exact grid evaluation recovers the solution
structure (typically coordinate axes) without polynomial solving.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .algebra import ColorAlgebra, validate_left_symmetric
from .glinalg import GradedSpace
from .grading import Bicharacter
from .scalars import CycScalar

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
    fixed, some free parameters, all confined to the grading mask.
    ``free`` lists (slot, parameter name) pairs and ``fixed`` maps slots
    to scalars, a slot being a basis index triple (i, j, k).  A slot
    carries at most one free parameter; a fixed value on a free slot is
    added to it."""

    def __init__(self, space: GradedSpace, eps: Bicharacter,
                 free, fixed=None):
        if space.dim not in (2, 3):
            raise VarietyError("families are 2- or 3-dimensional")
        mask = allowed_products(space)
        for slot, _ in free:
            if slot not in mask:
                raise VarietyError(
                    f"slot {slot} violates the grading; it is forced zero")
        names = [name for _, name in free]
        if len(set(names)) != len(names):
            raise VarietyError("duplicate parameter names")
        if len(names) > 3:
            raise VarietyError("at most 3 parameters")
        # two parameters on one slot would add up, so the scan would walk
        # a grid whose members depend only on their sum
        slots = {}
        for slot, name in free:
            first = slots.setdefault(slot, name)
            if first != name:
                raise VarietyError(
                    f"slot {slot} has two free parameters, {first} and {name}")
        fixed = dict(fixed or {})
        for slot in fixed:
            if slot not in mask:
                raise VarietyError(f"fixed slot {slot} violates the grading")
        self.space = space
        self.eps = eps
        self.free = list(free)
        self.fixed = fixed

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


def scan_family(fam: FamilySpec, grid=None):
    """Evaluate the left-symmetric identity at every grid point.

    grid: dict mapping parameter name to a list of scalars (Fractions or
    CycScalars); missing parameters fall back to DEFAULT_GRID.  Points are
    the cartesian product; a cap on their number (DEFAULT_CAP = 10^4, or
    the integer in COLORHOM_MAX_GRID) guards against accidental blowups.

    Returns a list of {"point", "passes", "first_violation"} dicts, exact
    at every point.  A family with no parameters yields the single fixed
    member.
    """
    grid = dict(grid or {})
    raw = os.environ.get("COLORHOM_MAX_GRID", DEFAULT_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise VarietyError(
            f"COLORHOM_MAX_GRID must be an integer, got {raw!r}") from None
    axes = [(name, grid.get(name, DEFAULT_GRID)) for name in fam.parameters]
    total = 1
    for _, values in axes:
        total *= len(values)
    if total > cap:
        raise VarietyError(f"grid of {total} points exceeds the cap {cap}")

    points = [{}]
    for name, values in axes:
        # each value becomes a CycScalar once, here, not at every point
        values = [v if isinstance(v, CycScalar) else CycScalar.rational(v)
                  for v in values]
        points = [dict(p, **{name: v}) for p in points for v in values]

    results = []
    for point in points:
        A = fam.instantiate(point)
        bad = validate_left_symmetric(A)
        results.append({
            "point": point,
            "passes": not bad,
            "first_violation": bad[0][0] if bad else None,
        })
    return results


def scan_csv(results):
    """CSV rendering: point, pass, first violating triple."""
    lines = ["point,pass,first_violation"]
    for r in results:
        pt = " ".join(f"{k}={str(v)}" for k, v in sorted(r["point"].items()))
        viol = " ".join(r["first_violation"]) if r["first_violation"] else ""
        lines.append(f"{pt or '-'},{'1' if r['passes'] else '0'},{viol}")
    return "\n".join(lines)
