"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Every scalar in this package -- bicharacter values, structure constants,
matrix entries -- is a :class:`CycScalar`: an element of Q(zeta_m) stored as
its coordinate vector in the power basis 1, zeta, ..., zeta^(phi(m)-1), with
arbitrary-precision rational coordinates.  Arithmetic is exact; two scalars
are equal iff their reduced coordinate vectors agree after lifting to a
common conductor.

    >>> cyc_make(4, [0, 0, 1])          # zeta_4 squared
    -1
    >>> cyc_make(3, [1, 1, 1])          # 1 + zeta_3 + zeta_3^2
    0
    >>> root_of_unity(2, 1)
    -1
    >>> root_of_unity(8, 1) * root_of_unity(8, 1) == root_of_unity(4, 1)
    True
    >>> (CycScalar.rational(1) / root_of_unity(5, 1)) ** 5
    1

Conductors m = 1 and m = 2 degenerate to plain rationals (phi(1) = phi(2) = 1
and zeta_2 = -1), and any value whose reduced coordinates are rational is
normalized down to conductor 1, so rational arithmetic never drags a field
extension along.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

_F0 = Fraction(0)
_F1 = Fraction(1)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [_F0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _trim(out)


def _poly_divmod(p: list[Fraction], d: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder in Q[x]; d must be nonzero."""
    r = list(p)
    q = [_F0] * max(len(p) - len(d) + 1, 0)
    lead = d[-1]
    while len(r) >= len(d) and _trim(r):
        if not r:
            break
        shift = len(r) - len(d)
        c = r[-1] / lead
        q[shift] = c
        for i, b in enumerate(d):
            r[shift + i] -= c * b
        _trim(r)
    return _trim(q), _trim(r)


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    n, result, p = m, m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the cyclotomic polynomials of the proper
    divisors of m; exact, table-free, and fast for the conductors that occur
    here (m well under 100).

    >>> [int(c) for c in cyclotomic_polynomial(1)]
    [-1, 1]
    >>> [int(c) for c in cyclotomic_polynomial(12)]
    [1, 0, -1, 0, 1]
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    num = [_F0] * (m + 1)
    num[0], num[m] = Fraction(-1), _F1
    den = [_F1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    q, r = _poly_divmod(num, den)
    if r:
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(q)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    # _reduction_table(m)[k] = coordinates of x^(phi(m)+k) mod Phi_m, for the
    # overflow powers produced by multiplying two reduced elements.
    phi = euler_phi(m)
    mod = list(cyclotomic_polynomial(m))
    rows = []
    # x^phi = -(Phi_m - x^phi) since Phi_m is monic
    cur = [-c for c in mod[:-1]]
    for _ in range(phi - 1 if phi > 1 else 1):
        rows.append(tuple(cur))
        nxt = [_F0] + cur[:-1]
        top = cur[-1]
        if top:
            head = rows[0]
            nxt = [a + top * b for a, b in zip(nxt, head)]
        cur = nxt
    return tuple(rows)


def _reduce_coeffs(m: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(m)
    out = list(coeffs[:phi]) + [_F0] * max(0, phi - len(coeffs))
    if len(coeffs) > phi:
        table = _reduction_table(m)
        tail = coeffs[phi:]
        for k, c in enumerate(tail):
            if not c:
                continue
            if k < len(table):
                row = table[k]
            else:
                # powers at or beyond 2*phi(m) - 1: fall back to x^k mod Phi_m
                p = [_F0] * (phi + k)
                p.append(_F1)
                _, row = _poly_divmod(p, list(cyclotomic_polynomial(m)))
                row = row + [_F0] * (phi - len(row))
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out)


class CycScalar:
    """An element of the cyclotomic field Q(zeta_m), canonically reduced.

    Immutable.  ``m`` is the conductor and ``coeffs`` the coordinates in the
    power basis of Q(zeta_m); rational values always carry conductor 1.
    Mixed-conductor arithmetic lifts both operands to the lcm conductor, and
    results keep that conductor unless they collapse to a rational.  A value
    prints in the smallest cyclotomic field that holds it, so equal values
    print alike whatever arithmetic produced them.

    >>> a = root_of_unity(3, 1)
    >>> a * a * a
    1
    >>> a + a*a
    -1
    >>> a * root_of_unity(4, 1) * root_of_unity(4, 3)
    z3
    >>> CycScalar.rational("1/2") + CycScalar.rational("1/3")
    5/6
    """

    __slots__ = ("m", "coeffs")
    __hash__ = None  # semantic equality spans conductors; no canonical hash

    def __init__(self, m: int, coeffs: tuple[Fraction, ...]):
        # assumes coeffs already reduced; use the constructors below
        if m == 2:
            # zeta_2 = -1: the basis is {1}, fold into conductor 1
            object.__setattr__(self, "m", 1)
            object.__setattr__(self, "coeffs", coeffs)
            return
        if m > 2 and not any(coeffs[1:]):
            object.__setattr__(self, "m", 1)
            object.__setattr__(self, "coeffs", (coeffs[0],))
            return
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("CycScalar is immutable")

    @staticmethod
    def rational(q) -> "CycScalar":
        return CycScalar(1, (_as_fraction(q),))

    @staticmethod
    def zero() -> "CycScalar":
        return _ZERO

    @staticmethod
    def one() -> "CycScalar":
        return _ONE

    # -- representation ------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return self.m == 1

    # -- arithmetic ------------------------------------------------------

    def _align(self, other) -> tuple[int, list[Fraction], list[Fraction]]:
        """Common conductor and coordinate lists of both operands in it."""
        if not isinstance(other, CycScalar):
            other = CycScalar.rational(other)
        if self.m == other.m:
            return self.m, list(self.coeffs), list(other.coeffs)
        m = lcm(self.m, other.m)
        return m, _coords_in(self, m), _coords_in(other, m)

    def __add__(self, other) -> "CycScalar":
        m, ca, cb = self._align(other)
        return CycScalar(m, tuple(x + y for x, y in zip(ca, cb)))

    def __sub__(self, other) -> "CycScalar":
        m, ca, cb = self._align(other)
        return CycScalar(m, tuple(x - y for x, y in zip(ca, cb)))

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.m, tuple(-x for x in self.coeffs))

    def __mul__(self, other) -> "CycScalar":
        m, ca, cb = self._align(other)
        if m == 1:
            return CycScalar(1, (ca[0] * cb[0],))
        return _make_reduced(m, _poly_mul(ca, cb))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "CycScalar":
        return CycScalar.rational(other) - self

    def __truediv__(self, other) -> "CycScalar":
        if not isinstance(other, CycScalar):
            other = CycScalar.rational(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        if other.m == 1:
            inv = CycScalar(1, (1 / other.coeffs[0],))
        else:
            inv = other._inverse()
        return self * inv

    def __rtruediv__(self, other) -> "CycScalar":
        return CycScalar.rational(other) / self

    def _inverse(self) -> "CycScalar":
        # extended Euclid in Q[x]: u*b + v*Phi_m = 1, so u = b^(-1) mod Phi_m
        mod = list(cyclotomic_polynomial(self.m))
        r0, r1 = mod, _trim(list(self.coeffs))
        s0, s1 = [], [_F1]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            qs = _poly_mul(q, s1)
            s_new = [a - b for a, b in
                     zip(s0 + [_F0] * max(0, len(qs) - len(s0)),
                         qs + [_F0] * max(0, len(s0) - len(qs)))]
            s0, s1 = s1, _trim(s_new)
        # r0 is the (constant) gcd; Phi_m is irreducible so r0 in Q*
        if len(r0) != 1:
            raise AssertionError("element shares a factor with Phi_m")
        inv = [c / r0[0] for c in s0]
        return _make_reduced(self.m, inv)

    def __pow__(self, n: int) -> "CycScalar":
        if n < 0:
            return (_ONE / self) ** (-n)
        result, base = _ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, str)):
            other = CycScalar.rational(other)
        if not isinstance(other, CycScalar):
            return NotImplemented
        _, ca, cb = self._align(other)
        return ca == cb

    def __repr__(self) -> str:
        s = _in_smallest_field(self)
        if s.m == 1:
            return str(s.coeffs[0])
        terms = []
        for i, c in enumerate(s.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{s.m}" if i == 1 else f"z{s.m}^{i}"
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        if not terms:
            return "0"
        return " + ".join(terms).replace("+ -", "- ")


def _as_fraction(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise TypeError(f"non-rational coefficient encoding: {v!r}")
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v.strip())
    raise TypeError(f"non-rational coefficient encoding: {v!r}")


def _make_reduced(m: int, coeffs: list[Fraction]) -> CycScalar:
    return CycScalar(m, _reduce_coeffs(m, coeffs))


def _coords_in(s: CycScalar, m: int) -> list[Fraction]:
    """Coordinates of s in the power basis of Q(zeta_m) (m a multiple of s.m),
    bypassing the rational-collapse canonicalization of CycScalar itself."""
    phi = euler_phi(m)
    if s.m == 1:
        return [s.coeffs[0]] + [_F0] * (phi - 1)
    step = m // s.m
    raw = [_F0] * ((euler_phi(s.m) - 1) * step + 1)
    for i, c in enumerate(s.coeffs):
        raw[i * step] = c
    return list(_reduce_coeffs(m, raw))


def _subfield_coords(s: CycScalar, d: int):
    """Coordinates of s in the power basis of Q(zeta_d), for d dividing
    s.m, or None when s does not lie in that subfield."""
    cols = [_coords_in(root_of_unity(d, i), s.m) for i in range(euler_phi(d))]
    # solve sum_i x_i cols[i] = s by elimination on the augmented rows; the
    # columns are independent, so column i pivots in row i
    rows = [[col[r] for col in cols] + [c] for r, c in enumerate(s.coeffs)]
    for i in range(len(cols)):
        p = next(r for r in range(i, len(rows)) if rows[r][i])
        rows[i], rows[p] = rows[p], rows[i]
        inv = 1 / rows[i][i]
        rows[i] = [v * inv for v in rows[i]]
        for r in range(len(rows)):
            if r != i and rows[r][i]:
                f = rows[r][i]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    if any(row[-1] for row in rows[len(cols):]):
        return None
    return tuple(row[-1] for row in rows[:len(cols)])


def _in_smallest_field(s: CycScalar) -> CycScalar:
    """s in the smallest cyclotomic field that holds it, for printing.
    Conductors = 2 mod 4 are skipped: Q(zeta_2k) = Q(zeta_k) for odd k."""
    for d in range(3, s.m):
        if s.m % d == 0 and d % 4 != 2:
            coords = _subfield_coords(s, d)
            if coords is not None:
                return CycScalar(d, coords)
    return s


_ZERO = CycScalar(1, (_F0,))
_ONE = CycScalar(1, (_F1,))


def cyc_make(m: int, coeffs) -> CycScalar:
    """Canonical reduction of sum(coeffs[i] * zeta_m^i) in Q(zeta_m).

    >>> cyc_make(4, [0, 0, 1])
    -1
    >>> cyc_make(1, ["5/3"])
    5/3
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"conductor must be a positive integer, got {m!r}")
    fracs = [_as_fraction(c) for c in coeffs]
    return _make_reduced(m, fracs)


def root_of_unity(m: int, k: int) -> CycScalar:
    """zeta_m^k, reduced.  Satisfies root_of_unity(m, k)**m == 1.

    >>> root_of_unity(3, 4) == root_of_unity(3, 1)
    True
    >>> root_of_unity(6, 3)
    -1
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"conductor must be a positive integer, got {m!r}")
    k %= m
    coeffs = [_F0] * k + [_F1]
    return _make_reduced(m, coeffs)


def parse_scalar(obj) -> CycScalar:
    """Read the text encoding: "p/q" (or a bare integer) or
    {"conductor": m, "coeffs": ["p/q", ...]}.

    >>> parse_scalar("-3/2")
    -3/2
    >>> parse_scalar({"conductor": 4, "coeffs": ["0", "1"]}) ** 2
    -1
    """
    if isinstance(obj, dict):
        extra = set(obj) - {"conductor", "coeffs"}
        if extra or "conductor" not in obj or "coeffs" not in obj:
            raise ValueError(f"malformed scalar object: {obj!r}")
        return cyc_make(obj["conductor"], obj["coeffs"])
    return CycScalar.rational(_as_fraction(obj))


def scalar_to_json(s: CycScalar):
    s = _in_smallest_field(s)
    if s.m == 1:
        q = s.coeffs[0]
        return str(q) if q.denominator != 1 else str(q.numerator)
    return {"conductor": s.m, "coeffs": [str(c) for c in s.coeffs]}
