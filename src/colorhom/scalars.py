"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Every scalar in this package -- bicharacter values, structure constants,
matrix entries -- is a :class:`CycScalar`: an element of Q(zeta_m) stored as
integer coordinates in the power basis 1, zeta, ..., zeta^(phi(m)-1) over
one positive common denominator.  Arithmetic is exact and runs on Python
integers: Phi_m is monic with integer coefficients, so products reduce by an
integer table, and inverses are products of Galois conjugates divided by the
rational norm.  When phi(m) = 2 (m = 3, 4, 6) every operation is closed form
on the two coordinates: sums, negations, and shifts and scalings by a
rational act coordinatewise, and with zeta^2 = r0 + r1*zeta read once from
the reduction table,

    (a0 + a1*zeta)(b0 + b1*zeta)
        = (a0*b0 + r0*a1*b1) + (a0*b1 + a1*b0 + r1*a1*b1)*zeta,
    1 / (a0 + a1*zeta)
        = ((a0 + r1*a1) - a1*zeta) / (a0^2 + r1*a0*a1 - r0*a1^2),

the conjugate over the norm.  The one update of sparse elimination and
accumulation, v + f*b, is fused (:func:`_fma`): for v = nv/dv, f = nf/df
and b = nb/db, with d = df*db,

    v + f*b = (nv*d + (nf*nb)*dv) / (dv*d),   or (nv + nf*nb) / d when dv = d,

where nf*nb is the product above, or a scaling of the other operand when
f or b is rational, and a rational nv is (nv, 0).  On three rationals the
same formula runs on single ints.  The result is reduced once, where
``v + f * b`` builds a product and reduces twice.

Two scalars are equal iff their coordinates agree after lifting to a
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
and zeta_2 = -1), and any value whose coordinates are rational is normalized
down to conductor 1, so rational arithmetic never drags a field extension
along.  ``fractions.Fraction`` appears only at the text boundary, and
only where the text needs it:

* reading: an int or a Fraction is read by its parts, and a string that
  is an ASCII integer (surrounding whitespace, at most one leading sign)
  by ``int``.  Every other string ("p/q", decimals, exponents,
  underscores, non-ASCII digits) goes through one ``Fraction``, and so
  does each coefficient of a ``{"conductor", "coeffs"}`` object;
* printing: a rational value prints from its parts, as ``n`` or
  ``n/d``.  A value with m > 1 prints its coordinates through the
  read-only ``coeffs`` view, after the smallest field that holds it is
  found by an elimination over Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


# the largest conductor the arithmetic accepts: the power table of Q(zeta_m)
# holds m * phi(m) ints, fewer than 10^6 up to here
MAX_CONDUCTOR = 1000


class ConductorError(ValueError):
    """A conductor above MAX_CONDUCTOR, refused before any table is built."""

    def __init__(self, m: int):
        super().__init__(f"conductor {m} exceeds the supported maximum "
                         f"{MAX_CONDUCTOR}")


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
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by dividing x^m - 1 by the cyclotomic polynomials of the proper
    divisors of m; every divisor is monic, so the division stays in Z[x].

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    p = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_polynomial(d)
            deg = len(div) - 1
            q = [0] * (len(p) - deg)
            for k in range(len(q) - 1, -1, -1):
                c = q[k] = p[k + deg]
                if c:
                    for i, b in enumerate(div):
                        p[k + i] -= c * b
            if any(p[:deg]):
                raise AssertionError("cyclotomic division left a remainder")
            p = q
    return tuple(p)


@lru_cache(maxsize=None)
def _powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Integer coordinates of zeta_m^k in the power basis, for k in range(m).

    Every table of the arithmetic is built from this one, so a conductor
    above MAX_CONDUCTOR is refused here, whichever operation asked for it.
    """
    if m > MAX_CONDUCTOR:
        raise ConductorError(m)
    phi = euler_phi(m)
    low = cyclotomic_polynomial(m)[:phi]
    cur = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(m):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            # x^phi = -(Phi_m - x^phi), since Phi_m is monic
            cur = [a - top * c for a, c in zip(cur, low)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[int, ...], ...]:
    # _reduction_table(m)[k] = coordinates of x^(phi(m)+k) mod Phi_m, for the
    # overflow powers of a product of two reduced elements
    phi = euler_phi(m)
    return tuple(_powers(m)[k % m] for k in range(phi, 2 * phi - 1))


# (r0, r1) with zeta_m^2 = r0 + r1*zeta_m, for the m with phi(m) = 2
_QUAD = {m: _reduction_table(m)[0] for m in (3, 4, 6)}


@lru_cache(maxsize=None)
def _lift_table(m: int, big: int) -> tuple[tuple[int, ...], ...]:
    """Row i: coordinates in Q(zeta_big) of zeta_m^i = zeta_big^(i*big/m)."""
    step = big // m
    return tuple(_powers(big)[i * step % big] for i in range(euler_phi(m)))


@lru_cache(maxsize=None)
def _conjugations(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each k in (Z/m)^x other than 1, the rows of sigma_k: zeta -> zeta^k."""
    pw = _powers(m)
    return tuple(tuple(pw[i * k % m] for i in range(euler_phi(m)))
                 for k in range(2, m) if gcd(k, m) == 1)


def _apply(rows, num) -> list[int]:
    """sum_i num[i] * rows[i]: an integer linear map on coordinates."""
    out = [0] * len(rows[0])
    for c, row in zip(num, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return out


def _mul_num(m: int, a, b) -> list[int]:
    """Product of two integer coordinate vectors of Q(zeta_m), reduced."""
    phi = len(a)
    prod = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    out = prod[:phi]
    for c, row in zip(prod[phi:], _reduction_table(m)):
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return out


class CycScalar:
    """An element of the cyclotomic field Q(zeta_m), canonically reduced.

    Immutable.  ``m`` is the conductor, ``num`` a tuple of Python ints (the
    phi(m) coordinates in the power basis of Q(zeta_m)) and ``den`` one
    positive int, with ``gcd(den, *num) == 1``; the value is
    ``sum(num[i] * zeta_m^i) / den``.  Rational values always carry
    conductor 1 and ``num == (numerator,)``, so zero is ``(1, (0,), 1)``.
    Mixed-conductor arithmetic lifts both operands to the lcm conductor, and
    results keep that conductor unless they collapse to a rational; a
    rational operand scales or shifts the other's numerators directly.  A
    value prints in the smallest cyclotomic field that holds it, so equal
    values print alike whatever arithmetic produced them.

    >>> a = root_of_unity(3, 1)
    >>> a * a * a
    1
    >>> a + a*a
    -1
    >>> a * root_of_unity(4, 1) * root_of_unity(4, 3)
    z3
    >>> CycScalar.rational("1/2") + CycScalar.rational("1/3")
    5/6
    >>> x = root_of_unity(3, 1) / 2 + CycScalar.rational("1/4")
    >>> x.m, x.num, x.den
    (3, (1, 2), 4)
    >>> CycScalar(3, [2, 4], 8) == x
    True
    """

    __slots__ = ("m", "num", "den")
    __hash__ = None  # semantic equality spans conductors; no canonical hash

    def __new__(cls, m: int, num, den: int = 1):
        # num: the phi(m) integer coordinates; den: a positive integer
        return _make(m, tuple(num), den)

    def __setattr__(self, *_):
        raise AttributeError("CycScalar is immutable")

    @staticmethod
    def rational(q) -> "CycScalar":
        """q as a scalar: an int or a Fraction by its parts, an ASCII
        integer string by ``int``, and anything else through one
        :func:`_as_fraction`."""
        cls = q.__class__
        if cls is int:
            return _raw(1, (q,), 1)
        if cls is str:
            t = q.strip()
            # an optional sign, then ASCII digits only: "--1", "1_000" and
            # non-ASCII digits take the Fraction path
            if t.isascii() and (t[1:] if t[:1] in "+-" else t).isdigit():
                return _raw(1, (int(t),), 1)
        if cls is not Fraction:
            q = _as_fraction(q)
        return _raw(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "CycScalar":
        return _ZERO

    @staticmethod
    def one() -> "CycScalar":
        return _ONE

    # -- representation ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions (for printing)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return self.m == 1 and not self.num[0]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "CycScalar":
        return _add(self, other, 1)

    def __sub__(self, other) -> "CycScalar":
        return _add(self, other, -1)

    def __neg__(self) -> "CycScalar":
        m, num, den = self.m, self.num, self.den
        if m == 1:
            n = num[0]
            if den == 1 and (n == 1 or n == -1):
                return _MINUS_ONE if n == 1 else _ONE
            return _raw(1, (-n,), den)
        if len(num) == 2:
            return _raw(m, (-num[0], -num[1]), den)
        return _raw(m, tuple(-c for c in num), den)

    def __mul__(self, other) -> "CycScalar":
        if other.__class__ is not CycScalar:
            other = CycScalar.rational(other)
        a, b = self, other
        if a.m == 1:
            a, b = b, a
        n, d = b.num[0], b.den
        if b.m == 1:
            if d == 1 and (n == 1 or n == -1):
                # a factor of +-1: the other operand or its negation
                return a if n == 1 else -a
            d *= a.den
            if a.m == 1:
                # both rational: plain integers
                k = a.num[0]
                if a.den == 1 and (k == 1 or k == -1):
                    return b if k == 1 else -b
                n *= k
                if d == 1:
                    return _raw(1, (n,), 1)
                g = gcd(n, d)
                return _raw(1, (n // g,), d // g)
            if not n:
                return _ZERO
            # rational times cyclotomic: scale the numerators, no lift
            num = a.num
            if len(num) == 2:
                return _make2(a.m, num[0] * n, num[1] * n, d)
            return _make(a.m, num if n == 1 else [c * n for c in num], d)
        d *= a.den
        m = a.m
        if m == b.m:
            an, bn = a.num, b.num
        else:
            m = lcm(m, b.m)
            an, bn = _lift(a, m), _lift(b, m)
        if len(an) != 2:
            return _make(m, _mul_num(m, an, bn), d)
        # the closed form of the module docstring
        r0, r1 = _QUAD[m]
        (a0, a1), (b0, b1) = an, bn
        t = a1 * b1
        return _make2(m, a0 * b0 + r0 * t, a0 * b1 + a1 * b0 + r1 * t, d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "CycScalar":
        return CycScalar.rational(other) - self

    def __truediv__(self, other) -> "CycScalar":
        if other.__class__ is not CycScalar:
            other = CycScalar.rational(other)
        if other.m == 1 and not other.num[0]:
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        inv = other._inverse()
        return inv if self is _ONE else self * inv

    def __rtruediv__(self, other) -> "CycScalar":
        return CycScalar.rational(other) / self

    def _inverse(self) -> "CycScalar":
        # a * prod_{k != 1} sigma_k(a) is the norm N(a), a nonzero rational,
        # so 1/a = den * prod sigma_k(num) / N(num); for m > 2, N(num) is a
        # product of |sigma(num)|^2 over conjugate pairs, hence positive
        m, num, den = self.m, self.num, self.den
        if m == 1:
            n = num[0]
            return _raw(1, (den,), n) if n > 0 else _raw(1, (-den,), -n)
        if len(num) == 2:
            # the conjugate over the norm (module docstring)
            r0, r1 = _QUAD[m]
            a0, a1 = num
            c0 = a0 + r1 * a1
            n = a0 * c0 - r0 * a1 * a1
            return _make2(m, c0 * den, -a1 * den, n)
        prod = None
        for rows in _conjugations(m):
            conj = _apply(rows, num)
            prod = conj if prod is None else _mul_num(m, prod, conj)
        norm = _mul_num(m, num, prod)
        if any(norm[1:]):
            raise AssertionError("the conjugate product is not rational")
        return _make(m, tuple(c * den for c in prod), norm[0])

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
        if other.__class__ is not CycScalar:
            # a bool, a float or a non-number is no scalar (TypeError), and
            # text that does not parse no value
            try:
                other = CycScalar.rational(other)
            except (TypeError, ValueError, ZeroDivisionError):
                return NotImplemented
        if self.m == other.m:
            return self.num == other.num and self.den == other.den
        if self.m == 1 or other.m == 1:
            # a canonical value with m > 1 is not rational
            return False
        m = lcm(self.m, other.m)
        return ([c * other.den for c in _lift(self, m)]
                == [c * self.den for c in _lift(other, m)])

    def __repr__(self) -> str:
        s = _in_smallest_field(self)
        if s.m == 1:
            return _rational_text(s)
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
        return " + ".join(terms).replace("+ -", "- ")


_new = object.__new__
_set_m = CycScalar.m.__set__
_set_num = CycScalar.num.__set__
_set_den = CycScalar.den.__set__


def _raw(m: int, num: tuple[int, ...], den: int) -> CycScalar:
    """A CycScalar from parts already in canonical form."""
    s = _new(CycScalar)
    _set_m(s, m)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _make(m: int, num, den: int) -> CycScalar:
    """Canonical form of sum(num[i] * zeta_m^i) / den, for num of length
    phi(m) and den > 0: rational values drop to conductor 1, then the gcd of
    den and the numerators is divided out."""
    if m != 1 and (m == 2 or not any(num[1:])):
        m, num = 1, num[:1]
    if m == 1:
        n = num[0]
        if den != 1:
            g = gcd(n, den)
            if g != 1:
                n //= g
                den //= g
        return _raw(1, (n,), den)
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _raw(m, tuple(num), den)


def _make2(m: int, a0: int, a1: int, den: int) -> CycScalar:
    """_make for phi(m) = 2: (a0 + a1*zeta_m) / den, canonical."""
    if den != 1:
        g = gcd(den, a0, a1)
        if g != 1:
            a0 //= g
            a1 //= g
            den //= g
    return _raw(m, (a0, a1), den) if a1 else _raw(1, (a0,), den)


def _add(x: CycScalar, y, s: int) -> CycScalar:
    """x + s*y for s = 1 or -1."""
    if y.__class__ is not CycScalar:
        y = CycScalar.rational(y)
    dx, dy = x.den, y.den
    m = x.m
    if m != y.m:
        if m == 1 or y.m == 1:
            # rational plus cyclotomic: shift the constant coordinate of
            # u * c by n, all over dx * dy
            if m == 1:
                m, u, c, n = y.m, y.num, s * dx, x.num[0] * dy
            else:
                u, c, n = x.num, dy, s * y.num[0] * dx
            if len(u) == 2:
                return _make2(m, u[0] * c + n, u[1] * c, dx * dy)
            a = [v * c for v in u]
            a[0] += n
            return _make(m, a, dx * dy)
        m = lcm(m, y.m)
        xn, yn = _lift(x, m), _lift(y, m)
    else:
        xn, yn = x.num, y.num
        if m == 1:
            if dx == dy:
                n = xn[0] + s * yn[0]
                if dx == 1:
                    return _raw(1, (n,), 1)
            else:
                n = xn[0] * dy + s * yn[0] * dx
                dx *= dy
            g = gcd(n, dx)
            return _raw(1, (n // g,), dx // g)
    if len(xn) == 2:
        (x0, x1), (y0, y1) = xn, yn
        if dx == dy:
            return _make2(m, x0 + s * y0, x1 + s * y1, dx)
        e = s * dx
        return _make2(m, x0 * dy + y0 * e, x1 * dy + y1 * e, dx * dy)
    if dx == dy:
        return _make(m, [a + s * b for a, b in zip(xn, yn)], dx)
    return _make(m, [a * dy + s * b * dx for a, b in zip(xn, yn)], dx * dy)


def _fma(v: CycScalar, f: CycScalar, b: CycScalar) -> CycScalar:
    """v + f * b, the one update of sparse elimination and accumulation,
    reduced to canonical form once.

    On three rationals it runs on plain ints; when phi(m) = 2 and each
    operand is rational or of conductor m, it takes the closed form of the
    module docstring.  Every other case returns ``v + f * b``.  Canonical
    forms are unique, so the result is the one ``v + f * b`` gives."""
    vm, fm, bm = v.m, f.m, b.m
    if vm == 1 and fm == 1 and bm == 1:
        n, dv, d = v.num[0], v.den, f.den * b.den
        p = f.num[0] * b.num[0]
        if dv == d:
            n += p
            if d == 1:
                return _raw(1, (n,), 1)
        else:
            n = n * d + p * dv
            d *= dv
        g = gcd(n, d)
        return _raw(1, (n // g,), d // g)
    # the conductor of the first non-rational operand
    m = fm if fm != 1 else bm if bm != 1 else vm
    if m not in _QUAD or (bm != 1 and bm != m) or (vm != 1 and vm != m):
        return v + f * b
    # f * b = (p0 + p1*zeta) / d
    d = f.den * b.den
    if fm == 1:
        k = f.num[0]
        if bm == 1:
            p0, p1 = k * b.num[0], 0
        else:
            b0, b1 = b.num
            p0, p1 = k * b0, k * b1
    elif bm == 1:
        k = b.num[0]
        f0, f1 = f.num
        p0, p1 = k * f0, k * f1
    else:
        r0, r1 = _QUAD[m]
        (f0, f1), (b0, b1) = f.num, b.num
        t = f1 * b1
        p0, p1 = f0 * b0 + r0 * t, f0 * b1 + f1 * b0 + r1 * t
    dv = v.den
    if vm == 1:
        v0, v1 = v.num[0], 0
    else:
        v0, v1 = v.num
    if dv == d:
        return _make2(m, v0 + p0, v1 + p1, d)
    return _make2(m, v0 * d + p0 * dv, v1 * d + p1 * dv, dv * d)


def _rational_text(s: CycScalar) -> str:
    """A rational s as ``n`` or ``n/d``; canonical parts print as
    ``str(Fraction(n, d))`` does."""
    n, d = s.num[0], s.den
    return str(n) if d == 1 else f"{n}/{d}"


def _lift(s: CycScalar, m: int):
    """Integer coordinates of s.num in Q(zeta_m), for m a multiple of s.m."""
    if s.m == m:
        return s.num
    return _apply(_lift_table(s.m, m), s.num)


def _as_fraction(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise TypeError(f"non-rational coefficient encoding: {v!r}")
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v.strip())
    raise TypeError(f"non-rational coefficient encoding: {v!r}")


def _subfield_coords(s: CycScalar, d: int):
    """Coordinates of s in the power basis of Q(zeta_d), for d dividing
    s.m, or None when s does not lie in that subfield."""
    cols = _lift_table(d, s.m)
    # solve sum_i x_i cols[i] = s by elimination on the augmented rows; the
    # columns are independent, so column i pivots in row i
    rows = [[Fraction(col[r]) for col in cols] + [c]
            for r, c in enumerate(s.coeffs)]
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
    return [row[-1] for row in rows[:len(cols)]]


def _in_smallest_field(s: CycScalar) -> CycScalar:
    """s in the smallest cyclotomic field that holds it, for printing.
    Conductors = 2 mod 4 are skipped: Q(zeta_2k) = Q(zeta_k) for odd k."""
    for d in range(3, s.m):
        if s.m % d == 0 and d % 4 != 2:
            coords = _subfield_coords(s, d)
            if coords is not None:
                return cyc_make(d, coords)
    return s


_ZERO = _raw(1, (0,), 1)
_ONE = _raw(1, (1,), 1)
_MINUS_ONE = _raw(1, (-1,), 1)


def cyc_make(m: int, coeffs) -> CycScalar:
    """Canonical reduction of sum(coeffs[i] * zeta_m^i) in Q(zeta_m).

    >>> cyc_make(4, [0, 0, 1])
    -1
    >>> cyc_make(1, ["5/3"])
    5/3
    """
    # bool is an int subclass; JSON true must not read as conductor 1
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"conductor must be a positive integer, got {m!r}")
    fracs = [_as_fraction(c) for c in coeffs]
    if not fracs:
        return _ZERO
    den = lcm(*(f.denominator for f in fracs))
    pw = _powers(m)
    # zeta_m^m = 1, so coefficient i lands on the reduced power i mod m
    num = _apply([pw[i % m] for i in range(len(fracs))],
                 [f.numerator * (den // f.denominator) for f in fracs])
    return _make(m, num, den)


def root_of_unity(m: int, k: int) -> CycScalar:
    """zeta_m^k, reduced.  Satisfies root_of_unity(m, k)**m == 1.

    >>> root_of_unity(3, 4) == root_of_unity(3, 1)
    True
    >>> root_of_unity(6, 3)
    -1
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"conductor must be a positive integer, got {m!r}")
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"exponent must be an integer, got {k!r}")
    return _make(m, _powers(m)[k % m], 1)


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
        # a string or an object would iterate as coefficients
        if not isinstance(obj["coeffs"], list):
            raise ValueError(f"coeffs must be a list, got {obj['coeffs']!r}")
        return cyc_make(obj["conductor"], obj["coeffs"])
    return CycScalar.rational(obj)


def scalar_to_json(s: CycScalar):
    s = _in_smallest_field(s)
    if s.m == 1:
        return _rational_text(s)
    return {"conductor": s.m, "coeffs": [str(c) for c in s.coeffs]}
