from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from colorhom.bimodule import natural_bimodule
from colorhom.cohomology import build_lsca_complex, cohomology_table, verify_main_theorem
from colorhom.scalars import (
    MAX_CONDUCTOR,
    ConductorError,
    CycScalar,
    _fma,
    _in_smallest_field,
    cyc_make,
    cyclotomic_polynomial,
    euler_phi,
    parse_scalar,
    root_of_unity,
)
from helpers import RefScalar, quantum_exterior_algebra


def test_cyc_make_examples():
    # zeta_4^2 = -1
    assert cyc_make(4, [0, 0, 1]) == CycScalar.rational(-1)
    # 1 + zeta_3 + zeta_3^2 = 0 is the conductor-3 cyclotomic relation
    assert cyc_make(3, [1, 1, 1]).is_zero()
    assert cyc_make(1, ["5/3"]) == CycScalar.rational(Fraction(5, 3))
    assert cyc_make(1, ["5/3"]).m == 1


def test_cyc_make_rejects_bad_input():
    with pytest.raises(ValueError):
        cyc_make(0, [1])
    with pytest.raises(TypeError):
        cyc_make(3, [0.5])
    with pytest.raises(TypeError):
        cyc_make(3, [object()])


def test_conductor_above_the_bound_is_refused_before_any_table():
    assert all(m * euler_phi(m) <= 10 ** 6 for m in range(1, MAX_CONDUCTOR + 1))
    for build in (lambda: cyc_make(10 ** 6, ["1"]),
                  lambda: root_of_unity(10 ** 6, 1),
                  lambda: parse_scalar({"conductor": MAX_CONDUCTOR + 1,
                                        "coeffs": ["0", "1"]})):
        with pytest.raises(ConductorError, match=r"^conductor \d+ exceeds "):
            build()
    # two conductors in range whose lcm is not: refused at the product
    with pytest.raises(ConductorError, match="^conductor 1147 exceeds the "
                                             "supported maximum 1000$"):
        root_of_unity(31, 1) * root_of_unity(37, 1)
    assert issubclass(ConductorError, ValueError)


@pytest.mark.parametrize("m, k", [(True, 1), (3, 1.5), (3, True), (3.0, 1),
                                  ("3", 1), (0, 1), (3, "1")],
                         ids=["bool_conductor", "float_exponent",
                              "bool_exponent", "float_conductor",
                              "str_conductor", "zero_conductor",
                              "str_exponent"])
def test_root_of_unity_rejects_bad_input(m, k):
    # root_of_unity(True, 1) read True as conductor 1; a float exponent
    # failed deep in the power table with an unlocated TypeError
    with pytest.raises(ValueError, match="must be"):
        root_of_unity(m, k)


def test_root_of_unity_examples():
    assert root_of_unity(2, 1) == CycScalar.rational(-1)
    for m in range(1, 13):
        assert root_of_unity(m, 0) == CycScalar.rational(1)
    assert root_of_unity(3, 4) == root_of_unity(3, 1)


def test_roots_of_unity_have_exact_order():
    for m in range(1, 13):
        for k in range(m):
            r = root_of_unity(m, k)
            assert r ** m == CycScalar.rational(1)


def test_cyclotomic_polynomial_vanishes_at_primitive_root():
    for m in range(1, 13):
        z = root_of_unity(m, 1)
        val = CycScalar.zero()
        for i, c in enumerate(cyclotomic_polynomial(m)):
            val = val + CycScalar.rational(c) * z ** i
        assert val.is_zero()


def test_cyclotomic_polynomial_degree_and_known_values():
    for m in (1, 2, 3, 4, 6, 8, 12):
        assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1
    assert [int(c) for c in cyclotomic_polynomial(2)] == [1, 1]
    assert [int(c) for c in cyclotomic_polynomial(6)] == [1, -1, 1]
    # the first cyclotomic polynomial with a coefficient outside {-1,0,1}
    assert any(abs(c) > 1 for c in cyclotomic_polynomial(105))
    with pytest.raises(ValueError, match="^conductor must be a positive integer$"):
        cyclotomic_polynomial(0)


def test_arith_examples():
    one = CycScalar.rational(1)
    for m in (3, 5, 8, 12):
        z = root_of_unity(m, 1)
        # roots of unity invert to their conjugate power
        assert one / z == root_of_unity(m, m - 1)
    # zeta_8 * zeta_8 = zeta_4 lifted into Q(zeta_8)
    z8 = root_of_unity(8, 1)
    sq = z8 * z8
    assert sq == root_of_unity(4, 1)
    assert sq.m == 8
    assert CycScalar.rational("1/2") + CycScalar.rational("1/3") \
        == CycScalar.rational(Fraction(5, 6))


def test_division_by_zero_is_a_distinct_error():
    with pytest.raises(ZeroDivisionError):
        CycScalar.rational(1) / CycScalar.zero()
    with pytest.raises(ZeroDivisionError):
        root_of_unity(5, 2) / (root_of_unity(3, 1) * CycScalar.zero())


def test_equality_with_foreign_values_is_false():
    # True is not the scalar 1, and text that does not parse is no scalar:
    # both used to raise out of == instead of comparing unequal
    one, half = CycScalar.one(), CycScalar.rational("1/2")
    for other in (True, False, "abc", "1/0", "", None, 0.5, object()):
        assert not one == other and one != other
        assert not other == one and other != one
    assert not CycScalar.zero() == False
    assert half == "1/2" and half == " 1/2 " and "1/2" == half
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert one == 1 and -one == -1 and root_of_unity(3, 1) != 1


def test_unknown_op_rejected():
    # only integer powers are defined, and Q(zeta_m) carries no order
    with pytest.raises(TypeError):
        CycScalar.rational(1) ** CycScalar.rational(1)
    with pytest.raises(TypeError):
        CycScalar.rational(1) < CycScalar.rational(2)


_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


@st.composite
def scalars(draw, conductors=(1, 2, 3, 4, 6, 12)):
    m = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(_rationals, min_size=1, max_size=euler_phi(m)))
    return cyc_make(m, coeffs)


@settings(max_examples=120, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms_on_sampled_triples(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * (b / a) == b
        assert (CycScalar.rational(1) / a) * a == CycScalar.rational(1)


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_canonical_form_zero_is_syntactic(a):
    d = a - a
    # the zero test must not need any further normalization
    assert all(cf == 0 for cf in d.coeffs)
    assert d.is_zero()


@settings(max_examples=80, deadline=None)
@given(scalars())
def test_coordinates_read_back(a):
    assert parse_scalar({"conductor": a.m, "coeffs": [str(c) for c in a.coeffs]}) == a


def test_parse_scalar_formats():
    assert parse_scalar("-7/2") == CycScalar.rational(Fraction(-7, 2))
    assert parse_scalar(4) == CycScalar.rational(4)
    z = parse_scalar({"conductor": 4, "coeffs": ["0", "1"]})
    assert z ** 2 == CycScalar.rational(-1)
    with pytest.raises(ValueError):
        parse_scalar({"conductor": 4})
    with pytest.raises(TypeError):
        parse_scalar(0.25)


@pytest.mark.parametrize("obj", [
    {"conductor": True, "coeffs": ["1", "2"]},
    {"conductor": 3, "coeffs": "12"},
    {"conductor": 4, "coeffs": {"0": "1"}},
], ids=["boolean_conductor", "string_coeffs", "object_coeffs"])
def test_parse_scalar_refuses_misread_encodings(obj):
    # each parsed before as a different scalar: 3, 1 + 2*zeta_3 and 0
    with pytest.raises(ValueError):
        parse_scalar(obj)


def _outcome(read, obj):
    """(m, num, den) of the scalar ``read(obj)`` gives, or the type and
    message of the exception it raises."""
    try:
        s = read(obj)
    except Exception as exc:  # any exception: its type and message are compared
        return type(exc), str(exc)
    assert_canonical(s)
    return s.m, s.num, s.den


_padding = st.sampled_from(["", " ", "\t", "\n ", "　"])

# integer text with signs, leading zeros and whitespace, and short strings
# over an alphabet that also spells fractions, decimals, exponents,
# underscores, hex prefixes and non-ASCII digits
_scalar_text = st.one_of(
    st.builds(lambda pre, sign, zeros, n, post: f"{pre}{sign}{'0' * zeros}{n}{post}",
              _padding, st.sampled_from(["", "+", "-", "--", "+-"]),
              st.integers(0, 3), st.integers(0, 10 ** 30), _padding),
    st.text(alphabet="0123456789+-_ ./eEx\t١٢²", max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(_scalar_text)
@example("--1")
@example("+-1")
@example("1_000")
@example("١٢")
@example("²")
@example("0x10")
@example("1.5")
@example("1e2")
@example("")
@example(" ")
@example("+")
@example(" -007 ")
@example("1/0")
def test_scalar_text_reads_as_its_fraction(s):
    # integer text is read by int, every other string by Fraction; either
    # way the value, or the exception's type and message, is Fraction's
    want = _outcome(lambda t: CycScalar.rational(Fraction(t.strip())), s)
    assert _outcome(parse_scalar, s) == want
    assert _outcome(CycScalar.rational, s) == want


@settings(max_examples=80, deadline=None)
@given(st.fractions(max_denominator=10 ** 6))
def test_rational_values_read_and_print_as_fractions(q):
    want = (1, (q.numerator,), q.denominator)
    assert _outcome(parse_scalar, q) == want
    if q.denominator == 1:
        assert _outcome(parse_scalar, q.numerator) == want
    assert _outcome(parse_scalar, str(q)) == want
    s = parse_scalar(q)
    assert repr(s) == str(Fraction(s.num[0], s.den))


def test_non_text_scalars_read_as_before():
    assert _outcome(parse_scalar, {"conductor": 3, "coeffs": ["1/2", "-3"]}) \
        == (3, (1, -6), 2)
    assert _outcome(parse_scalar, {"conductor": 4, "coeffs": [0, 2, 1]}) \
        == (4, (-1, 2), 1)
    assert _outcome(parse_scalar, {"conductor": 6, "coeffs": [" 7 "]}) \
        == (1, (7,), 1)
    assert _outcome(parse_scalar, {"conductor": 3, "coeffs": []}) == (1, (0,), 1)
    for refused in (True, False, 1.0, None):
        assert _outcome(parse_scalar, refused) == (
            TypeError, f"non-rational coefficient encoding: {refused!r}")


def test_mixed_conductor_closure():
    a = root_of_unity(3, 1) + root_of_unity(4, 1)
    assert a.m == 12
    assert (a - root_of_unity(4, 1)) == root_of_unity(3, 1)


def test_value_prints_in_its_smallest_field():
    z3, z4 = root_of_unity(3, 1), root_of_unity(4, 1)
    value = z3 * z4 * z4 ** 3
    assert value.m == 12                      # arithmetic keeps the lcm
    assert repr(value) == "z3"
    smallest = _in_smallest_field(value)
    assert (smallest.m, smallest.coeffs) == (3, (0, 1))
    assert repr(z3 * z4) == "-z12"            # needs all of Q(zeta_12)
    # Q(zeta_6) = Q(zeta_3): conductors = 2 mod 4 never print
    assert repr(root_of_unity(6, 1)) == "1 + z3"
    assert repr(root_of_unity(24, 6)) == "z4"
    assert repr(root_of_unity(8, 2) * 2 - 1) == "-1 + 2*z4"


@settings(max_examples=80, deadline=None)
@given(scalars(conductors=(3, 4, 5, 8)), st.sampled_from((3, 4, 6, 12, 24)))
def test_equal_values_print_alike(a, lift):
    # a times zeta^k zeta^-k equals a but carries the lcm conductor
    z = root_of_unity(lift, 1)
    b = a * z * z ** (lift - 1)
    assert_canonical(b)
    assert b == a
    assert repr(b) == repr(a)
    sa, sb = _in_smallest_field(a), _in_smallest_field(b)
    assert (sb.m, sb.coeffs) == (sa.m, sa.coeffs)


# ---------------------------------------------------------------------------
# cross-check against the Fraction-based reference

def assert_canonical(s):
    assert s.m != 2 and len(s.num) == euler_phi(s.m)
    assert all(type(c) is int for c in s.num) and type(s.den) is int
    assert s.den > 0 and gcd(s.den, *s.num) == 1
    # a value with rational coordinates sits at conductor 1
    assert (s.m == 1) == (not any(s.num[1:]))


def assert_matches(s, r):
    assert_canonical(s)
    assert (s.m, s.coeffs) == (r.m, r.coeffs)
    assert s.is_zero() == r.is_zero()
    assert repr(s) == repr(r)
    smallest, ref = _in_smallest_field(s), r.smallest()
    assert (smallest.m, smallest.coeffs) == (ref.m, ref.coeffs)


@st.composite
def scalar_pairs(draw, conductors=(1, 3, 4, 6, 12)):
    """The same value as a CycScalar and as a RefScalar; coefficient lists
    may run past phi(m), so reduction mod Phi_m is exercised too."""
    m = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(_rationals, min_size=1, max_size=m + 1))
    return cyc_make(m, coeffs), RefScalar(m, coeffs)


@settings(max_examples=200, deadline=None)
@given(scalar_pairs(), scalar_pairs())
def test_arithmetic_matches_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert_matches(a, ra)
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a * b, ra * rb)
    assert_matches(-a, RefScalar(1, [0]) - ra)
    assert (a == b) == (ra == rb)
    if rb.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert_matches(a / b, ra / rb)


@st.composite
def quadratic_pairs(draw):
    """A value of Q(zeta_m) for m = 3, 4 or 6 as a CycScalar and a
    RefScalar; a value of conductor 3 or 4 is sometimes stored lifted into
    conductor 12, as mixed-conductor arithmetic leaves it."""
    m = draw(st.sampled_from((3, 4, 6)))
    coeffs = draw(st.lists(_rationals, min_size=1, max_size=m + 1))
    if m != 6 and draw(st.booleans()):
        coeffs, m = RefScalar(m, coeffs)._coords_in(12), 12
    return cyc_make(m, coeffs), RefScalar(m, coeffs)


@settings(max_examples=300, deadline=None)
@given(quadratic_pairs(), quadratic_pairs(), _rationals, st.booleans())
def test_quadratic_arithmetic_matches_reference(x, y, q, as_scalar):
    # every phi(m) = 2 operation takes the closed form of its conductor:
    # products, sums, differences, negations, inverses and rational operands
    # (a Fraction or a conductor-1 CycScalar) on either side; 3 * 6 lifts an
    # operand into conductor 6 first, and 3 * 4 or a lifted operand works
    # at 12
    (a, ra), (b, rb) = x, y
    rq = RefScalar(1, [q])
    if as_scalar:
        q = CycScalar.rational(q)
    assert_matches(a * b, ra * rb)
    assert_matches(b * a, rb * ra)
    assert_matches(a * a, ra * ra)
    if not rb.is_zero():
        assert_matches(a / b, ra / rb)
    zero = RefScalar(1, [0])
    assert_matches(a + b, ra + rb)
    assert_matches(a - b, ra - rb)
    assert_matches(a - a, zero)
    assert_matches(-a, zero - ra)
    assert_matches(a * q, ra * rq)
    assert_matches(q * a, rq * ra)
    assert_matches(a + q, ra + rq)
    assert_matches(q + a, rq + ra)
    assert_matches(a - q, ra - rq)
    assert_matches(q - a, rq - ra)
    if not ra.is_zero():
        assert_matches(1 / a, RefScalar(1, [1]) / ra)
        assert_matches(q / a, rq / ra)
    if not rq.is_zero():
        assert_matches(a / q, ra / rq)


def test_quadratic_operations_take_the_closed_form(monkeypatch):
    # products, sums, negations, inverses and fused updates v + f * b within
    # one conductor of phi(m) = 2, with rational operands too, never reach
    # the general code
    import colorhom.scalars as sc
    calls = {}

    def counted(name):
        fn = getattr(sc, name)

        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    values = [cyc_make(m, c) for m in (3, 4, 6)
              for c in (["1", "2"], ["-3/4", "5/6"], ["0", "7"], ["2", "-2"])]
    rationals = [CycScalar.rational(q) for q in ("3", "-5/2")] + [2]
    exact = rationals[:2] + [CycScalar.one(), CycScalar.rational(-1)]
    for name in ("_make", "_apply", "_conjugations", "_mul_num", "_lift"):
        monkeypatch.setattr(sc, name, counted(name))
    results = []
    for a in values:
        for b in values:
            if a.m == b.m:
                results += [a * b, a + b, a - b, a / b,
                            _fma(-(a * b), a, b)]
                results += [_fma(a, b, c) for c in values if c.m == a.m]
                for q in exact:
                    results += [_fma(q, a, b), _fma(a, q, b), _fma(a, b, q)]
        for q in rationals:
            results += [a * q, q * a, a + q, q + a, a - q, q - a, a / q]
        for q in exact:
            for u in exact:
                results += [_fma(q, u, a), _fma(q, a, u), _fma(a, q, u),
                            _fma(q, u, q)]
        results += [-a, 1 / a, a ** -2]
    monkeypatch.undo()
    assert calls == {}
    for r in results:
        assert_canonical(r)
    # a result with a1 = 0, such as a - a or a / a, drops to conductor 1
    assert {r.m for r in results} == {1, 3, 4, 6}


def _pair(s):
    return s, RefScalar(s.m, list(s.coeffs))


_UNITS = [_pair(CycScalar.rational(u)) for u in (1, -1)]
_fma_operands = st.one_of(scalar_pairs(), quadratic_pairs(),
                          st.sampled_from(_UNITS))
_Z3, _Z4, _Z5 = (root_of_unity(m, 1) for m in (3, 4, 5))


@settings(max_examples=300, deadline=None)
@given(_fma_operands, _fma_operands, _fma_operands, _rationals,
       st.sampled_from(("as drawn", "cancels", "rational")))
# the fallback: quadratic operands of two conductors, phi(m) > 2, and a
# value of conductor 3 stored lifted into conductor 12
@example(_pair(_Z3), _pair(_Z4), _UNITS[0], 0, "as drawn")
@example(_UNITS[0], _pair(_Z3), _pair(_Z4), 0, "as drawn")
@example(_pair(root_of_unity(12, 1)), _pair(CycScalar.rational(2)),
         _pair(CycScalar.rational(3)), 0, "as drawn")
@example(_pair(CycScalar.rational("1/2")), _pair(_Z5), _pair(_Z5 ** 3), 0,
         "as drawn")
@example(_pair(_Z3 * _Z4 * _Z4 ** 3), _pair(_Z3 ** 2), _UNITS[1], 0,
         "as drawn")
def test_fused_update_matches_reference(x, y, z, q, target):
    # _fma(v, f, b) is v + f * b, canonical, on every pair of conductors:
    # plain ints, the phi(m) = 2 closed forms and the general fallback;
    # the target picks a v for which the result is the drawn v + f * b, 0,
    # or the rational q
    (v, rv), (f, rf), (b, rb) = x, y, z
    rq, zero = RefScalar(1, [q]), RefScalar(1, [0])
    if target == "cancels":
        v, rv = -(f * b), zero - rf * rb
    elif target == "rational":
        v, rv = q - f * b, rq - rf * rb
    s, e = _fma(v, f, b), v + f * b
    assert_matches(s, rv + rf * rb)
    assert (s.m, s.num, s.den) == (e.m, e.num, e.den)
    if target != "as drawn":
        assert s.m == 1


@settings(max_examples=100, deadline=None)
@given(scalar_pairs(), _rationals)
def test_rational_operands_match_reference(x, q):
    # plain Fractions on either side, the rational-times-cyclotomic paths
    a, ra = x
    rq = RefScalar(1, [q])
    assert_matches(a * q, ra * rq)
    assert_matches(q * a, rq * ra)
    assert_matches(a + q, ra + rq)
    assert_matches(q - a, rq - ra)
    assert (a == q) == (ra == rq)
    if q:
        assert_matches(a / q, ra / rq)
    if not ra.is_zero():
        assert_matches(q / a, rq / ra)


@settings(max_examples=100, deadline=None)
@given(scalar_pairs(), st.sampled_from([1, -1]), st.booleans())
def test_unit_factors_match_reference(x, unit, as_int):
    # a factor of +-1 on either side, as an int or a CycScalar, returns the
    # other operand or its negation; negating +-1 gives the other sign
    a, ra = x
    u = unit if as_int else CycScalar.rational(unit)
    ru = RefScalar(1, [unit])
    assert_matches(a * u, ra * ru)
    assert_matches(u * a, ru * ra)
    assert_matches(-(a * u), RefScalar(1, [0]) - ra * ru)
    if not as_int:
        assert_matches(-u, RefScalar(1, [-unit]))
        assert_matches(u * u, RefScalar(1, [1]))
    if unit == 1 and a != 1 and a != -1:
        assert a * u is a and u * a is a
    assert -CycScalar.one() == -1 and -(-CycScalar.one()) is CycScalar.one()


# ---------------------------------------------------------------------------
# no Fraction arithmetic below the text boundary

FRACTION_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                    "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
                    "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__",
                    "__lt__", "__le__", "__gt__", "__ge__", "__bool__")


def test_assembly_rank_and_kernel_do_no_fraction_arithmetic(monkeypatch):
    A = quantum_exterior_algebra(2)
    V = natural_bimodule(A)
    calls = dict.fromkeys(FRACTION_DUNDERS, 0)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in FRACTION_DUNDERS:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    table = cohomology_table(build_lsca_complex(A, V, 2))
    report = verify_main_theorem(A, V, 1)
    monkeypatch.undo()
    assert report["equal"] and report["intertwining_zero"]
    assert any(e["dimH"] for e in table)
    assert {k: v for k, v in calls.items() if v} == {}

