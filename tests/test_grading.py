"""Grading groups, degrees, and bicharacters."""

import copy
import json
import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom.cli import parse_spec
from colorhom.grading import (
    BicharacterError,
    Degree,
    GradingError,
    GradingGroup,
    bichar_from_form,
    bichar_from_table,
    degree_sum,
    trivial_bicharacter,
)
from colorhom.scalars import CycScalar, root_of_unity
from helpers import klein_problem, spec_errors

ONE = CycScalar.one()
MINUS_ONE = CycScalar.rational(-1)


def klein_cube():
    return GradingGroup([2, 2, 2])


# the six nonzero pairings of Ex-degrees used throughout: value -1 exactly
# when the pair is distinct
SUPPORT = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def plus_table(strict=True):
    G = klein_cube()
    values = [[ONE if i == j else MINUS_ONE for j in range(3)] for i in range(3)]
    return bichar_from_table(G, SUPPORT, values, strict=strict)


def minus_table(strict=False):
    G = klein_cube()
    values = [[MINUS_ONE if i == j else ONE for j in range(3)] for i in range(3)]
    return bichar_from_table(G, SUPPORT, values, strict=strict)


class TestGroupAndDegree:
    def test_reduction_and_arithmetic(self):
        G = GradingGroup([2, 3])
        a = G.degree([3, 4])
        assert a.components == (1, 1)
        b = G.degree([1, 2])
        assert (a + b).components == (0, 0)
        assert (-b).components == (1, 1)
        assert (a - b).components == (0, 2)
        assert G.zero.is_zero() and not a.is_zero()

    def test_orders(self):
        G = GradingGroup([2, 3])
        assert G.degree([1, 0]).order() == 2
        assert G.degree([1, 1]).order() == 6
        assert G.zero.order() == 1
        assert G.exponent == 6
        assert len(list(G.elements())) == 6

    def test_elements_enumeration(self):
        G = GradingGroup([2, 2])
        assert len(list(G.elements())) == 4

    def test_degree_sum(self):
        G = GradingGroup([2, 2])
        ds = [G.degree([1, 0]), G.degree([0, 1]), G.degree([1, 0])]
        assert degree_sum(G, ds) == G.degree([0, 1])

    def test_bad_inputs(self):
        with pytest.raises(GradingError):
            GradingGroup([])
        with pytest.raises(GradingError):
            GradingGroup([2, 0])
        with pytest.raises(GradingError):
            GradingGroup([2]).degree([1, 0])

    def test_immutability_and_hash(self):
        G = GradingGroup([4])
        d = G.degree([3])
        with pytest.raises(AttributeError):
            d.components = (1,)
        assert {d: "x"}[G.degree([7])] == "x"


class TestInterning:
    def test_equal_orders_give_one_group(self):
        assert GradingGroup([3, 3]) is GradingGroup((3, 3))
        assert GradingGroup([3, 3]) is not GradingGroup([3])
        assert GradingGroup([3, 3]) is not GradingGroup([3, 3, 3])

    def test_one_degree_per_element(self):
        G = GradingGroup([2, 3])
        d = G.degree([1, 1])
        assert G.degree([3, 4]) is d
        assert G.degree((-1, -2)) is d
        assert Degree(GradingGroup(list(G.orders)), [5, 7]) is d
        assert G.zero is G.degree([2, 3])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 4), (3, 3, 3)]), st.data())
    def test_interned_arithmetic_matches_components(self, orders, data):
        G = GradingGroup(orders)
        comps = st.tuples(*(st.integers(-9, 9) for _ in orders))
        x, y = data.draw(comps), data.draw(comps)
        a, b = G.degree(x), G.degree(y)
        for _ in range(2):  # the second round reads the filled tables
            assert a + b is G.degree([p + q for p, q in zip(x, y)])
            assert a - b is G.degree([p - q for p, q in zip(x, y)])
            assert -a is G.degree([-p for p in x])
        assert (a + b).components == tuple(
            (p + q) % m for p, q, m in zip(x, y, orders))

    def test_copy_and_pickle_return_the_interned_object(self):
        G = GradingGroup([2, 4])
        d = G.degree([1, 3])
        for dup in (copy.copy, copy.deepcopy,
                    lambda v: pickle.loads(pickle.dumps(v))):
            assert dup(G) is G
            assert dup(d) is d
        assert copy.deepcopy({d: [G.zero]}) == {d: [G.zero]}

    def test_wrong_arity_message(self):
        with pytest.raises(GradingError, match=r"^degree needs 2 components, "
                                               r"got \(1,\)$"):
            GradingGroup([2, 3]).degree([1])
        with pytest.raises(GradingError, match=r"^degree needs 1 components, "
                                               r"got \(0, 0\)$"):
            GradingGroup([5]).degree((0, 0))


class TestFormMode:
    def test_trivial(self):
        G = GradingGroup([2, 3])
        eps = trivial_bicharacter(G)
        for a, b in product(G.elements(), repeat=2):
            assert eps(a, b) == ONE

    def test_sign_on_z2(self):
        G = GradingGroup([2])
        eps = bichar_from_form(G, [[1]], 2)
        assert eps(G.degree([1]), G.degree([1])) == MINUS_ONE
        assert eps(G.degree([0]), G.degree([1])) == ONE

    def test_klein_form_matches_plus_table(self):
        G = klein_cube()
        eps = bichar_from_form(G, [[0, 1, 0], [1, 0, 0], [0, 0, 0]], 2)
        table = plus_table()
        for i, a in enumerate(SUPPORT):
            for j, b in enumerate(SUPPORT):
                expected = ONE if i == j else MINUS_ONE
                da, db = G.degree(a), G.degree(b)
                assert eps(da, db) == expected
                assert table(da, db) == expected

    def test_well_definedness_rejected(self):
        G = GradingGroup([2])
        # zeta_4^(a*b) is not well defined on Z_2: shifting a by 2 flips it
        with pytest.raises(BicharacterError):
            bichar_from_form(G, [[1]], 4)

    def test_skew_rejected(self):
        G = GradingGroup([3, 3])
        with pytest.raises(BicharacterError):
            bichar_from_form(G, [[0, 1], [1, 0]], 3)
        # the skew version passes
        bichar_from_form(G, [[0, 1], [-1, 0]], 3)

    def test_nontrivial_root_on_z3(self):
        G = GradingGroup([3, 3])
        eps = bichar_from_form(G, [[0, 1], [-1, 0]], 3)
        a, b = G.degree([1, 0]), G.degree([0, 1])
        assert eps(a, b) == root_of_unity(3, 1)
        assert eps(b, a) == root_of_unity(3, 2)
        assert eps(a, a) == ONE

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]),
           st.data())
    def test_form_axioms_exhaustive(self, orders, data):
        G = GradingGroup(list(orders))
        m = G.exponent
        r = G.rank
        # draw a skew well-defined matrix: pick the strict upper triangle
        # freely, force M[j][i] = -M[i][j], diagonal with 2*M[ii] = 0 mod m
        M = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                step = m // gcd_pair(G.orders[i], G.orders[j], m)
                M[i][j] = data.draw(st.integers(0, max(0, gcd_cnt(G, i, j, m) - 1))) * step
                M[j][i] = -M[i][j]
            if m % 2 == 0:
                M[i][i] = data.draw(st.sampled_from([0, m // 2]))
        eps = bichar_from_form(G, M, m)
        els = list(G.elements())
        for a in els:
            for b in els:
                v = eps(a, b)
                assert v * eps(b, a) == ONE
                for c in els:
                    assert eps(a + b, c) == eps(a, c) * eps(b, c)
                    break  # one c per pair keeps the cube affordable
                assert v ** a.order() == ONE
        for a in els:
            assert eps(a, a) in (ONE, MINUS_ONE)
            assert eps(G.zero, a) == ONE


def gcd_pair(mi, mj, m):
    from math import gcd
    return gcd(gcd(mi, mj), m)


def gcd_cnt(G, i, j, m):
    # number of admissible off-diagonal values: multiples of m/gcd inside [0, m)
    return gcd_pair(G.orders[i], G.orders[j], m)


class TestTableMode:
    def test_plus_table_strict_ok(self):
        eps = plus_table(strict=True)
        assert eps.warnings == []
        G = eps.group
        a, b = G.degree(SUPPORT[0]), G.degree(SUPPORT[1])
        assert eps(a, b) == MINUS_ONE
        assert eps(a, a) == ONE

    def test_plus_table_extends_to_subgroup(self):
        eps = plus_table()
        G = eps.group
        a, b, c = (G.degree(d) for d in SUPPORT)
        # a+b = (0,1,1) = c inside this subgroup; biadditivity must hold
        assert a + b == c
        for x in (a, b, c):
            assert eps(a + b, x) == eps(a, x) * eps(b, x)
        assert eps(G.zero, a) == ONE
        assert eps(a + b + c, a) == ONE  # a+b+c = 0

    def test_outside_subgroup_rejected(self):
        eps = plus_table()
        G = eps.group
        outside = G.degree([1, 0, 0])  # not in the span of the three degrees
        with pytest.raises(BicharacterError):
            eps(outside, G.zero)

    def test_minus_table_strict_rejected(self):
        with pytest.raises(BicharacterError) as err:
            minus_table(strict=True)
        assert "biadditivity" in str(err.value)

    def test_minus_table_nonstrict_warns_and_evaluates(self):
        eps = minus_table(strict=False)
        assert eps.warnings
        G = eps.group
        a, b, c = (G.degree(d) for d in SUPPORT)
        assert eps(a, a) == MINUS_ONE
        assert eps(a, b) == ONE
        # the recorded inconsistency: a+b = c but eps(a+b, a) != eps(a,a)*eps(b,a)
        assert eps(a + b, a) != eps(a, a) * eps(b, a)

    def test_diagonal_must_be_sign(self):
        G = GradingGroup([3])
        z3 = root_of_unity(3, 1)
        with pytest.raises(BicharacterError):
            bichar_from_table(G, [[1]], [[z3]])

    def test_skew_always_checked(self):
        G = GradingGroup([2, 2])
        vals = [[ONE, MINUS_ONE], [ONE, ONE]]  # eps(b,a) has the wrong sign
        with pytest.raises(BicharacterError):
            bichar_from_table(G, [(1, 0), (0, 1)], vals, strict=False)

    def test_zero_row_must_be_one(self):
        G = GradingGroup([2])
        with pytest.raises(BicharacterError):
            bichar_from_table(G, [(0,), (1,)],
                              [[ONE, MINUS_ONE], [MINUS_ONE, ONE]], strict=False)

    def test_duplicate_degrees_rejected(self):
        G = GradingGroup([2])
        with pytest.raises(BicharacterError):
            bichar_from_table(G, [(1,), (1,)], [[ONE, ONE], [ONE, ONE]])

    def test_string_values_accepted(self):
        G = GradingGroup([2])
        eps = bichar_from_table(G, [(1,)], [["-1"]])
        assert eps(G.degree([1]), G.degree([1])) == MINUS_ONE

    def test_strict_table_on_z4(self):
        # eps(1,1) = -1 on Z_4 generated by the table value at the generator
        G = GradingGroup([4])
        eps = bichar_from_table(G, [(1,)], [[MINUS_ONE]])
        one, two = G.degree([1]), G.degree([2])
        assert eps(two, one) == ONE
        assert eps(two, two) == ONE
        assert eps(G.degree([3]), one) == MINUS_ONE


# a problem file over Z2^3 with one basis element, of degree 0
ORIGIN = {"basis": [{"name": "e", "degree": [0, 0, 0]}]}


def parsed(bicharacter=None, **rest):
    return parse_spec(json.dumps(klein_problem(ORIGIN, bicharacter, **rest)))


def refusals(bicharacter=None, **rest):
    return [(e.path, e.message)
            for e in spec_errors(klein_problem(ORIGIN, bicharacter, **rest))]


class TestJson:
    def test_group_fragment(self):
        assert parsed(group={"orders": [2, 2, 2]}).group is klein_cube()
        assert refusals(group={"rank": 3}) == [
            ("$.group.rank", "unknown key"),
            ("$.group", "group must be an object with 'orders': {'rank': 3}")]

    def test_table_fragment(self):
        G = klein_cube()
        eps = parsed({
            "mode": "table",
            "degrees": [[1, 1, 0], [1, 0, 1], [0, 1, 1]],
            "values": [["1", "-1", "-1"], ["-1", "1", "-1"], ["-1", "-1", "1"]],
            "strict": False,
        }).eps
        assert eps(G.degree([1, 1, 0]), G.degree([1, 0, 1])) == MINUS_ONE
        assert eps.strict is False
        assert eps.warnings == []  # this one happens to be consistent

    def test_form_fragment_and_default(self):
        G = klein_cube()
        eps = parsed({"mode": "form", "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
                      "root_order": 2}).eps
        assert eps(G.degree([1, 1, 0]), G.degree([1, 0, 1])) == MINUS_ONE
        assert parsed().eps.mode == "form"
        # null, {} and a bare form mode are the trivial bicharacter
        for obj in (None, {}, {"mode": "form"}):
            trivial = parsed(obj).eps
            assert trivial(G.degree([1, 1, 0]), G.degree([1, 0, 1])) == ONE
        assert refusals({"mode": "spectral"}) == [
            ("$.bicharacter", "unknown bicharacter mode 'spectral'")]
        # a root order without a matrix is refused, not read as trivial
        for obj in ({"mode": "form", "root_order": 7}, {"root_order": 2}):
            assert refusals(obj) == [
                ("$.bicharacter", "form mode has a root_order but no matrix")]

    @pytest.mark.parametrize("obj, errors", [
        # a table without its mode is not read as the trivial form
        ({"degrees": [[1, 1, 0]], "values": [["-1"]]},
         [("$.bicharacter.degrees", "unknown key"),
          ("$.bicharacter.values", "unknown key")]),
        ({"mode": "trivial", "matrix": [[1]]},
         [("$.bicharacter.matrix", "unknown key")]),
        ({"mode": "table", "degrees": [], "values": [], "root_order": 2},
         [("$.bicharacter.root_order", "unknown key")]),
        # the mode is checked first
        ({"mode": "spectral", "matrix": [[1]]},
         [("$.bicharacter", "unknown bicharacter mode 'spectral'")]),
        ({"mode": ["form"]}, [("$.bicharacter", "unknown bicharacter mode ['form']")]),
    ], ids=["table_without_mode", "trivial", "table", "unknown", "unhashable"])
    def test_keys_of_another_mode_are_refused(self, obj, errors):
        assert refusals(obj) == errors
