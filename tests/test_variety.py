import json
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom.algebra import ColorAlgebra, validate_left_symmetric
from colorhom.bimodule import natural_bimodule
from colorhom.cli import SpecErrorList, parse_spec, spec_to_json
from colorhom.cohomology import lsca_coboundary
from colorhom.grading import GradingGroup, trivial_bicharacter
from colorhom.glinalg import GradedSpace, exact_rank
from colorhom.scalars import CycScalar
from colorhom.variety import (
    DEFAULT_GRID,
    FamilySpec,
    VarietyError,
    allowed_products,
    family_from_json,
    parse_grid,
    scan_csv,
    scan_family,
)
from helpers import (
    ONE,
    ZERO,
    dense_left_symmetric,
    exact_kernel,
    mutual_squares_algebra,
    mutual_squares_family,
    quantum_exterior_algebra,
    single_degree_pair_space,
    square_to_second_algebra,
    subcase1_family,
    subcase3_family,
)


class TestAllowedProducts:
    def test_single_nonzero_degree_mask_empty(self):
        # both vectors at degree 1 over Z_2: any product would need degree
        # 1+1 = 0, unsupported; only the trivial algebra exists here
        assert allowed_products(single_degree_pair_space()) == set()

    def test_mutual_squares_mask(self):
        fam = mutual_squares_family()
        assert allowed_products(fam.space) == {(0, 0, 1), (1, 1, 0)}

    def test_order_four_mask(self):
        fam = subcase1_family()
        assert allowed_products(fam.space) == {(0, 0, 1)}

    def test_zero_degrees_full_mask(self):
        G = GradingGroup([2])
        space = GradedSpace(G, [("x", (0,)), ("y", (0,))])
        assert allowed_products(space) == {
            (i, j, k) for i in range(2) for j in range(2) for k in range(2)}

    def test_mask_is_degree_determined(self):
        # swapping two vectors of equal degree permutes the mask accordingly
        space = single_degree_pair_space()
        G = GradingGroup([3])
        sp = GradedSpace(G, [("u", (1,)), ("v", (1,)), ("w", (2,))])
        mask = allowed_products(sp)
        swap = {0: 1, 1: 0, 2: 2}
        assert {(swap[i], swap[j], swap[k]) for i, j, k in mask} == mask


class TestFamilySpec:
    def test_rejects_off_mask_slot(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        with pytest.raises(VarietyError):
            FamilySpec(space, trivial_bicharacter(G), [((0, 1, 0), "c")])

    def test_rejects_duplicate_parameters(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        with pytest.raises(VarietyError):
            FamilySpec(space, trivial_bicharacter(G),
                       [((0, 0, 1), "c"), ((1, 1, 0), "c")])

    def test_rejects_two_parameters_on_one_slot(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        with pytest.raises(VarietyError,
                           match=r"slot \(0, 0, 1\) has two free parameters, c and b"):
            FamilySpec(space, trivial_bicharacter(G),
                       [((0, 0, 1), "c"), ((0, 0, 1), "b")])

    def test_fixed_value_adds_to_a_free_slot(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        fam = FamilySpec(space, trivial_bicharacter(G), [((0, 0, 1), "c")],
                         {(0, 0, 1): CycScalar.rational(2)})
        A = fam.instantiate({"c": Fraction(3)})
        assert A.rows == {(0, 0): {1: CycScalar.rational(5)}}

    def test_instantiate_matches_direct_construction(self):
        fam = mutual_squares_family()
        A = fam.instantiate({"c1": Fraction(3), "c2": Fraction(0)})
        B = mutual_squares_algebra(Fraction(3), Fraction(0))
        assert {k: [str(c) for c in v] for k, v in A.products.items()} == \
            {k: [str(c) for c in v] for k, v in B.products.items()}


class TestIdentityResidual:
    """Hand-computed residuals of the left-symmetric identity, asserted on
    the validator; tests/test_residuals.py compares it with the dense
    reference key for key on these algebras and more."""

    def test_agrees_with_validator_on_corpus(self, lsa_corpus):
        for A in lsa_corpus[:8]:
            assert dense_left_symmetric(A) == []
            assert validate_left_symmetric(A) == []

    def test_single_square_always_passes(self):
        assert validate_left_symmetric(square_to_second_algebra(Fraction(7))) == []

    def test_coupled_squares_fail_at_xyy(self):
        A = mutual_squares_algebra(Fraction(2), Fraction(3))
        bad = validate_left_symmetric(A)
        assert ("x", "y", "y") in [t for t, _ in bad]
        # the residual there is -c1 c2 y
        res = dict(bad)[("x", "y", "y")]
        assert str(res["y"]) == "-6"

    def test_zero_algebra_empty(self):
        fam = subcase3_family()
        assert validate_left_symmetric(fam.instantiate({"c": Fraction(0)})) == []


class TestScanFamily:
    def test_one_parameter_all_pass(self):
        grid = {"c": [Fraction(k, 3) for k in range(-10, 10)]}
        results = scan_family(subcase3_family(), grid)
        assert len(results) == 20
        assert all(r["passes"] for r in results)

    def test_two_parameter_axes_only(self):
        results = scan_family(mutual_squares_family())
        assert len(results) == len(DEFAULT_GRID) ** 2
        for r in results:
            c1, c2 = r["point"]["c1"], r["point"]["c2"]
            on_axes = c1.is_zero() or c2.is_zero()
            assert r["passes"] == on_axes
            if not on_axes:
                assert r["first_violation"] is not None

    def test_empty_parameter_family_single_point(self):
        G = GradingGroup([2])
        space = single_degree_pair_space()
        fam = FamilySpec(space, trivial_bicharacter(G), [])
        results = scan_family(fam)
        assert len(results) == 1
        assert results[0]["passes"] and results[0]["point"] == {}

    def test_order_four_family_passes_everywhere(self):
        # every triple product vanishes (products into y are absorbed by the
        # grading), so the identity holds for every c; the scan reports the
        # computed result
        results = scan_family(subcase1_family())
        assert all(r["passes"] for r in results)

    def test_matches_dense_reference_pointwise(self):
        # the scan runs the production validator; the dense reference
        # checks it at every point
        fam = mutual_squares_family()
        for r in scan_family(fam, {"c1": DEFAULT_GRID[:4],
                                   "c2": DEFAULT_GRID[:4]}):
            bad = dense_left_symmetric(fam.instantiate(r["point"]))
            assert r["passes"] == (bad == [])
            assert r["first_violation"] == (bad[0][0] if bad else None)

    def test_cap_guard(self):
        fam = mutual_squares_family()
        with pytest.raises(VarietyError):
            scan_family(fam, {"c1": [Fraction(k) for k in range(101)],
                              "c2": [Fraction(k) for k in range(101)]})

    def test_env_cap_override(self):
        fam = subcase3_family()
        old = os.environ.get("COLORHOM_MAX_GRID")
        os.environ["COLORHOM_MAX_GRID"] = "3"
        try:
            with pytest.raises(VarietyError):
                scan_family(fam, {"c": DEFAULT_GRID[:5]})
            assert len(scan_family(fam, {"c": DEFAULT_GRID[:3]})) == 3
        finally:
            if old is None:
                del os.environ["COLORHOM_MAX_GRID"]
            else:
                os.environ["COLORHOM_MAX_GRID"] = old

    @settings(max_examples=25, deadline=None)
    @given(st.fractions(min_value=-5, max_value=5, max_denominator=6),
           st.fractions(min_value=-5, max_value=5, max_denominator=6))
    def test_axes_law_is_exact(self, c1, c2):
        A = mutual_squares_algebra(c1, c2)
        holds = validate_left_symmetric(A) == []
        assert holds == (c1 == 0 or c2 == 0)

    def test_csv_shape(self):
        results = scan_family(subcase3_family(), {"c": DEFAULT_GRID[:2]})
        text = scan_csv(results)
        lines = text.splitlines()
        assert lines[0] == "point,pass,first_violation"
        assert len(lines) == 3
        assert lines[1].startswith("c=")


class TestJson:
    def test_family_round_trip(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        fam = family_from_json(space, trivial_bicharacter(G), {
            "free": [{"left": "x", "right": "x", "result": "y",
                      "parameter": "c1"},
                     {"left": "y", "right": "y", "result": "x",
                      "parameter": "c2"}],
        })
        assert fam.parameters == ["c1", "c2"]
        assert fam.free == [((0, 0, 1), "c1"), ((1, 1, 0), "c2")]

    def test_fixed_value_parsing(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        fam = family_from_json(space, trivial_bicharacter(G), {
            "free": [],
            "fixed": [{"left": "x", "right": "x", "result": "y",
                       "value": "1/2"}],
        })
        A = fam.instantiate({})
        assert str(A.products[(0, 0)][1]) == "1/2"

    def test_fixed_entries_for_one_slot_add_up(self):
        # as duplicate product entries do, and as a free slot adds onto a
        # fixed one in instantiate
        path = Path(__file__).resolve().parent.parent / "fixtures" / \
            "family_square_to_second.json"
        obj = json.loads(path.read_text())
        obj["family"]["fixed"] = [
            {"left": "x", "right": "x", "result": "y", "value": v}
            for v in ("1", "5")]
        spec = parse_spec(json.dumps(obj))
        fam = spec.families["family"]
        assert fam.fixed == {(0, 0, 1): CycScalar.rational(6)}
        assert fam.instantiate({"c": Fraction(0)}).products[(0, 0)][1] == \
            CycScalar.rational(6)
        assert fam.instantiate({"c": Fraction(1)}).products[(0, 0)][1] == \
            CycScalar.rational(7)
        assert spec_to_json(spec)["families"]["family"]["fixed"] == [
            {"left": "x", "right": "x", "result": "y", "value": "6"}]

    def test_bad_label_rejected(self):
        G = GradingGroup([3])
        space = GradedSpace(G, [("x", (1,)), ("y", (2,))])
        with pytest.raises(VarietyError):
            family_from_json(space, trivial_bicharacter(G), {
                "free": [{"left": "x", "right": "q", "result": "y",
                          "parameter": "c"}]})

    def test_parse_grid(self):
        grid = parse_grid({"c": ["-2", "1/2", "0"]})
        assert [str(v) for v in grid["c"]] == ["-2", "1/2", "0"]
        with pytest.raises(VarietyError):
            parse_grid({"c": "oops"})


# ---------------------------------------------------------------------------
# the tangent space of the variety

def _residual_vector(A):
    """dense_left_symmetric as a sparse vector keyed by (triple, component)."""
    return {(triple, name): c for triple, residual in dense_left_symmetric(A)
            for name, c in residual.items()}


def tangent_space(A):
    """Kernel of the linearized left-symmetric identity at A over the
    degree-0 slots, as vectors over the C^2 indices (i n + l) n + t of the
    slots (i, l, t).  The identity is quadratic in the structure constants,
    so (R(A + E) - R(A - E)) / 2 is its derivative at A along E exactly."""
    n, half = A.dim, CycScalar.rational(Fraction(1, 2))
    slots = sorted(allowed_products(A.space))
    columns = []
    for i, l, t in slots:
        shifted = []
        for sign in (ONE, -ONE):
            products = {key: list(row) for key, row in A.products.items()}
            row = products.setdefault((i, l), [ZERO] * n)
            row[t] = row[t] + sign
            shifted.append(_residual_vector(ColorAlgebra(A.space, A.eps, products)))
        plus, minus = shifted
        columns.append({key: (plus.get(key, ZERO) - minus.get(key, ZERO)) * half
                        for key in plus.keys() | minus.keys()})
    rows = [[col.get(key, ZERO) for col in columns]
            for key in set().union(*columns)]
    out = []
    for coords in exact_kernel(rows, len(slots)):
        vec = [ZERO] * n ** 3
        for (i, l, t), c in zip(slots, coords):
            vec[(i * n + l) * n + t] = c
        out.append(vec)
    return out


def degree_zero_cocycles(A):
    """Z^2(A, A) at degree 0, as vectors over the C^2 indices."""
    d2 = lsca_coboundary(A, natural_bimodule(A), 2)
    out = []
    for sparse in d2.kernel_at(A.space.group.zero):
        vec = [ZERO] * d2.src.dim
        for col, c in sparse.items():
            vec[col] = c
        out.append(vec)
    return out


class TestTangentSpace:
    """The tangent space at A of the variety of left-symmetric color
    algebras on A's graded space and bicharacter is Z^2(A, A) at degree 0:
    a degree-0 2-cochain is an infinitesimal deformation exactly when it is
    a cocycle.  The dense_left_symmetric side shares no code with the
    coboundary assembly."""

    @pytest.fixture(scope="class")
    def algebras(self, lsa_corpus, nonzero_lsa_corpus):
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        found = []
        for path in sorted(fixtures.glob("*.json")):
            try:
                spec = parse_spec(path.read_text())
            except SpecErrorList:
                continue
            if not spec.is_lie and not validate_left_symmetric(spec.algebra):
                found.append(spec.algebra)
        assert len(found) == 9
        # the family members at the grid points where the identity holds
        members = [fam.instantiate(row["point"])
                   for path in sorted(fixtures.glob("family_*.json"))
                   for spec in [parse_spec(path.read_text())]
                   for fam in spec.families.values()
                   for row in scan_family(fam, spec.grid) if row["passes"]]
        assert len(members) == 49
        return (found + members + list(lsa_corpus) + list(nonzero_lsa_corpus)
                + [quantum_exterior_algebra(2), quantum_exterior_algebra(3)])

    def test_tangent_space_is_degree_zero_cocycles(self, algebras):
        ranks = []
        for A in algebras:
            tangent, cocycles = tangent_space(A), degree_zero_cocycles(A)
            rank = _rank(tangent)
            assert rank == len(tangent) == _rank(cocycles)
            assert _rank(tangent + cocycles) == rank
            ranks.append(rank)
        assert sum(r > 0 for r in ranks) > len(algebras) // 2
        # the quantum exterior algebra over Z3^3: 27 degree-0 slots
        assert len(allowed_products(algebras[-1].space)) == 27
        assert ranks[-1] == 13


def _rank(vectors):
    return exact_rank(vectors) if vectors else 0
