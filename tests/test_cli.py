"""Front-end tests: problem files in fixtures/ driven through parse_spec,
run(), and main() with captured streams.

Exit-code contract under test: 0 when every check passes, 1 when a check
fails (identity violations, refused commutators, unequal theorem
dimensions, failing grid points), 2 for malformed input.  Machine reports
written by --json must validate against schema/report.schema.json.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorhom.bimodule import natural_bimodule, trivial_bimodule
from colorhom.cli import (
    SpecErrorList,
    main,
    parse_spec,
    run,
)
from colorhom.scalars import CycScalar
from colorhom.variety import DEFAULT_GRID
from helpers import spec_errors

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
REPORT_SCHEMA = json.loads((ROOT / "schema" / "report.schema.json").read_text())

GOOD_FIXTURES = [
    "minimal_zero_algebra.json",
    "dual_numbers_super.json",
    "sign_table_plus.json",
    "sign_table_minus.json",
    "anticommuting_pair.json",
    "cross_product_brackets.json",
    "mixed_abelian_brackets.json",
    "cyclic_products.json",
    "family_square_to_second.json",
    "family_mutual_squares.json",
    "family_square_order_four.json",
    "single_degree_pair.json",
]


# the natural and the trivial module of dual_numbers_super.json, declared
# as explicit modules: uu = u, ux = xu = x on both sides
_DUAL_PRODUCTS = [("u", "u", "u"), ("u", "x", "x"), ("x", "u", "x")]
DUAL_NUMBERS_MODULES = {
    "natural": {
        "basis": [{"name": "u", "degree": [0]}, {"name": "x", "degree": [1]}],
        "left": [{"x": a, "v": b, "result": [{"basis": c, "coeff": "1"}]}
                 for a, b, c in _DUAL_PRODUCTS],
        "right": [{"v": a, "x": b, "result": [{"basis": c, "coeff": "1"}]}
                  for a, b, c in _DUAL_PRODUCTS]},
    "trivial": {"basis": [{"name": "u", "degree": [0]}], "left": [], "right": []},
}


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def spec_of(name: str):
    return parse_spec(load(name))


def call(command, name, **kw):
    out, err = io.StringIO(), io.StringIO()
    code = run(command, spec_of(name), out=out, err=err, **kw)
    return code, out.getvalue(), err.getvalue()


def paths_of(obj) -> list:
    return [e.path for e in spec_errors(obj)]


class TestParsing:
    @pytest.mark.parametrize("name", GOOD_FIXTURES)
    def test_fixture_parses(self, name):
        spec = spec_of(name)
        assert spec.algebra is not None
        assert spec.is_lie or spec.module is not None

    def test_bad_product_degree_is_located(self):
        errs = spec_errors(json.loads(load("bad_product_degree.json")))
        assert len(errs) == 1
        assert errs[0].path == "$.algebra.products[0]"
        assert "'y'" in errs[0].message and "forces" in errs[0].message

    def test_unknown_top_level_key(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["extras"] = 1
        assert "$.extras" in paths_of(obj)

    def test_malformed_scalar_is_located(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["algebra"]["products"][0]["result"][0]["coeff"] = "2/0"
        paths = paths_of(obj)
        assert "$.algebra.products[0].result[0].coeff" in paths

    def test_wrong_degree_arity(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["algebra"]["basis"][1]["degree"] = [1, 0]
        errs = spec_errors(obj)
        assert errs[0].path == "$.algebra.basis[1].degree"
        assert "rank" in errs[0].message

    def test_unresolved_product_label(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["algebra"]["products"][0]["left"] = "w"
        assert "$.algebra.products[0].left" in paths_of(obj)

    def test_duplicate_basis_label(self):
        obj = json.loads(load("single_degree_pair.json"))
        obj["algebra"]["basis"][1]["name"] = "x"
        errs = spec_errors(obj)
        assert errs[0].path == "$.algebra.basis[1].name"
        assert "duplicate" in errs[0].message

    @pytest.mark.parametrize("entry, path, message", [
        ({"name": "w"}, "$.module.basis[1]", "needs name and degree"),
        ({"name": "w", "degree": [1, 1]}, "$.module.basis[1].degree",
         "degree has 2 components, the group has rank 3"),
    ], ids=["no_degree", "short_degree"])
    def test_bad_module_basis_entry_is_its_only_error(self, entry, path, message):
        # no module is built on a basis with a bad entry
        obj = json.loads(load("cyclic_products.json"))
        obj["module"] = {"basis": [{"name": "u", "degree": [0, 0, 0]}, entry]}
        assert [(e.path, e.message) for e in spec_errors(obj)] == [(path, message)]

    def test_option_type_errors(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["options"] = {"max_n": "three", "force": 1, "bogus": True}
        assert [str(e) for e in spec_errors(obj)] == [
            "$.options.bogus: unknown option",
            "$.options.max_n: must be an integer in 0..6",
            "$.options.force: must be a boolean"]

    def test_max_n_out_of_range(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["options"] = {"max_n": 7}
        assert paths_of(obj) == ["$.options.max_n"]

    def test_module_on_bracket_algebra_rejected(self):
        obj = json.loads(load("cross_product_brackets.json"))
        obj["module"] = "trivial"
        assert paths_of(obj) == ["$.module"]

    def test_family_and_families_conflict(self):
        obj = json.loads(load("family_square_to_second.json"))
        obj["families"] = {"extra": obj["family"]}
        assert "$.family" in paths_of(obj)

    def test_not_json(self):
        with pytest.raises(SpecErrorList) as exc:
            parse_spec("{nope")
        assert exc.value.errors[0].path == "$"

    def test_not_an_object(self):
        with pytest.raises(SpecErrorList) as exc:
            parse_spec("[1, 2]")
        assert "object" in exc.value.errors[0].message

    def test_errors_are_collected_not_first_only(self):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["stray"] = 0
        obj["algebra"]["products"][0]["right"] = "w"
        obj["algebra"]["products"][1]["result"][0]["coeff"] = "a/b"
        paths = paths_of(obj)
        assert "$.stray" in paths
        assert "$.algebra.products[0].right" in paths
        assert "$.algebra.products[1].result[0].coeff" in paths

    def test_strict_key_rejects_bad_table(self):
        # the minus table is not biadditive, so its own strict=true refuses it
        obj = json.loads(load("sign_table_minus.json"))
        obj["bicharacter"]["strict"] = True
        assert paths_of(obj) == ["$.bicharacter"]

    def test_default_options(self):
        spec = spec_of("dual_numbers_super.json")
        assert spec.options == {"max_n": 3, "force": False}

    @pytest.mark.parametrize("label, build", [("natural", natural_bimodule),
                                              ("trivial", trivial_bimodule)],
                             ids=["natural", "trivial"])
    def test_explicit_module_is_parsed(self, label, build):
        A = spec_of("dual_numbers_super.json").algebra
        V = build(A)
        obj = json.loads(load("dual_numbers_super.json"))
        obj["module"] = DUAL_NUMBERS_MODULES[label]
        spec = parse_spec(json.dumps(obj))
        assert spec.module_label == "explicit"
        assert spec.module.space.names == V.space.names
        assert spec.module.space.degrees == V.space.degrees
        assert (spec.module.left, spec.module.right) == (V.left, V.right)


class TestDuplicateEntries:
    """Entries for one pair add up, in the algebra and in the module."""

    def with_products(self, *results):
        obj = json.loads(load("cyclic_products.json"))
        obj["algebra"]["products"] = [
            {"left": "x", "right": "y", "result": result} for result in results]
        return parse_spec(json.dumps(obj)).algebra

    def test_product_coefficients_add(self):
        A = self.with_products([{"basis": "z", "coeff": "1"}],
                               [{"basis": "z", "coeff": "2"}])
        zero = CycScalar.zero()
        assert A.products == {(0, 1): [zero, zero, CycScalar.rational(3)]}

    def test_cancelling_entries_store_nothing(self):
        A = self.with_products([{"basis": "z", "coeff": "1"}],
                               [{"basis": "z", "coeff": "-1"}])
        assert (0, 1) not in A.products

    def test_zero_coefficient_on_a_wrongly_graded_target_is_accepted(self):
        A = self.with_products([{"basis": "x", "coeff": "0"},
                                {"basis": "z", "coeff": "1"}])
        zero = CycScalar.zero()
        assert A.products == {(0, 1): [zero, zero, CycScalar.one()]}

    def test_left_actions_on_one_pair_add(self):
        obj = json.loads(load("cyclic_products.json"))
        obj["module"] = {
            "basis": [{"name": "u", "degree": [0, 0, 0]},
                      {"name": "w", "degree": [1, 1, 0]}],
            "left": [{"x": "x", "v": "u", "result": [{"basis": "w", "coeff": "1"}]},
                     {"x": "x", "v": "u", "result": [{"basis": "w", "coeff": "2"}]}],
        }
        V = parse_spec(json.dumps(obj)).module
        assert V.left == {(0, 0): {1: CycScalar.rational(3)}}
        assert V.right == {}

    def test_sum_past_the_conductor_bound_is_a_schema_error(self):
        # each coefficient is supported; their sum would need conductor 991 * 997
        terms = [[{"basis": "w", "coeff": {"conductor": m, "coeffs": ["0", "1"]}}]
                 for m in (991, 997)]
        message = "conductor 988027 exceeds the supported maximum 1000"
        obj = json.loads(load("cyclic_products.json"))
        obj["algebra"]["products"] = [
            {"left": "x", "right": "y", "result": [dict(t[0], basis="z")]}
            for t in terms]
        assert [(e.path, e.message) for e in spec_errors(obj)] == [
            ("$.algebra", message)]
        obj = json.loads(load("cyclic_products.json"))
        obj["module"] = {
            "basis": [{"name": "u", "degree": [0, 0, 0]},
                      {"name": "w", "degree": [1, 1, 0]}],
            "left": [{"x": "x", "v": "u", "result": t} for t in terms],
        }
        assert [(e.path, e.message) for e in spec_errors(obj)] == [
            ("$.module", message)]


class TestValidateCommand:
    def test_pass(self):
        code, out, err = call("validate", "dual_numbers_super.json")
        assert code == 0
        assert out == "left-symmetric identity: PASS\n"

    def test_fail_lists_violations(self):
        code, out, err = call("validate", "cyclic_products.json")
        assert code == 1
        assert "left-symmetric identity: FAIL (4 of 27 checks)" in out
        assert "(x, z, x)" in out

    def test_bracket_algebra_pass(self):
        code, out, err = call("validate", "cross_product_brackets.json")
        assert code == 0
        assert out == "bracket axioms (skew + jacobi): PASS\n"

    @pytest.mark.parametrize("label", ["natural", "trivial"])
    def test_explicit_module_gets_its_own_check(self, label):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["module"] = DUAL_NUMBERS_MODULES[label]
        spec = parse_spec(json.dumps(obj))
        out = io.StringIO()
        assert run("validate", spec, out=out) == 0
        lines = out.getvalue().splitlines()
        assert lines == ["left-symmetric identity: PASS",
                         "bimodule axioms (bm1 + bm2): PASS"]


    @pytest.mark.parametrize("label", ["bm1", "bm2", "skew", "jacobi", "module", "c0"])
    def test_basis_label_named_like_a_law_tag(self, label):
        text = load("cyclic_products.json").replace('"x"', f'"{label}"')
        out = io.StringIO()
        assert run("validate", parse_spec(text), out=out) == 1
        assert out.getvalue().splitlines() == [
            "left-symmetric identity: FAIL (4 of 27 checks)",
            f"  ({label}, y, {label}): y -> 1",
            f"  ({label}, z, {label}): z -> -1",
            f"  (y, {label}, {label}): y -> 1",
            f"  (z, {label}, {label}): z -> -1",
        ]


class TestCommutatorCommand:
    def test_anticommuting_pair_bracket(self):
        code, out, err = call("commutator", "anticommuting_pair.json")
        assert code == 0
        assert out == "[x, y] = 2*z\n"

    def test_commutative_algebra_has_no_brackets(self):
        code, out, err = call("commutator", "dual_numbers_super.json")
        assert code == 0
        assert out == "all brackets vanish\n"

    def test_refusal_on_invalid_algebra(self):
        code, out, err = call("commutator", "cyclic_products.json")
        assert code == 1
        assert out.startswith("commutator refused:")

    def test_force_option_overrides_refusal(self):
        obj = json.loads(load("cyclic_products.json"))
        obj["options"] = {"force": True}
        spec = parse_spec(json.dumps(obj))
        out = io.StringIO()
        assert run("commutator", spec, out=out) == 0
        assert "[x, z] =" in out.getvalue()

    def test_minus_one_coefficient_prints_as_a_sign(self):
        # x, y of degree 0 with the one product y x = x: [x, y] = -x
        obj = {"name": "yx", "group": {"orders": [2]},
               "bicharacter": {"mode": "trivial"},
               "algebra": {
                   "basis": [{"name": "x", "degree": [0]},
                             {"name": "y", "degree": [0]}],
                   "products": [{"left": "y", "right": "x",
                                 "result": [{"basis": "x", "coeff": "1"}]}]}}
        spec = parse_spec(json.dumps(obj))
        out = io.StringIO()
        assert run("validate", spec, out=out) == 0
        out = io.StringIO()
        assert run("commutator", spec, out=out) == 0
        assert out.getvalue() == "[x, y] = -x\n"

    def test_bracket_algebra_is_rejected(self):
        code, out, err = call("commutator", "cross_product_brackets.json")
        assert code == 2
        assert "bracket algebra" in err


class TestCohomologyCommand:
    def test_table_output(self):
        code, out, err = call("cohomology", "dual_numbers_super.json", max_n=2)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "degree", "dimC", "dimZ", "dimB", "dimH"]
        assert "0  (0)     1     1     0     1" in lines
        assert "2  (1)     4     3     1     2" in lines

    def test_invalid_algebra_still_reports_with_warning(self):
        # dimensions from raw matrices are still printed; the validator
        # failure is surfaced on stderr, not as a refusal
        code, out, err = call("cohomology", "cyclic_products.json")
        assert code == 0
        assert "dimH" in out
        assert "warning:" in err
        assert "left-symmetric identity" in err

    def test_non_biadditive_table_warns(self):
        code, out, err = call("h0", "anticommuting_pair.json")
        assert code == 0
        assert "warning: bicharacter is not biadditive" in err

    def test_bracket_algebra_is_rejected(self):
        code, out, err = call("cohomology", "mixed_abelian_brackets.json")
        assert code == 2

    def test_max_n_gate(self):
        code, out, err = call("cohomology", "dual_numbers_super.json", max_n=9)
        assert code == 2
        assert "0..6" in err

    def test_module_flag_switches_coefficients(self):
        _, natural, _ = call("cohomology", "dual_numbers_super.json",
                             max_n=1, module="natural")
        _, trivial, _ = call("cohomology", "dual_numbers_super.json",
                             max_n=1, module="trivial")
        assert natural != trivial

    def test_unknown_module_flag(self):
        code, out, err = call("cohomology", "dual_numbers_super.json",
                              module="adjoint")
        assert code == 2
        assert "unknown module" in err

    def test_json_report_validates(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = call("cohomology", "dual_numbers_super.json",
                              max_n=2, json_path=str(target))
        assert code == 0
        report = json.loads(target.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["algebra"] == "dual-numbers"
        assert report["module"] == "natural"
        assert report["theorem_checks"] == []
        assert {e["n"] for e in report["entries"]} == {0, 1, 2}

    def test_json_flag_rejected_elsewhere(self):
        code, out, err = call("validate", "dual_numbers_super.json",
                              json_path="/tmp/nope.json")
        assert code == 2
        assert "--json" in err


class TestH0Command:
    def test_exact_line(self):
        code, out, err = call("h0", "anticommuting_pair.json")
        assert code == 0
        assert out == "dim H0 = 1 at degree (0,1,1)\n"

    def test_zero_algebra_point(self):
        code, out, err = call("h0", "minimal_zero_algebra.json")
        assert code == 0
        assert out == "dim H0 = 1 at degree (1)\n"

    def test_no_invariants_left(self):
        code, out, err = call("h0", "cyclic_products.json", module="natural")
        assert code == 0
        assert out == "dim H0 = 0\n"
        assert err.startswith("warning: algebra fails the left-symmetric identity")

    def test_json_report(self, tmp_path):
        target = tmp_path / "h0.json"
        code, out, err = call("h0", "anticommuting_pair.json",
                              json_path=str(target))
        assert code == 0
        report = json.loads(target.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert all(e["n"] == 0 for e in report["entries"])
        assert all(e["dimB"] == 0 for e in report["entries"])


class TestVerifyCommand:
    def test_pass(self):
        code, out, err = call("verify-theorem", "dual_numbers_super.json")
        assert code == 0
        assert out.endswith("theorem check at n=1: PASS\n")
        assert "yes" in out and "NO" not in out

    def test_refused_when_coefficients_break(self):
        code, out, err = call("verify-theorem", "anticommuting_pair.json")
        assert code == 1
        assert out.startswith("theorem check at n=1: REFUSED")
        assert "left-module law" in out

    def test_dimensions_equal_but_intertwining_fails(self):
        """Over the non-biadditive table with trivial coefficients the
        per-degree dimensions agree while the square of maps does not
        commute; the report must show both facts and exit 1."""
        code, out, err = call("verify-theorem", "anticommuting_pair.json",
                              module="trivial")
        assert code == 1
        assert out.endswith("theorem check at n=1: FAIL\n")
        lines = [l for l in out.splitlines() if l.startswith("(")]
        assert lines, out
        for line in lines:
            cells = line.split()
            assert cells[3] == "yes" and cells[4] == "NO"

    def test_n_gate(self):
        code, out, err = call("verify-theorem", "dual_numbers_super.json", n=0)
        assert code == 2

    def test_level_two(self):
        code, out, err = call("verify-theorem", "dual_numbers_super.json", n=2)
        assert code == 0
        assert "theorem check at n=2: PASS" in out

    def test_json_report(self, tmp_path):
        target = tmp_path / "verify.json"
        code, out, err = call("verify-theorem", "dual_numbers_super.json",
                              json_path=str(target))
        assert code == 0
        report = json.loads(target.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["entries"] == []
        assert report["theorem_checks"]
        assert all(c["equal"] and c["intertwining_zero"]
                   for c in report["theorem_checks"])


class TestDispatch:
    def test_unknown_command(self):
        code, out, err = call("bogus", "dual_numbers_super.json")
        assert (code, out, err) == (2, "", "unknown command 'bogus'\n")

    def test_json_refused_for_a_command_without_a_report(self, tmp_path):
        target = tmp_path / "validate.json"
        code, out, err = call("validate", "dual_numbers_super.json",
                              json_path=str(target))
        assert (code, out) == (2, "")
        assert err == "--json applies to cohomology, h0, and verify-theorem\n"
        assert not target.exists()


class TestScanCommand:
    @pytest.mark.parametrize("grid, points", [
        ("fixture", 20),
        (None, len(DEFAULT_GRID)),
    ], ids=["fixture_grid", "null_grid_is_the_default"])
    def test_single_parameter_grid_passes(self, grid, points):
        obj = json.loads(load("family_square_to_second.json"))
        if grid != "fixture":
            obj["grid"] = grid
        out = io.StringIO()
        assert run("scan", parse_spec(json.dumps(obj)), out=out) == 0
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "point,pass,first_violation"
        assert len(lines) == points + 1
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_two_parameter_grid_fails_off_axes(self):
        code, out, err = call("scan", "family_mutual_squares.json")
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 101
        passing = [l for l in lines[1:] if l.split(",")[1] == "1"]
        assert len(passing) == 19
        failing = [l for l in lines[1:] if l.split(",")[1] == "0"]
        assert all(l.endswith("x y x") for l in failing)

    def test_no_family_declared(self):
        code, out, err = call("scan", "dual_numbers_super.json")
        assert code == 2
        assert "no parameter family" in err

    def test_family_name_required_when_ambiguous(self):
        obj = json.loads(load("family_square_to_second.json"))
        fam = obj.pop("family")
        obj["families"] = {"first": fam, "second": fam}
        spec = parse_spec(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        assert run("scan", spec, out=out, err=err) == 2
        assert "--family required" in err.getvalue()
        err2 = io.StringIO()
        assert run("scan", spec, family="first", out=io.StringIO(), err=err2) == 0

    def test_unknown_family_name(self):
        code, out, err = call("scan", "family_square_to_second.json",
                              family="nope")
        assert code == 2
        assert "unknown family" in err


# JSON true/false parse as Python bool, a subclass of int
BOOLEANS_AS_INTEGERS = [
    ("$.algebra.basis[1].degree", ("algebra", "basis", 1, "degree"), [True]),
    ("$.options.max_n", ("options",), {"max_n": True}),
    ("$.group", ("group", "orders"), [True]),
    ("$.bicharacter", ("bicharacter",),
     {"mode": "form", "matrix": [[True]], "root_order": True}),
    ("$.bicharacter", ("bicharacter", "matrix"), [[True]]),
    ("$.bicharacter", ("bicharacter", "root_order"), True),
]

# scalar objects that parsed as some other scalar: u*u = 3u, (1 + 2 z3)u, 0
MISREAD_SCALARS = [
    ("boolean_conductor", {"conductor": True, "coeffs": ["1", "2"]}),
    ("string_coeffs", {"conductor": 3, "coeffs": "12"}),
    ("object_coeffs", {"conductor": 4, "coeffs": {"0": "1"}}),
]

# grids that named no parameter or held no value, as edits of
# family_mutual_squares.json
UNUSABLE_GRIDS = [
    ("unknown_parameter", {"c9": ["1"]},
     "$.grid: 'c9' is not a parameter of a declared family"),
    ("empty_values", {"c1": []}, "$.grid: grid for c1 must be a non-empty list"),
    ("not_an_object", [1], "$.grid: grid must map parameter names to value lists"),
]

# malformed bicharacter objects, as edits of sign_table_plus.json's table:
# (test id, keys to drop, keys to set or a value to replace the whole
# object, message)
MALFORMED_BICHARACTERS = [
    ("list", (), [1], "bicharacter must be an object, got [1]"),
    ("table_without_degrees", ("degrees",), {}, "table mode needs degrees"),
    ("degrees_not_a_list", (), {"degrees": 5},
     "degrees must be a list of integer lists: 5"),
    ("boolean_degree_component", (),
     {"degrees": [[True, True, False], [1, 0, 1], [0, 1, 1]]},
     "degrees must be a list of integer lists: "
     "[[True, True, False], [1, 0, 1], [0, 1, 1]]"),
    ("strict_not_a_boolean", (), {"strict": "no"}, "strict must be a boolean, got 'no'"),
    ("boolean_value", (), {"values": [[True, 1, 1], [1, 1, 1], [1, 1, 1]]},
     "non-rational coefficient encoding: True"),
    ("zero_value", (),
     {"values": [["1", "0", "-1"], ["-1", "1", "-1"], ["-1", "-1", "1"]]},
     "bicharacter values must be nonzero"),
    ("form_root_order_without_matrix", ("degrees", "values", "strict"),
     {"mode": "form", "root_order": 7}, "form mode has a root_order but no matrix"),
]

# malformed family objects, as edits of family_square_to_second.json's
# family (x of degree 1, y of degree 2 in Z3): (test id, edit, message)
XXY = {"left": "x", "right": "x", "result": "y"}
MALFORMED_FAMILIES = [
    ("free_not_a_list", {"free": 5}, "free and fixed must be lists of slots"),
    ("fixed_not_a_list", {"fixed": 5}, "free and fixed must be lists of slots"),
    ("fixed_without_value", {"fixed": [{"left": "y", "right": "y", "result": "x"}]},
     "fixed slot {'left': 'y', 'right': 'y', 'result': 'x'} needs a scalar value"),
    ("float_value", {"fixed": [{"left": "y", "right": "y", "result": "x",
                                "value": 1.5}]},
     "fixed slot {'left': 'y', 'right': 'y', 'result': 'x', 'value': 1.5} "
     "needs a scalar value"),
    ("four_parameters", {"free": [dict(XXY, parameter=p) for p in "abcd"]},
     "at most 3 parameters"),
    ("fixed_off_the_grading",
     {"fixed": [{"left": "x", "right": "y", "result": "y", "value": "1"}]},
     "fixed slot (0, 1, 1) violates the grading"),
    ("two_parameters_on_one_slot",
     {"free": [dict(XXY, parameter="c"), dict(XXY, parameter="b")]},
     "slot (0, 0, 1) has two free parameters, c and b"),
]

# refusals that take more than one edit of a fixture to reach:
# (test id, fixture, command, {keys to the edited value: new value}, message)
REFUSED_EDITS = [
    ("table_too_large_to_validate", "sign_table_plus.json", "validate",
     {("group", "orders"): [128, 128, 2],
      ("bicharacter", "degrees"): [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "$.bicharacter: generated subgroup too large to validate (32768 > 16384)"),
    ("four_dimensional_family", "family_square_to_second.json", "scan",
     {("algebra", "basis"): [{"name": n, "degree": [d]}
                             for n, d in (("x", 1), ("y", 2), ("z", 0), ("w", 0))]},
     "$.family: families are 2- or 3-dimensional"),
]

# inputs the front-door fuzz below turned up, each a traceback before:
# (test id, fixture, keys to the edited value, new value, error path)
FUZZ_FINDINGS = [
    ("products_not_a_list", "dual_numbers_super.json",
     ("algebra", "products"), "[]", "$.algebra.products"),
    ("basis_entry_not_an_object", "family_square_order_four.json",
     ("algebra", "basis", 1), [{"name": "y", "degree": [2]}], "$.algebra.basis[1]"),
    ("label_not_a_string", "dual_numbers_super.json",
     ("algebra", "products", 0, "right"), {"v": "u"}, "$.algebra.products[0].right"),
    ("term_label_not_a_string", "dual_numbers_super.json",
     ("algebra", "products", 0, "result", 0, "basis"), ["u"],
     "$.algebra.products[0].result[0].basis"),
    ("grid_division_by_zero", "family_square_to_second.json",
     ("grid",), {"c": ["1/0"]}, "$.grid"),
    ("table_division_by_zero", "sign_table_plus.json",
     ("bicharacter", "values", 0, 1), "1/0", "$.bicharacter"),
    ("degree_outside_the_table", "sign_table_plus.json",
     ("algebra", "basis", 2, "degree"), [1, 1, 1], "$.algebra.basis[2].degree"),
]


MODULE_BASIS = [{"name": "w", "degree": [0]}]


class TestMainEntry:
    @pytest.mark.parametrize("name, where, value, path",
                             [case[1:] for case in FUZZ_FINDINGS],
                             ids=[case[0] for case in FUZZ_FINDINGS])
    def test_fuzz_finding_is_a_located_schema_error(self, tmp_path, capsys,
                                                    name, where, value, path):
        obj = json.loads(load(name))
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED_FAMILIES],
                             ids=[case[0] for case in MALFORMED_FAMILIES])
    def test_malformed_family_is_a_located_schema_error(self, tmp_path, capsys,
                                                        edit, message):
        for key, path in (("family", "$.family"), ("families", "$.families.sq")):
            obj = json.loads(load("family_square_to_second.json"))
            family = dict(obj.pop("family"), **edit)
            obj[key] = family if key == "family" else {"sq": family}
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(obj))
            assert main(["scan", str(spec)]) == 2
            assert capsys.readouterr().err == f"schema error at {path}: {message}\n"

    def test_missing_algebra_is_a_located_schema_error(self, tmp_path, capsys):
        obj = json.loads(load("dual_numbers_super.json"))
        del obj["algebra"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "schema error at $.algebra: missing\n")

    @pytest.mark.parametrize("drop, edit, message",
                             [case[1:] for case in MALFORMED_BICHARACTERS],
                             ids=[case[0] for case in MALFORMED_BICHARACTERS])
    def test_malformed_bicharacter_is_a_located_schema_error(self, tmp_path, capsys,
                                                             drop, edit, message):
        obj = json.loads(load("sign_table_plus.json"))
        if isinstance(edit, dict):
            bichar = {k: v for k, v in obj["bicharacter"].items() if k not in drop}
            obj["bicharacter"] = dict(bichar, **edit)
        else:
            obj["bicharacter"] = edit
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        assert capsys.readouterr().err == f"schema error at $.bicharacter: {message}\n"

    @pytest.mark.parametrize("name, command, edits, message",
                             [case[1:] for case in REFUSED_EDITS],
                             ids=[case[0] for case in REFUSED_EDITS])
    def test_refusal_behind_several_edits_is_located(self, tmp_path, capsys,
                                                     name, command, edits, message):
        obj = json.loads(load(name))
        for where, value in edits.items():
            target = obj
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main([command, str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error at {message}\n"

    @pytest.mark.parametrize("path, where, value", BOOLEANS_AS_INTEGERS,
                             ids=["degree", "max_n", "orders", "form",
                                  "matrix", "root_order"])
    def test_boolean_rejected_where_integer_expected(self, tmp_path, capsys,
                                                     path, where, value):
        obj = json.loads(load("dual_numbers_super.json"))
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        assert f"schema error at {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("coeff", [case[1] for case in MISREAD_SCALARS],
                             ids=[case[0] for case in MISREAD_SCALARS])
    def test_misread_scalar_is_a_located_schema_error(self, tmp_path, capsys,
                                                      coeff):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["algebra"]["products"][0]["result"][0]["coeff"] = coeff
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["commutator", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "schema error at $.algebra.products[0].result[0].coeff: "
            "malformed scalar: ")

    @pytest.mark.parametrize("grid, message", [case[1:] for case in UNUSABLE_GRIDS],
                             ids=[case[0] for case in UNUSABLE_GRIDS])
    def test_unusable_grid_is_a_located_schema_error(self, tmp_path, capsys,
                                                     grid, message):
        obj = json.loads(load("family_mutual_squares.json"))
        obj["grid"] = grid
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["scan", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error at {message}\n"

    @pytest.mark.parametrize("edit, where", [
        ({"coeff": {"conductor": 10 ** 6, "coeffs": ["1"]}},
         "schema error at $.algebra.products[0].result[0].coeff:"),
        ({"bicharacter": {"mode": "form", "matrix": [[0]], "root_order": 10 ** 6}},
         "schema error at $.bicharacter:"),
        ({"coeff": {"conductor": 991, "coeffs": ["0", "1"]},
          "coeff2": {"conductor": 997, "coeffs": ["0", "1"]}},
         "validate refused: conductor 988027 "),
    ], ids=["coefficient", "root_order", "lcm_of_two"])
    def test_oversized_conductor_is_refused_with_exit_2(self, tmp_path, capsys,
                                                        edit, where):
        obj = json.loads(load("dual_numbers_super.json"))
        products = obj["algebra"]["products"]
        if "coeff" in edit:
            products[0]["result"][0]["coeff"] = edit["coeff"]
        if "coeff2" in edit:
            products[1]["result"][0]["coeff"] = edit["coeff2"]
        if "bicharacter" in edit:
            obj["bicharacter"] = edit["bicharacter"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        err = capsys.readouterr().err
        assert where in err
        assert "exceeds the supported maximum 1000" in err

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_unreadable_grid_cap_is_refused_with_exit_2(self, monkeypatch, capsys,
                                                         value):
        monkeypatch.setenv("COLORHOM_MAX_GRID", value)
        code = main(["scan", str(FIXTURES / "family_mutual_squares.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"COLORHOM_MAX_GRID must be an integer, "
                                f"got {value!r}\n")

    def test_module_action_off_the_grading_is_a_schema_error(self, tmp_path, capsys):
        obj = json.loads(load("cyclic_products.json"))
        obj["module"] = {
            "basis": [{"name": "u", "degree": [0, 0, 0]}],
            "left": [{"x": "x", "v": "u", "result": [{"basis": "u", "coeff": "1"}]}],
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "schema error at $.module: grading violation in left action at "
            "(0, 0): component u has degree (0,0,0), expected (1,1,0)\n")

    @pytest.mark.parametrize("where, value, message", [
        (["options"], 5, "$.options: must be an object"),
        (["algebra", "bogus"], 1, "$.algebra.bogus: unknown key"),
        (["module"], 5,
         '$.module: must be "natural", "trivial", or an explicit object'),
        (["module"], {"basis": MODULE_BASIS, "bogus": 1},
         "$.module.bogus: unknown key"),
        (["module"], {"basis": MODULE_BASIS, "left": 5},
         "$.module.left: must be a list"),
        (["module"], {"basis": MODULE_BASIS, "left": [{"x": "u"}]},
         "$.module.left[0]: needs x, v, result"),
        (["module"], {"basis": MODULE_BASIS,
                      "left": [{"x": "q", "v": "r", "result": []}]},
         "$.module.left[0].x: unresolved basis label 'q'\n"
         "schema error at $.module.left[0].v: unresolved basis label 'r'"),
        (["families"], 5, "$.families: must be an object of named families"),
        (["algebra", "lie"], "yes", "$.algebra.lie: must be a boolean"),
        (["family"], [1], "$.family: family must be an object"),
    ], ids=["options", "algebra_key", "module_kind", "module_key",
            "module_left", "module_entry", "module_labels", "families",
            "lie", "family"])
    def test_schema_error_message(self, tmp_path, capsys, where, value, message):
        obj = json.loads(load("dual_numbers_super.json"))
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error at {message}\n"

    def test_validate_tags_a_failing_explicit_module(self, tmp_path, capsys):
        # u acts on w0 by 2 and x sends w0 to w1, so bm1 fails at (u, x, w0)
        # and (x, u, w0): (ux)w0 - u(x w0) = w1 but (xu)w0 - x(u w0) = -w1
        obj = json.loads(load("dual_numbers_super.json"))
        obj["module"] = {
            "basis": [{"name": "w0", "degree": [0]}, {"name": "w1", "degree": [1]}],
            "left": [{"x": "u", "v": "w0", "result": [{"basis": "w0", "coeff": "2"}]},
                     {"x": "x", "v": "w0", "result": [{"basis": "w1", "coeff": "1"}]}],
        }
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "left-symmetric identity: PASS\n"
            "bimodule axioms (bm1 + bm2): FAIL (2 checks)\n"
            "  bm1 (u, x, w0): w1 -> 2\n"
            "  bm1 (x, u, w0): w1 -> -2\n")

    @pytest.mark.parametrize("command, report", [
        ("h0", "dim H0 = 1 at degree (0)\n"
               "dim H0 = 1 at degree (1)\n"),
        ("verify-theorem",
         "degree  dim H^{n+1}(A,V)  dim H^n([A],C1)  equal  intertwining\n"
         "------  ----------------  ---------------  -----  ------------\n"
         "(0)     2                 2                yes    yes\n"
         "(1)     2                 2                yes    yes\n"
         "theorem check at n=1: PASS\n"),
    ], ids=["h0", "verify-theorem"])
    def test_unwritable_json_path(self, tmp_path, capsys, command, report):
        target = tmp_path / "missing" / "report.json"
        code = main([command, str(FIXTURES / "dual_numbers_super.json"),
                     "--json", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        # the report still reaches stdout; only the file is missing
        assert captured.out == report
        assert captured.err == (f"cannot write {target}: [Errno 2] No such "
                                f"file or directory: '{target}'\n")

    def test_validate_via_argv(self, capsys):
        code = main(["validate", str(FIXTURES / "dual_numbers_super.json")])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code = main(["validate", str(FIXTURES / "does_not_exist.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_json_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["validate", str(bad)])
        assert code == 2
        assert "schema error at $:" in capsys.readouterr().err

    def test_schema_errors_reported_per_path(self, capsys):
        code = main(["validate", str(FIXTURES / "bad_product_degree.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema error at $.algebra.products[0]:" in err

    def test_cohomology_json_flag(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["cohomology", str(FIXTURES / "dual_numbers_super.json"),
                     "--max-n", "1", "--json", str(target)])
        assert code == 0
        jsonschema.validate(json.loads(target.read_text()), REPORT_SCHEMA)

    def test_verify_flags(self, capsys):
        code = main(["verify-theorem",
                     str(FIXTURES / "dual_numbers_super.json"),
                     "--n", "1", "--module", "trivial"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_scan_exit_code_propagates(self, capsys):
        code = main(["scan", str(FIXTURES / "family_mutual_squares.json")])
        assert code == 1


# ---------------------------------------------------------------------------
# front-door fuzz: mutated fixtures must end in exit 0, 1 or 2

FUZZ_VALUES = [None, True, False, 0, 1, -1, 3, 1.5, "", "x", "1/0", "-1/2",
               [], [1], [[1]], ["x"], {}, {"x": 1}]


def _paths(node, path=()):
    """Every path into a JSON value, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated_fixtures(draw):
    """A shipped fixture with one to three values dropped, retyped (wrapped
    in a list or object, or replaced by its JSON text) or replaced."""
    obj = json.loads(load(draw(st.sampled_from(sorted(
        p.name for p in FIXTURES.glob("*.json"))))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key, old = path[-1], parent[path[-1]]
        op = draw(st.sampled_from(["drop", "list", "object", "text", "replace"]))
        if op == "drop":
            del parent[key]
        elif op == "list":
            parent[key] = [old]
        elif op == "object":
            parent[key] = {"v": old}
        elif op == "text":
            parent[key] = json.dumps(old)
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return obj


class TestFrontDoorFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mutated_fixtures())
    def test_mutated_fixture_ends_in_an_exit_code(self, obj):
        text = json.dumps(obj)
        try:
            parse_spec(text)
        except SpecErrorList:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["validate", str(path)])
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("data, head", [
        (b'\xff\xfe{"a":1}', "cannot read {path}: "),
        (b'{"name": "\xc3"}', "cannot read {path}: "),
        (b"[" * 100_000, "schema error at $: not valid JSON: "),
        (b'{"a":' * 100_000, "schema error at $: not valid JSON: "),
    ], ids=["not_utf8", "cut_character", "deeply_nested", "deeply_nested_objects"])
    def test_unreadable_text_is_refused(self, tmp_path, capsys, data, head):
        path = tmp_path / "spec.json"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(head.format(path=path))


def _rename(obj, where, old, new, value=None):
    """Rename the key ``old`` of the object at ``where`` to ``new``, or add
    ``new`` with ``value`` when ``old`` is None."""
    for key in where:
        obj = obj[key]
    obj[new] = obj.pop(old) if old is not None else value


FIXED_ENTRY = {"left": "x", "right": "x", "result": "y", "value": "1"}


class TestMisspelledKeys:
    """A key an object does not read is an error at its own path, not a
    silent fallback: a misspelled root order, strict flag or fixed list
    would otherwise change the problem without a word."""

    @pytest.mark.parametrize("fixture, where, old, new, value, message", [
        ("dual_numbers_super.json", ["group"], None, "ordres", [2],
         "$.group.ordres: unknown key"),
        ("dual_numbers_super.json", ["bicharacter"], "root_order", "root_ordr",
         None, "$.bicharacter.root_ordr: unknown key"),
        ("dual_numbers_super.json", ["bicharacter"], "mode", "mdoe", None,
         "$.bicharacter.mdoe: unknown key"),
        ("family_mutual_squares.json", ["bicharacter"], None, "matrix", [[1]],
         "$.bicharacter.matrix: unknown key"),
        ("sign_table_plus.json", ["bicharacter"], None, "root_order", 2,
         "$.bicharacter.root_order: unknown key"),
        ("family_square_to_second.json", ["family"], None, "fixd",
         [FIXED_ENTRY], "$.family.fixd: unknown key"),
        ("family_square_to_second.json", ["family"], None, "fixed",
         [dict(FIXED_ENTRY, vaule="2")], "$.family.fixed[0].vaule: unknown key"),
        ("family_square_to_second.json", ["family", "free", 0], None, "parametre",
         "d", "$.family.free[0].parametre: unknown key"),
        # the table's own strict key gates it; options carry no second one
        ("sign_table_minus.json", [], None, "options", {"strict": False},
         "$.options.strict: unknown option"),
    ], ids=["group", "root_order", "no_mode", "trivial_mode", "table_mode",
            "family", "fixed_entry", "free_entry", "strict_option"])
    def test_unknown_key_is_refused(self, tmp_path, capsys, fixture, where,
                                    old, new, value, message):
        obj = json.loads(load(fixture))
        _rename(obj, where, old, new, value)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert main(["validate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"schema error at {message}\n"

    def test_misspelled_strict_is_reported_beside_the_strict_gate(self):
        # without "strict": false the non-biadditive table is refused too
        obj = json.loads(load("sign_table_minus.json"))
        _rename(obj, ["bicharacter"], "strict", "stict")
        assert paths_of(obj) == ["$.bicharacter.stict", "$.bicharacter"]

    def test_errors_in_every_reader_come_in_document_order(self):
        # the group and the bicharacter parse past their unknown keys, so
        # the family is read; the grid is read whatever the family gives
        obj = json.loads(load("family_square_to_second.json"))
        _rename(obj, ["group"], None, "ordrs", [3])
        _rename(obj, ["bicharacter"], None, "root_order", 3)
        _rename(obj, ["family"], None, "fixd", [])
        _rename(obj, ["family", "free", 0], "parameter", "paramter")
        _rename(obj, ["grid"], None, "d", [])
        assert [str(e) for e in spec_errors(obj)] == [
            "$.group.ordrs: unknown key",
            "$.bicharacter.root_order: unknown key",
            "$.family.fixd: unknown key",
            "$.family.free[0].paramter: unknown key",
            "$.family: each free slot needs a parameter name",
            "$.grid: grid for d must be a non-empty list"]

    def test_named_families_are_located_by_name(self):
        # the family still parses, so the grid is checked against it
        obj = json.loads(load("family_square_to_second.json"))
        obj["families"] = {"sq": obj.pop("family")}
        obj["families"]["sq"]["fixd"] = []
        obj["grid"]["d"] = ["1"]
        assert [str(e) for e in spec_errors(obj)] == [
            "$.families.sq.fixd: unknown key",
            "$.grid: 'd' is not a parameter of a declared family"]

    def test_misspelled_algebra_key_is_reported_beside_the_module_error(self):
        # the algebra still parses, so its module is checked too
        obj = json.loads(load("dual_numbers_super.json"))
        obj["algebra"]["bogus"] = 1
        obj["module"] = 5
        assert [str(e) for e in spec_errors(obj)] == [
            "$.algebra.bogus: unknown key",
            '$.module: must be "natural", "trivial", or an explicit object']

    @pytest.mark.parametrize("mode", [["form"], "formm", 3, None])
    def test_unknown_mode_keeps_its_one_error(self, mode):
        obj = json.loads(load("dual_numbers_super.json"))
        obj["bicharacter"] = {"mode": mode, "matrx": [[1]]}
        assert [(e.path, e.message) for e in spec_errors(obj)] == [
            ("$.bicharacter", f"unknown bicharacter mode {mode!r}")]
