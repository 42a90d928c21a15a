"""Acceptance suite: one test per shipped guarantee, named so that
``pytest -v`` prints a single pass/fail line per criterion.

Four guarantees do not hold in the generality their one-line statements
suggest, because the non-biadditive sign table (the anticommuting-pair
fixture) breaks the complex identities above level 1.  Each of those is
kept as a pair: a ``*_as_stated`` test marked strict-xfail that runs the
blanket claim verbatim, and a ``*_computed_truth`` test that pins the
exact boundary of validity, including the precise failure set, so any
drift in either direction turns the suite red.

Stated runtime budgets are asserted with wall-clock measurements inside
the tests that carry them.
"""

import io
import json
import time
import warnings

import pytest

from colorhom.algebra import (
    ColorAlgebra,
    left_mult_nilpotent,
    validate_left_symmetric,
    validate_lie_color,
)
from colorhom.bimodule import natural_bimodule, trivial_bimodule
from colorhom.cli import ProblemSpec, parse_spec, run, spec_to_json
from colorhom.cohomology import (
    CohomologyError,
    NonComplexWarning,
    build_lie_complex,
    build_lsca_complex,
    cohomology_table,
    naive_oracle_table,
    phi_matrix,
    verify_main_theorem,
)
from colorhom.grading import BicharacterError, bichar_from_table
from colorhom.variety import allowed_products, scan_family
from helpers import (
    MINUS_ONE,
    ONE,
    SUPPORT,
    anticommuting_pair_algebra,
    cross_product_lie,
    cyclic_products_algebra,
    eps_minus,
    eps_plus,
    klein,
    lie_side,
    mixed_abelian_lie,
    mutual_squares_algebra,
    mutual_squares_family,
    single_degree_pair_space,
    square_to_second_algebra,
    table_index,
    xyz_space,
)

FIXDIR = __file__.rsplit("/", 2)[0] + "/fixtures"


@pytest.fixture(scope="module")
def corpus_pairs(lsa_corpus):
    """The shared fixture corpus: the anticommuting pair under both
    coefficient choices, the one-parameter family at three values, and
    the 25 seeded random algebras under natural coefficients.  The two
    non-biadditive entries sit at indices 0 and 1."""
    pair = anticommuting_pair_algebra()
    pairs = [(pair, natural_bimodule(pair)), (pair, trivial_bimodule(pair))]
    for c in (0, 1, -2):
        A = square_to_second_algebra(c)
        pairs.append((A, natural_bimodule(A)))
    pairs.extend((A, natural_bimodule(A)) for A in lsa_corpus)
    return pairs


def _is_zero_map(gmap) -> bool:
    return all(c.is_zero() for d in gmap.dst.degrees_present()
               for row in gmap.block(d) for c in row)


def _maps_agree(f, g) -> bool:
    degs = set(f.dst.degrees_present()) | set(g.dst.degrees_present())
    return all(a == b for d in degs
               for r1, r2 in zip(f.block(d), g.block(d))
               for a, b in zip(r1, r2))


def _both_towers(A, V, max_n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lsca = build_lsca_complex(A, V, max_n)
        L, W = lie_side(A, V)
        lie = build_lie_complex(L, W, max_n, check=False)
    return lsca, lie


def _square_failures(cx, levels) -> list:
    return [k for k in levels
            if not _is_zero_map(cx.diffs[k + 1].compose(cx.diffs[k]))]


def _intertwining_failures(A, V, lsca, lie, levels) -> list:
    out = []
    for n in levels:
        phi_n = phi_matrix(A, V, n, src=lsca.bases[n + 1], dst=lie.bases[n])
        phi_n1 = phi_matrix(A, V, n + 1, src=lsca.bases[n + 2],
                            dst=lie.bases[n + 1])
        if not _maps_agree(lie.diffs[n].compose(phi_n),
                           phi_n1.compose(lsca.diffs[n + 1])):
            out.append(n)
    return out


def _subgroup_of(eps):
    """All sums of support degrees, closed off exhaustively."""
    zero = klein().degree((0, 0, 0))
    elements = {zero} | {klein().degree(d) for d in SUPPORT}
    while True:
        more = {a + b for a in elements for b in elements}
        if more <= elements:
            return sorted(elements, key=lambda d: d.components)
        elements |= more


# ---------------------------------------------------------------------------
# criterion 1: the two sign tables and the strict biadditivity gate

def test_criterion_01_sign_tables_load_and_strict_gate():
    t0 = time.perf_counter()
    plus_vals = [[ONE if i == j else MINUS_ONE for j in range(3)]
                 for i in range(3)]
    minus_vals = [[MINUS_ONE if i == j else ONE for j in range(3)]
                  for i in range(3)]

    plus = bichar_from_table(klein(), SUPPORT, plus_vals, strict=True)
    assert plus.warnings == []

    with pytest.raises(BicharacterError, match="biadditivity"):
        bichar_from_table(klein(), SUPPORT, minus_vals, strict=True)

    minus = bichar_from_table(klein(), SUPPORT, minus_vals, strict=False)
    assert len(minus.warnings) == 1

    # exhaustive oracle on the generated subgroup: eps(a+b, c) must equal
    # eps(a, c) eps(b, c), and symmetrically in the second slot
    def violations(eps):
        subgroup = _subgroup_of(eps)
        bad = 0
        for a in subgroup:
            for b in subgroup:
                for c in subgroup:
                    if eps(a + b, c) != eps(a, c) * eps(b, c):
                        bad += 1
                    if eps(c, a + b) != eps(c, a) * eps(c, b):
                        bad += 1
        return bad

    assert violations(plus) == 0
    assert violations(minus) > 0
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 2: the anticommuting pair's invariants under self-coefficients

def test_criterion_02_anticommuting_pair_h0_regression():
    t0 = time.perf_counter()
    A = anticommuting_pair_algebra()
    assert validate_left_symmetric(A) == []
    with pytest.warns(NonComplexWarning):
        entries = cohomology_table(build_lsca_complex(A, natural_bimodule(A), 0))
    level0 = {tuple(e["degree"]): e["dimH"] for e in entries if e["n"] == 0}
    assert level0[(0, 1, 1)] == 1
    assert all(v == 0 for deg, v in level0.items() if deg != (0, 1, 1))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 3: both bracket fixtures satisfy the color Lie axioms

def test_criterion_03_bracket_fixtures_validate():
    t0 = time.perf_counter()
    assert validate_lie_color(cross_product_lie()) == []
    assert validate_lie_color(mixed_abelian_lie()) == []
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# criterion 4: both coboundary towers square to zero over the corpus

@pytest.mark.xfail(
    strict=True,
    reason="the non-biadditive sign table breaks the squared-coboundary "
           "identity above level 1 on the anticommuting pair; the paired "
           "computed-truth test pins the exact failure set",
)
def test_criterion_04_towers_square_to_zero_as_stated(corpus_pairs):
    for A, V in corpus_pairs:
        lsca, lie = _both_towers(A, V, 4)
        assert _square_failures(lsca, range(4)) == []
        assert _square_failures(lie, range(4)) == []


def test_criterion_04_towers_square_to_zero_computed_truth(corpus_pairs):
    """Exact boundary: every biadditive corpus member satisfies both
    identities at all levels n <= 3; over the sign table the hom tower
    first fails at level 2 and the bracket tower fails from the first
    level whose target involves a product of two original letters."""
    t0 = time.perf_counter()
    expected = {
        0: {"d": [2, 3], "delta": [0, 1, 2, 3]},   # pair, natural
        1: {"d": [2, 3], "delta": [1, 2, 3]},      # pair, trivial
    }
    for idx, (A, V) in enumerate(corpus_pairs):
        lsca, lie = _both_towers(A, V, 4)
        want = expected.get(idx, {"d": [], "delta": []})
        assert _square_failures(lsca, range(4)) == want["d"], idx
        assert _square_failures(lie, range(4)) == want["delta"], idx
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 5: graded dimension match and the coboundary intertwining

def test_criterion_05_cochain_dimensions_match(corpus_pairs):
    """dim C^{n+1}(A,V) equals dim C^n([A], C^1(A,V)) degree by degree
    for n <= 3 over the whole corpus, sign-table entries included: the
    identification is a statement about graded bases, not coboundaries."""
    for A, V in corpus_pairs:
        lsca, lie = _both_towers(A, V, 3)
        for n in range(4):
            up, down = lsca.bases[n + 1], lie.bases[n]
            degs = set(up.degrees_present()) | set(down.degrees_present())
            for deg in degs:
                assert up.dim_at(deg) == down.dim_at(deg)


@pytest.mark.xfail(
    strict=True,
    reason="over the non-biadditive sign table the coboundary squares stop "
           "commuting with the identification from level 1 on",
)
def test_criterion_05_intertwining_as_stated(corpus_pairs):
    for A, V in corpus_pairs:
        lsca, lie = _both_towers(A, V, 3)
        assert _intertwining_failures(A, V, lsca, lie, range(3)) == []


def test_criterion_05_intertwining_computed_truth(corpus_pairs):
    """The intertwining square commutes exactly for every biadditive
    corpus member at n <= 2, and for the sign-table entries only at
    n = 0; both coefficient choices fail identically at n = 1, 2."""
    for idx, (A, V) in enumerate(corpus_pairs):
        lsca, lie = _both_towers(A, V, 3)
        want = [1, 2] if idx in (0, 1) else []
        assert _intertwining_failures(A, V, lsca, lie, range(3)) == want, idx


# ---------------------------------------------------------------------------
# criterion 6: the dimension-comparison theorem over the corpus

@pytest.mark.xfail(
    strict=True,
    raises=(CohomologyError, AssertionError),
    reason="sign-table entries cannot satisfy the theorem: the natural "
           "coefficients fail the left-module law and the trivial ones "
           "break the intertwining",
)
def test_criterion_06_theorem_verification_as_stated(corpus_pairs):
    for A, V in corpus_pairs:
        for n in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = verify_main_theorem(A, V, n)
            assert report["equal"] and report["intertwining_zero"]


def test_criterion_06_theorem_verification_computed_truth(corpus_pairs):
    """Every biadditive corpus member passes the full per-degree check at
    n = 1 and n = 2 with both sides computed by disjoint code paths.  The
    sign-table entries land exactly where the structure predicts: natural
    coefficients are refused outright, trivial coefficients agree in every
    dimension yet fail the intertwining."""
    t0 = time.perf_counter()
    for idx, (A, V) in enumerate(corpus_pairs):
        for n in (1, 2):
            if idx == 0:
                with pytest.raises(CohomologyError):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        verify_main_theorem(A, V, n)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                report = verify_main_theorem(A, V, n)
            assert report["equal"], (idx, n)
            assert report["checks"], (idx, n)
            assert report["intertwining_zero"] == (idx != 1), (idx, n)
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 7: independent oracle agreement on every small fixture

def _oracle_fixture_set(lsa_corpus):
    fixtures = [
        ColorAlgebra(xyz_space(), eps_plus(), {}),
        ColorAlgebra(xyz_space(), eps_minus(), {}),
        anticommuting_pair_algebra(),
        cyclic_products_algebra(),
        square_to_second_algebra(0),
        square_to_second_algebra(1),
        square_to_second_algebra(-2),
        mutual_squares_algebra(1, 0),
    ]
    fixtures.extend(lsa_corpus)
    return fixtures


def _tables(A, V):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        main = [e for e in cohomology_table(build_lsca_complex(A, V, 3))
                if e["n"] <= 3]
        orac = naive_oracle_table(A, V, 3)
    return main, orac


@pytest.mark.xfail(
    strict=True,
    reason="at level 3 over the non-biadditive sign table the straightened "
           "tower and the raw-constraint oracle compute different kernels; "
           "the computed-truth test pins the exact divergence",
)
def test_criterion_07_oracle_agreement_as_stated(lsa_corpus):
    for A in _oracle_fixture_set(lsa_corpus):
        for V in (natural_bimodule(A), trivial_bimodule(A)):
            main, orac = _tables(A, V)
            assert main == orac


def test_criterion_07_oracle_agreement_computed_truth(lsa_corpus):
    """Entry-for-entry agreement everywhere except the sign-table pair at
    level 3, where only dim Z differs (dim C and dim B still agree): the
    alternating straightening used by the hom tower is no longer
    kernel-compatible once biadditivity fails."""
    expected_z = {
        "natural": {(0, 0, 0): (6, 4), (0, 1, 1): (7, 5),
                    (1, 0, 1): (5, 3), (1, 1, 0): (5, 3)},
        "trivial": {(0, 0, 0): (1, 0), (0, 1, 1): (1, 0)},
    }
    pair = anticommuting_pair_algebra()
    for A in _oracle_fixture_set(lsa_corpus):
        diverges = A.products == pair.products and A.eps.mode == "table"
        for kind, V in (("natural", natural_bimodule(A)),
                        ("trivial", trivial_bimodule(A))):
            main, orac = _tables(A, V)
            if not diverges:
                assert main == orac
                continue
            assert [e for e in main if e["n"] <= 2] == \
                   [e for e in orac if e["n"] <= 2]
            mism = {}
            for m, o in zip((e for e in main if e["n"] == 3),
                            (e for e in orac if e["n"] == 3)):
                assert (m["dimC"], m["dimB"]) == (o["dimC"], o["dimB"])
                assert m["degree"] == o["degree"]
                if m != o:
                    mism[tuple(m["degree"])] = (m["dimZ"], o["dimZ"])
            assert mism == expected_z[kind]


# ---------------------------------------------------------------------------
# criterion 8: the three-way case analysis on small varieties

def test_criterion_08_variety_case_analysis():
    t0 = time.perf_counter()
    # (a) both letters at the same nonzero degree: the grading admits no
    # product at all, so the variety is the single trivial algebra
    assert allowed_products(single_degree_pair_space()) == set()

    # (b) the one-parameter family passes at all 20 published grid values
    spec = parse_spec(open(f"{FIXDIR}/family_square_to_second.json").read())
    fam = spec.families["family"]
    assert len(spec.grid["c"]) == 20
    results = scan_family(fam, grid=spec.grid)
    assert len(results) == 20
    assert all(r["passes"] for r in results)

    # (c) the two-parameter family passes exactly on the coordinate axes
    def is_zero(v):
        return v.is_zero() if hasattr(v, "is_zero") else v == 0

    results = scan_family(mutual_squares_family())
    assert len(results) == 100
    for r in results:
        on_axes = is_zero(r["point"]["c1"]) or is_zero(r["point"]["c2"])
        assert r["passes"] == on_axes
    assert sum(1 for r in results if r["passes"]) == 19
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 9: honest reporting on the fixture that fails the validator

def test_criterion_09_invalid_algebra_cohomology_with_warning():
    A = cyclic_products_algebra()
    bad = validate_left_symmetric(A)
    assert ("x", "z", "x") in [key for key, _ in bad]

    C = trivial_bimodule(A)
    with pytest.warns(NonComplexWarning, match="raw coboundary matrices"):
        entries = cohomology_table(build_lsca_complex(A, C, 1))

    # one-dimensional invariants at the identity degree
    h0 = table_index(entries).get((0, (0, 0, 0)))
    assert h0 is not None and h0["dimH"] == 1
    assert all(e["dimH"] == 0 for e in entries
               if e["n"] == 0 and tuple(e["degree"]) != (0, 0, 0))

    # level-1 dimensions agree with the independent oracle, entry for entry
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        orac = naive_oracle_table(A, C, 1)
    assert [e for e in entries if e["n"] <= 1] == orac
    h1 = table_index(entries).get((1, (1, 1, 0)))
    assert h1 == {"n": 1, "degree": [1, 1, 0], "dimC": 1, "dimZ": 1,
                  "dimB": 0, "dimH": 1}
    assert all(e["dimH"] == 0 for e in entries
               if e["n"] == 1 and tuple(e["degree"]) != (1, 1, 0))


# ---------------------------------------------------------------------------
# criterion 10: nilpotent left multiplications force invariants

def test_criterion_10_nilpotent_invariants_lower_bound(corpus_pairs):
    hit = 0
    for A, V in corpus_pairs:
        if V.space is not A.space or not left_mult_nilpotent(A):
            continue
        hit += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            entries = cohomology_table(build_lsca_complex(A, V, 0))
        assert sum(e["dimH"] for e in entries if e["n"] == 0) >= 1
    assert hit >= 20


def test_criterion_10_nilpotent_invariants_nonzero_corpus(nonzero_lsa_corpus):
    """The same bound over algebras that all have a product: 24 of the 25
    members of the corpus above are zero algebras, where it holds trivially."""
    hit = 0
    for A in nonzero_lsa_corpus:
        if not left_mult_nilpotent(A):
            continue
        hit += 1
        entries = cohomology_table(build_lsca_complex(A, natural_bimodule(A), 0))
        assert sum(e["dimH"] for e in entries if e["n"] == 0) >= 1
    assert hit == 16


# ---------------------------------------------------------------------------
# criterion 11: the full pipeline stays inside the envelope

def test_criterion_11_pipeline_envelope(lsa_corpus):
    """parse -> validate -> cohomology to n = 3 -> verify-theorem at
    n = 1, 2 on a three-dimensional algebra with a nonzero product, all
    exact, under 30 seconds."""
    A = next(a for a in lsa_corpus if a.products)
    spec = ProblemSpec("pipeline", A.space.group, A.eps, A,
                       natural_bimodule(A), "natural", {}, {},
                       {"max_n": 3, "strict": None, "force": False})
    text = json.dumps(spec_to_json(spec))

    t0 = time.perf_counter()
    parsed = parse_spec(text)
    sink = lambda: {"out": io.StringIO(), "err": io.StringIO()}
    assert run("validate", parsed, **sink()) == 0
    assert run("cohomology", parsed, max_n=3, **sink()) == 0
    assert run("verify-theorem", parsed, n=1, **sink()) == 0
    assert run("verify-theorem", parsed, n=2, **sink()) == 0
    assert time.perf_counter() - t0 < 30.0
