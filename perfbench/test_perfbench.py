"""The benchmark's own checks.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

Takes about two minutes: it runs every workload once traced and the
generated workloads under two seeds.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that must be nonzero on the workload expected to move them
EXERCISED = {
    "dual-ladder": (
        "scalars.mul_ops", "scalars.addsub_ops", "scalars.div_ops",
        "glinalg.rref_s", "glinalg.rref_calls", "glinalg.rref_entries",
        "glinalg.rref_nnz", "glinalg.rref_density", "glinalg.rank_repeat_ratio",
        "glinalg.basis_s", "glinalg.basis_calls",
        "cohomology.lsca_coboundary_s", "cohomology.table_self_s"),
    "qext-theorem": (
        "scalars.mul_ops", "scalars.addsub_ops", "scalars.div_ops",
        "scalars.cyclotomic_share", "grading.eps_calls",
        "glinalg.compose_s", "glinalg.straighten_calls",
        "algebra.validate_left_symmetric_calls", "algebra.validate_left_symmetric_s",
        "algebra.commutator_algebra_s",
        "bimodule.validate_left_module_calls", "bimodule.validate_left_module_s",
        "bimodule.cochain_module_action_s",
        "cohomology.lsca_coboundary_s", "cohomology.lie_coboundary_s",
        "cohomology.phi_matrix_s", "cohomology.differentials_built",
        "cohomology.diff_useful_ratio", "cohomology.verify_self_s"),
    "fixture-sweep": (
        "grading.self_s", "algebra.validate_left_symmetric_s",
        "variety.scan_s", "variety.scan_points",
        "cli.parse_spec_s", "cli.self_s"),
}


@pytest.fixture(scope="module")
def traced():
    """One traced run of each workload: one traced pass, one counting pass."""
    return {name: run.run(name, seed=7, seconds=0, trace=1, log=lambda *a: None)
            for name in workloads.WORKLOADS}


def test_benchmark_json_lists_what_run_prints():
    path = os.path.join(workloads.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_layer_is_exercised_where_expected(traced, name):
    result = traced[name]
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {k for k, _ in run.PER_LAYER}
    zero = [k for k in EXERCISED[name] if not metrics[k] > 0]
    assert zero == []


def test_baseline_facts(traced):
    dual = {k: v["value"] for k, v in traced["dual-ladder"]["metrics"].items()}
    qext = {k: v["value"] for k, v in traced["qext-theorem"]["metrics"].items()}
    # rref is most of dual-ladder (about 90% at the commit that pinned it)
    assert dual["glinalg.rref_share"] > 0.75
    # each table ranks most blocks twice: for dim Z and again for dim B
    assert dual["glinalg.rank_repeat_ratio"] > 1
    assert qext["algebra.validate_left_symmetric_per_verify"] == 3
    assert qext["cohomology.diff_useful_ratio"] < 1


def test_tracers_rebind_every_name_and_restore_it():
    mods = workloads.load_colorhom()
    coh, glinalg = mods["cohomology"], mods["glinalg"]
    original = glinalg.exterior_basis
    for instrument in (tracing.SpanTracer(mods), tracing.Counter(mods)):
        with instrument:
            assert tracing.unpatched_bindings(instrument.originals) == []
        assert tracing.unpatched_bindings(instrument.originals) != []
    tracer = tracing.SpanTracer(mods)
    with tracer:
        # bound by name in cohomology and re-exported by the package
        assert coh.exterior_basis is glinalg.exterior_basis is not original
        assert mods["colorhom"].exterior_basis is glinalg.exterior_basis
    assert coh.exterior_basis is original


@pytest.mark.parametrize("name", ("dual-ladder", "qext-theorem"))
def test_seed_changes_inputs_but_not_answers(name):
    mods = workloads.load_colorhom()
    goldens = workloads.load_goldens()
    first, second = (workloads.build(name, mods, seed) for seed in (1, 2))
    inputs = [[(A.space.names, A.products) for _, _, A, _ in wl.oracle]
              for wl in (first, second)]
    assert repr(inputs[0]) != repr(inputs[1])
    for a, b in zip(first.tasks, second.tasks):
        out_a, out_b = workloads.as_json(a.fn()), workloads.as_json(b.fn())
        assert out_a == out_b == goldens[name][a.key]


def test_pinned_answers_agree_with_the_oracle():
    mods = workloads.load_colorhom()
    goldens = workloads.load_goldens()
    for name in workloads.WORKLOADS:
        checks = list(workloads.oracle_checks(workloads.build(name, mods, 3), goldens))
        assert checks and all(ok for _, ok in checks), (name, checks)


def test_speed_clock_probes_on_cadence_and_scales_by_the_median(monkeypatch):
    probes = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    clock = speed.SpeedClock(every=1.0)
    clock.before()
    clock.after(0.6)
    clock.before()  # 0.6 s of work since the last probe: none taken
    clock.after(0.6)
    clock.before()
    assert clock.probes == [0.02, 0.04]
    clock.close()
    assert clock.factor() == pytest.approx(speed.REFERENCE_PROBE_S / 0.02)
