"""colorhom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dual-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` it sets up several times (import, input generation,
golden loading), then makes a warm-up pass and repeats passes over the
workload's tasks for ``--seconds`` with tracing off, and reports the
end-to-end metrics.  Their times are scaled to a reference machine speed
that is probed between the timed pieces (see ``speed.py``).  With
``--trace 1`` it alternates untraced and traced passes, then makes one
counting pass, and reports the per-layer metrics and the tracing overhead.
Every task output is compared with ``goldens.json``; the smallest instances
are also compared with ``naive_oracle_table``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every output is
correct, 1 when one is not, 2 when the checkout cannot be set up (then no
result is printed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402

SETUP_REPEATS = 11
# the first pass fills the program's lazily built caches and the allocator's
# arenas; its task times run up to 1.7x the later ones
WARMUP_PASSES = 1
# seconds of task time between two speed probes within a pass
PROBE_EVERY_S = 0.25

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("task_p50_s", "s"),
              ("task_p90_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("scalars.mul_ops", "count"), ("scalars.addsub_ops", "count"),
    ("scalars.div_ops", "count"), ("scalars.cyclotomic_share", "ratio"),
    ("grading.eps_calls", "count"), ("grading.self_s", "s"),
    ("glinalg.rref_s", "s"), ("glinalg.rref_share", "ratio"),
    ("glinalg.rref_calls", "count"), ("glinalg.rref_entries", "count"),
    ("glinalg.rref_nnz", "count"), ("glinalg.rref_density", "ratio"),
    ("glinalg.rank_repeat_ratio", "ratio"),
    ("glinalg.basis_s", "s"), ("glinalg.basis_calls", "count"),
    ("glinalg.straighten_calls", "count"), ("glinalg.compose_s", "s"),
    ("glinalg.self_s", "s"),
    ("algebra.validate_left_symmetric_calls", "count"),
    ("algebra.validate_left_symmetric_s", "s"),
    ("algebra.validate_left_symmetric_per_verify", "ratio"),
    ("algebra.commutator_algebra_s", "s"), ("algebra.self_s", "s"),
    ("bimodule.validate_left_module_calls", "count"),
    ("bimodule.validate_left_module_s", "s"),
    ("bimodule.cochain_module_action_s", "s"), ("bimodule.self_s", "s"),
    ("cohomology.lsca_coboundary_s", "s"), ("cohomology.lie_coboundary_s", "s"),
    ("cohomology.phi_matrix_s", "s"),
    ("cohomology.differentials_built", "count"),
    ("cohomology.diff_useful_ratio", "ratio"),
    ("cohomology.verify_calls", "count"),
    ("cohomology.table_self_s", "s"), ("cohomology.verify_self_s", "s"),
    ("cohomology.self_s", "s"),
    ("variety.scan_s", "s"), ("variety.scan_points", "count"),
    ("variety.self_s", "s"),
    ("cli.parse_spec_s", "s"), ("cli.self_s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

_FAILED = object()


class Tally:
    """Attempted and failed tasks, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(label)


def set_up(name, seed):
    mods = workloads.load_colorhom(fresh=True)
    wl = workloads.build(name, mods, seed)
    return wl, workloads.load_goldens()


def run_pass(wl, goldens, index, tally, clock=None, fits=None):
    """One pass over the tasks; returns (pass seconds, {task key: seconds}).

    With a ``SpeedClock`` the core's speed is probed between tasks, outside
    the task times and inside the pass time.  A task for which ``fits(key)``
    is false is skipped.  Outputs are checked after the pass, outside the
    timed region."""
    outputs, times = [], {}
    start = perf_counter()
    for task in wl.order(index):
        if fits and not fits(task.key):
            continue
        if clock:
            clock.before()
        t0 = perf_counter()
        try:
            out = task.fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = _FAILED
        times[task.key] = perf_counter() - t0
        if clock:
            clock.after(times[task.key])
        outputs.append((task, out))
    if clock:
        clock.close()
    wall = perf_counter() - start
    for task, out in outputs:
        tally.check(f"{wl.name} {task.key}",
                    out is not _FAILED and workloads.output_ok(wl.name, task, out, goldens))
    return wall, times


def nearest_rank(values, q):
    """The q-th percentile as one of the values (nearest-rank method)."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q / 100 * len(ranked)) - 1)]


def measure(wl, goldens, seconds, tally):
    """A warm-up pass and one measured pass, then more passes until
    ``seconds`` (the warm-up included) are used up.

    Once a pass is measured, a task runs again only if, taking as long as
    it did last time, it ends within ``seconds``; the first pass that skips
    one is the last.  Returns each task's median time over the measured
    passes, at the reference speed; the number of measured passes; and the
    factor from raw to reference-speed times.  Latency percentiles are taken
    over the per-task medians: a workload has few distinct tasks, and a
    single sub-second sample on a shared core can be 20% off."""
    clock = SpeedClock(PROBE_EVERY_S)
    samples = {}
    deadline = perf_counter() + seconds

    def fits(key):
        return perf_counter() + samples[key][-1] <= deadline

    for index in itertools.count():
        _, times = run_pass(wl, goldens, index, tally, clock,
                            fits if index > WARMUP_PASSES else None)
        if index < WARMUP_PASSES:
            continue
        for key, t in times.items():
            samples.setdefault(key, []).append(t)
        if len(times) < len(wl.tasks):
            break
    factor = clock.factor()
    return ([statistics.median(ts) * factor for ts in samples.values()],
            max(map(len, samples.values())), factor)


def timed_set_up(name, seed):
    """Sets up ``SETUP_REPEATS`` times with a speed probe before each and
    after the last.  Returns the last set-up and the median set-up time at
    the reference speed."""
    clock = SpeedClock(every=0)
    times = []
    for _ in range(SETUP_REPEATS):
        clock.before()
        t0 = perf_counter()
        wl, goldens = set_up(name, seed)
        times.append(perf_counter() - t0)
    clock.close()
    return wl, goldens, statistics.median(times) * clock.factor()


def measure_traced(wl, goldens, seconds, tally):
    """Untraced and traced passes in turn, then one counting pass."""
    plain, traced, per_pass = [], [], []
    start = perf_counter()
    while True:
        wall, _ = run_pass(wl, goldens, len(plain), tally)
        plain.append(wall)
        tracer = tracing.SpanTracer(wl.mods)
        with tracer:
            tally.check("span tracer covers every binding",
                        not tracing.unpatched_bindings(tracer.originals))
            traced_wall, _ = run_pass(wl, goldens, len(traced), tally)
        traced.append(traced_wall)
        per_pass.append(span_metrics(tracer.spans, traced_wall))
        if perf_counter() - start + wall + traced_wall > seconds:
            break
    counter = tracing.Counter(wl.mods)
    with counter:
        tally.check("counter covers every binding",
                    not tracing.unpatched_bindings(counter.originals))
        run_pass(wl, goldens, 0, tally)
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics.update(count_metrics(counter))
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, len(plain)


def _ratio(num, den):
    return num / den if den else 0.0


def span_metrics(spans, wall):
    """Per-layer times and call counts of one traced pass."""
    rows = tracing.span_summary(spans)

    def get(name, field):
        return rows[name][field] if name in rows else 0

    basis = ("glinalg.exterior_basis", "glinalg.hom_space", "glinalg.tensor_space")
    layer_self = {}
    for name, row in rows.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    verify_calls = get("cohomology.verify_main_theorem", "calls")
    out = {
        "glinalg.rref_s": get("glinalg.rref", "self_s"),
        "glinalg.rref_share": _ratio(get("glinalg.rref", "self_s"), wall),
        "glinalg.basis_s": sum(get(n, "incl_s") for n in basis),
        "glinalg.basis_calls": sum(get(n, "calls") for n in basis),
        "glinalg.compose_s": get("glinalg.GradedMap.compose", "incl_s"),
        "algebra.validate_left_symmetric_calls":
            get("algebra.validate_left_symmetric", "calls"),
        "algebra.validate_left_symmetric_s":
            get("algebra.validate_left_symmetric", "incl_s"),
        "algebra.validate_left_symmetric_per_verify": _ratio(tracing.nested_calls(
            spans, "algebra.validate_left_symmetric",
            "cohomology.verify_main_theorem"), verify_calls),
        "algebra.commutator_algebra_s": get("algebra.commutator_algebra", "incl_s"),
        "bimodule.validate_left_module_calls":
            get("bimodule.validate_left_module", "calls"),
        "bimodule.validate_left_module_s": get("bimodule.validate_left_module", "incl_s"),
        "bimodule.cochain_module_action_s":
            get("bimodule.cochain_module_action", "incl_s"),
        "cohomology.lsca_coboundary_s": get("cohomology.lsca_coboundary", "incl_s"),
        "cohomology.lie_coboundary_s": get("cohomology.lie_coboundary", "incl_s"),
        "cohomology.phi_matrix_s": get("cohomology.phi_matrix", "incl_s"),
        "cohomology.verify_calls": verify_calls,
        "cohomology.table_self_s": get("cohomology.cohomology_table", "self_s"),
        "cohomology.verify_self_s": get("cohomology.verify_main_theorem", "self_s"),
        "variety.scan_s": get("variety.scan_family", "incl_s"),
        "cli.parse_spec_s": get("cli.parse_spec", "incl_s"),
        "trace.spans": len(spans),
    }
    for layer in ("grading", "glinalg", "algebra", "bimodule", "cohomology",
                  "variety", "cli"):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out


def count_metrics(counter):
    c = counter.counts
    ops = c["scalars.mul_ops"] + c["scalars.addsub_ops"] + c["scalars.div_ops"]
    return {
        "scalars.mul_ops": c["scalars.mul_ops"],
        "scalars.addsub_ops": c["scalars.addsub_ops"],
        "scalars.div_ops": c["scalars.div_ops"],
        "scalars.cyclotomic_share": _ratio(c["scalars.cyclotomic_ops"], ops),
        "grading.eps_calls": c["grading.eps_calls"],
        "glinalg.rref_calls": c["glinalg.rref_calls"],
        "glinalg.rref_entries": c["glinalg.rref_entries"],
        "glinalg.rref_nnz": c["glinalg.rref_nnz"],
        "glinalg.rref_density": _ratio(c["glinalg.rref_nnz"], c["glinalg.rref_entries"]),
        "glinalg.rank_repeat_ratio": _ratio(c["glinalg.rref_calls"],
                                            counter.distinct_blocks_ranked),
        "glinalg.straighten_calls": c["glinalg.straighten_calls"],
        "cohomology.differentials_built": c["cohomology.differentials_built"],
        "cohomology.diff_useful_ratio": _ratio(c["cohomology.differentials_read"],
                                               c["cohomology.differentials_built"]),
        "variety.scan_points": c["variety.scan_points"],
    }


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name, seed, seconds, trace, log=print):
    """One benchmark run; returns the result object of the last line."""
    tally = Tally()
    if trace:
        wl, goldens = set_up(name, seed)
        metrics, pairs = measure_traced(wl, goldens, seconds, tally)
        units = dict(PER_LAYER)
        log(f"{name} seed {seed}: {pairs} untraced/traced pass pairs + 1 counting pass")
    else:
        wl, goldens, setup_s = timed_set_up(name, seed)
        task_medians, passes, factor = measure(wl, goldens, seconds, tally)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(task_medians),
            "task_p50_s": statistics.median(task_medians),
            "task_p90_s": nearest_rank(task_medians, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)
        log(f"{name} seed {seed}: {WARMUP_PASSES} warm-up + {passes} measured passes "
            f"(the last one cut short) x {len(task_medians)} tasks, setup median of "
            f"{SETUP_REPEATS}; core speed {factor:.3f} of the reference, "
            f"raw wall_s {metrics['wall_s'] / factor:.4g} s")
    for label, ok in workloads.oracle_checks(wl, goldens):
        tally.check(label, ok)
    for key in units:
        log(f"  {key:44s} {metrics[key]:.6g} {units[key]}")
    log(f"  error_rate {_ratio(tally.failed, tally.attempted):.6g} "
        f"({tally.failed} failed of {tally.attempted} attempted)")
    for label in tally.failures:
        log(f"  FAILED: {label}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (workloads.SetupError, ImportError, OSError) as exc:
        print(f"cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
