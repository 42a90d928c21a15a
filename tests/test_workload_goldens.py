"""The pinned answers of the benchmark's `dual-ladder` and `qext-theorem`
workloads: every task, built for two seeds by `perfbench/workloads.py`, must
give its output in `perfbench/goldens.json`, and every oracle check of the
workload must hold.  Both files are read here and never written; the
`fixture-sweep` answers are pinned by `tests/test_fixture_goldens.py`."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

NAMES = ("dual-ladder", "qext-theorem")
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_goldens()


@pytest.fixture(scope="module")
def built():
    mods = workloads.load_colorhom()
    return {(name, seed): workloads.build(name, mods, seed)
            for name in NAMES for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_every_task_gives_the_pinned_answer(built, goldens, name, seed):
    for task in built[name, seed].tasks:
        assert workloads.output_ok(name, task, task.fn(), goldens), task.key


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_every_oracle_check_holds(built, goldens, name, seed):
    checks = list(workloads.oracle_checks(built[name, seed], goldens))
    assert checks and all(ok for _, ok in checks), checks
