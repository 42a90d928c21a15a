"""Every fixture's CLI output, pinned: each `fixture-sweep` call of the
benchmark (`perfbench/goldens.json`, read here and never written) is run in
process exactly as the benchmark runs it, and its exit code, stdout and
stderr must equal the pinned ones byte for byte."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

from colorhom import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["fixture-sweep"]


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_fixture_output_matches_the_golden(key):
    # a key is "command fixture args..."
    command, fixture, *args = key.split()
    argv = [command, str(ROOT / "fixtures" / fixture), *args]
    out, err = io.StringIO(), io.StringIO()
    # a fresh filter state per call, as in a fresh process
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert {"exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()} == GOLDENS[key]
