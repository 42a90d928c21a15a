"""Seeded inputs, task lists and correctness checks for the benchmark.

Three workloads, each a list of tasks (one table, one theorem check or one
CLI invocation):

* ``dual-ladder``: cohomology tables of k copies of the dual numbers
  (``fixtures/dual_numbers_super.json``) with the natural module.  Large,
  very sparse, purely rational blocks: the rank layer dominates.
* ``qext-theorem``: ``verify_main_theorem`` on quantum exterior algebras
  over Z3^r.  Many small, denser, cyclotomic blocks; both towers, phi,
  compose and the validators all run.
* ``fixture-sweep``: ``colorhom.cli.main`` over every fixture and command.
  Tiny problems, so parsing, validators, scans and per-call overhead
  dominate.

The seed only applies a monomial change of basis (a basis permutation and a
nonzero rational rescaling of each basis vector) to the generated algebras,
or shuffles the CLI invocations.  Values and orderings vary with it; block
shapes and every answer do not, so one set of goldens serves every seed.

The library is always reached through module attributes
(``mods["cohomology"].build_lsca_complex``), never through names imported
into this file, so the tracer's patches see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys
import warnings
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
GOLDENS = os.path.join(HERE, "goldens.json")

LAYERS = ("scalars", "grading", "glinalg", "algebra", "bimodule",
          "cohomology", "variety", "cli")
WORKLOADS = ("dual-ladder", "qext-theorem", "fixture-sweep")

# Tasks run in these orders, largest first: the time left at the end of a
# run then goes to another sample of the task that dominates the pass.
# (k copies, max_n); the k = 2 instance is also checked against the oracle
DUAL_LADDER = ((4, 2), (3, 2), (2, 4))
# (r generators, module, level n)
QEXT_CHECKS = ((3, "natural", 1), (3, "trivial", 2), (3, "trivial", 1),
               (2, "natural", 3), (2, "natural", 2), (2, "natural", 1))
CLI_COMMANDS = (("validate",), ("commutator",), ("cohomology",), ("h0",),
                ("verify-theorem", "--n", "1"), ("verify-theorem", "--n", "2"),
                ("scan",))

# rescaling factors of the change of basis, dealt out in this order and then
# shuffled: every seed uses the same multiset, so that Fraction sizes (and
# with them rank times) stay comparable from seed to seed
_SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3),
           Fraction(2, 3), Fraction(3, 2))


class SetupError(RuntimeError):
    """The checkout does not hold the program or the benchmark's data."""


def load_colorhom(fresh: bool = False) -> dict:
    """Import colorhom from the checkout's ``src`` and return its modules by
    layer name.  ``fresh`` drops cached modules first, so that import time
    is part of a timed set-up."""
    if not os.path.isfile(os.path.join(SRC, "colorhom", "__init__.py")):
        raise SetupError(f"no colorhom package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if fresh:
        for name in [m for m in sys.modules
                     if m == "colorhom" or m.startswith("colorhom.")]:
            del sys.modules[name]
    pkg = importlib.import_module("colorhom")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"colorhom was imported from {pkg.__file__}, not {SRC}")
    mods = {layer: importlib.import_module(f"colorhom.{layer}") for layer in LAYERS}
    mods["colorhom"] = pkg
    return mods


def load_goldens() -> dict:
    if not os.path.isfile(GOLDENS):
        raise SetupError(f"missing goldens file {GOLDENS}")
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# generators

def monomial_change(mods, A, rng):
    """A's structure constants in the basis f_i = s_i e_perm(i).

    The new algebra is isomorphic to A through a degree-preserving map, so
    every cohomology dimension per (level, degree) is unchanged."""
    glinalg, algebra, scalars = mods["glinalg"], mods["algebra"], mods["scalars"]
    n = A.dim
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [_SCALES[i % len(_SCALES)] * rng.choice((1, -1)) for i in range(n)]
    rng.shuffle(scale)
    new_of = {old: new for new, old in enumerate(perm)}
    space = glinalg.GradedSpace(A.space.group, [
        (A.space.names[old], A.space.degrees[old]) for old in perm])
    zero = scalars.CycScalar.zero()
    products = {}
    for (p, q), vec in A.products.items():
        i, j = new_of[p], new_of[q]
        out = [zero] * n
        for k, c in enumerate(vec):
            if not c.is_zero():
                l = new_of[k]
                out[l] = c * scalars.CycScalar.rational(scale[i] * scale[j] / scale[l])
        products[(i, j)] = out
    return algebra.ColorAlgebra(space, A.eps, products)


def direct_sum(mods, A, k):
    """k orthogonal copies of A: products between different copies vanish."""
    glinalg, algebra, scalars = mods["glinalg"], mods["algebra"], mods["scalars"]
    n = A.dim
    zero = scalars.CycScalar.zero()
    items = [(f"{nm}{c + 1}", d) for c in range(k)
             for nm, d in zip(A.space.names, A.space.degrees)]
    products = {}
    for c in range(k):
        for (i, j), vec in A.products.items():
            out = [zero] * (n * k)
            out[c * n:(c + 1) * n] = vec
            products[(c * n + i, c * n + j)] = out
    return algebra.ColorAlgebra(glinalg.GradedSpace(A.space.group, items),
                                A.eps, products)


def dual_numbers(mods):
    with open(os.path.join(FIXTURES, "dual_numbers_super.json"), encoding="utf-8") as fh:
        return mods["cli"].parse_spec(fh.read()).algebra


def quantum_exterior(mods, r):
    """Quantum exterior algebra on x_1..x_r over Z3^r.

    x_i has degree e_i, x_i^2 = 0 and x_j x_i = zeta_3 x_i x_j for i < j; the
    basis is the ordered monomials x_S, unit included.  The bicharacter is
    the form with root order 3 and M_ij = 1, M_ji = 2 for i < j.  The
    algebra is associative, hence left-symmetric."""
    grading, glinalg = mods["grading"], mods["glinalg"]
    algebra, scalars = mods["algebra"], mods["scalars"]
    group = grading.GradingGroup([3] * r)
    M = [[0 if i == j else (1 if i < j else 2) for j in range(r)] for i in range(r)]
    eps = grading.bichar_from_form(group, M, 3)
    monomials = sorted(
        (tuple(i for i in range(r) if mask >> i & 1) for mask in range(2 ** r)),
        key=lambda s: (len(s), s))
    index = {s: t for t, s in enumerate(monomials)}
    items = [("".join(f"x{i + 1}" for i in s) or "1",
              [1 if i in s else 0 for i in range(r)]) for s in monomials]
    space = glinalg.GradedSpace(group, items)
    zero = scalars.CycScalar.zero()
    products = {}
    for S in monomials:
        for T in monomials:
            if set(S) & set(T):
                continue
            swaps = sum(1 for j in S for i in T if i < j)
            vec = [zero] * len(monomials)
            vec[index[tuple(sorted(S + T))]] = scalars.root_of_unity(3, swaps)
            products[(index[S], index[T])] = vec
    return algebra.ColorAlgebra(space, eps, products)


# ---------------------------------------------------------------------------
# tasks

class Task:
    """One unit of timed work and the key of its golden output."""

    __slots__ = ("key", "fn")

    def __init__(self, key, fn):
        self.key = key
        self.fn = fn


class Workload:
    """Tasks of one workload, built for one seed; ``order(p)`` is the task
    order of pass p."""

    def __init__(self, name, mods, tasks, seed, shuffle=False, oracle=None):
        self.name = name
        self.mods = mods
        self.tasks = tasks
        self.seed = seed
        self.shuffle = shuffle
        self.oracle = oracle or []

    def order(self, pass_index):
        tasks = list(self.tasks)
        if self.shuffle:
            random.Random(f"{self.seed}:{pass_index}").shuffle(tasks)
        return tasks


def _table_task(mods, A, V, max_n):
    coh = mods["cohomology"]
    return lambda: coh.cohomology_table(coh.build_lsca_complex(A, V, max_n))


def _theorem_task(mods, A, V, n):
    coh = mods["cohomology"]
    return lambda: coh.verify_main_theorem(A, V, n)


def _cli_task(mods, argv):
    cli = mods["cli"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        # a fresh filter state per call, as in a fresh process
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return run


def cli_key(fixture, command):
    return " ".join((command[0], fixture) + tuple(command[1:]))


def build(name, mods, seed) -> Workload:
    """The tasks of workload ``name`` for ``seed``."""
    rng = random.Random(seed)
    bim = mods["bimodule"]
    if name == "dual-ladder":
        base = dual_numbers(mods)
        tasks, oracle = [], []
        for k, max_n in DUAL_LADDER:
            A = monomial_change(mods, direct_sum(mods, base, k), rng)
            V = bim.natural_bimodule(A)
            key = f"k{k}_max{max_n}"
            tasks.append(Task(key, _table_task(mods, A, V, max_n)))
            if A.dim <= 4:
                oracle.append(("table", key, A, V))
        return Workload(name, mods, tasks, seed, oracle=oracle)
    if name == "qext-theorem":
        tasks, oracle, built = [], [], {}
        for r, module, n in QEXT_CHECKS:
            if (r, module) not in built:
                A = monomial_change(mods, quantum_exterior(mods, r), rng)
                V = bim.natural_bimodule(A) if module == "natural" else bim.trivial_bimodule(A)
                built[(r, module)] = (A, V)
                if A.dim <= 4:
                    oracle.append(("theorem", (r, module), A, V))
            A, V = built[(r, module)]
            tasks.append(Task(f"r{r}_{module}_n{n}", _theorem_task(mods, A, V, n)))
        return Workload(name, mods, tasks, seed, oracle=oracle)
    if name == "fixture-sweep":
        tasks, oracle = [], []
        for fixture in sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json")):
            path = os.path.join(FIXTURES, fixture)
            for command in CLI_COMMANDS:
                argv = (command[0], path) + tuple(command[1:])
                tasks.append(Task(cli_key(fixture, command), _cli_task(mods, argv)))
            oracle.append(("cli", fixture, None, None))
        return Workload(name, mods, tasks, seed, shuffle=True, oracle=oracle)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# correctness

def as_json(output):
    """The JSON form of a task output, as stored in goldens.json."""
    return json.loads(json.dumps(output))


def output_ok(name, task, output, goldens) -> bool:
    want = goldens[name].get(task.key)
    if want is None or as_json(output) != want:
        return False
    if name == "qext-theorem":
        return bool(output["equal"] and output["intertwining_zero"])
    return True


def _parse_cli_table(stdout):
    """Rows of the `cohomology` command's aligned table as oracle entries."""
    entries = []
    for line in stdout.splitlines()[2:]:
        n, degree, c, z, b, h = line.split()
        entries.append({"n": int(n),
                        "degree": [int(x) for x in degree.strip("()").split(",")],
                        "dimC": int(c), "dimZ": int(z), "dimB": int(b), "dimH": int(h)})
    return entries


def oracle_checks(wl, goldens):
    """Cross-check the pinned answers of the smallest instances against
    ``naive_oracle_table``, which shares no cochain machinery with the main
    path.  Yields (label, ok) pairs."""
    coh = wl.mods["cohomology"]
    pinned = goldens[wl.name]
    for kind, key, A, V in wl.oracle:
        if kind == "table":
            want = [e for e in pinned[key] if e["n"] <= 3]
            yield f"oracle {key}", coh.naive_oracle_table(A, V, 3) == want
        elif kind == "theorem":
            r, module = key
            table = {(e["n"], tuple(e["degree"])): e["dimH"]
                     for e in coh.naive_oracle_table(A, V, 3)}
            ok = True
            for (rr, mm, n) in QEXT_CHECKS:
                if (rr, mm) != key or n + 1 > 3:
                    continue
                report = pinned[f"r{r}_{module}_n{n}"]
                for check in report["checks"]:
                    ok = ok and table.get((n + 1, tuple(check["degree"])), 0) == check["lhs"]
            yield f"oracle r{r}_{module}", ok
        else:
            result = _oracle_fixture(wl.mods, key, pinned)
            if result is not None:
                yield f"oracle {key}", result


def _oracle_fixture(mods, fixture, pinned):
    """Oracle agreement of a fixture's pinned `cohomology` table, or None
    when the oracle does not apply: schema errors, bracket algebras, dim > 4,
    or a non-biadditive bicharacter (where the straightened tower and the
    raw oracle provably differ at level 3)."""
    golden = pinned[cli_key(fixture, ("cohomology",))]
    if golden["exit"] != 0:
        return None
    with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as fh:
        spec = mods["cli"].parse_spec(fh.read())
    if spec.is_lie or spec.algebra.dim > 4 or spec.eps.warnings:
        return None
    max_n = spec.options["max_n"]
    if max_n > 3:
        return None
    table = mods["cohomology"].naive_oracle_table(spec.algebra, spec.module, max_n)
    return table == _parse_cli_table(golden["stdout"])
