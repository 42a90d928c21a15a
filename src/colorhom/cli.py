"""Command-line front end: problem files in, validated reports out.

A problem file is a single JSON object declaring a grading group, a
bicharacter, an algebra, and optionally a module, named parameter
families, a scan grid, and options.  ``parse_spec`` resolves the file
against the declared group and collects every schema problem it finds,
each located by a JSON path, instead of stopping at the first.  The file
is read once: product entries and module action entries go through one
entry walker, and the algebra and module are built from the entries it
has checked, with duplicate entries for one pair adding up.

Commands (``run``, the one dispatcher): validate | commutator | cohomology
| verify-theorem | scan | h0.  Reports go to stdout; diagnostics and the
warnings a build raised (``warning: ...``) go to stderr; cohomology, h0
and verify-theorem also write a JSON report when given a path.  Exit
codes: 0 all checks pass, 1 a check failed (identity violations, unequal
theorem dimensions, failing grid points), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .algebra import (
    AlgebraError,
    ColorAlgebra,
    LieColorAlgebra,
    commutator_algebra,
    validate_left_symmetric,
    validate_lie_color,
)
from .bimodule import (
    Bimodule,
    BimoduleError,
    natural_bimodule,
    trivial_bimodule,
    validate_bimodule,
)
from .cohomology import (
    CohomologyError,
    build_lsca_complex,
    cohomology_table,
    verify_main_theorem,
)
from .glinalg import GradedSpace, _entries
from .grading import (
    BicharacterError,
    GradingError,
    _is_int,
    bichar_from_json,
    group_from_json,
)
from .scalars import ConductorError, CycScalar, parse_scalar, scalar_to_json
from .variety import VarietyError, family_from_json, parse_grid, scan_csv, scan_family

_ZERO = CycScalar.zero()

COMMANDS = ("validate", "commutator", "cohomology", "verify-theorem", "scan", "h0")

_TOP_KEYS = {"name", "group", "bicharacter", "algebra", "module",
             "family", "families", "grid", "options"}
_ALGEBRA_KEYS = {"lie", "basis", "products"}
_MODULE_KEYS = {"basis", "left", "right"}
_OPTION_KEYS = {"max_n", "strict", "force"}
_GROUP_KEYS = {"orders"}
# the keys each bicharacter mode reads; no mode reads as "form"
_BICHAR_KEYS = {"trivial": {"mode"}, "form": {"mode", "matrix", "root_order"},
                "table": {"mode", "degrees", "values", "strict"}}
_FAMILY_KEYS = {"free": {"left", "right", "result", "parameter"},
                "fixed": {"left", "right", "result", "value"}}


class SpecError(ValueError):
    """One schema problem, located by a JSON path like $.algebra.products[2]."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class SpecErrorList(ValueError):
    """Everything wrong with one problem file, in document order."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


class ProblemSpec:
    """A parsed problem file with every reference resolved.

    ``module`` is the resolved coefficient bimodule (None only when the
    algebra is a bracket algebra); ``module_decl`` keeps the declared form
    ("natural", "trivial", or the explicit object) for reporting and
    round-tripping.  ``families`` maps names to FamilySpec instances.
    """

    def __init__(self, name, group, eps, algebra, module, module_decl,
                 families, grid, options):
        self.name = name
        self.group = group
        self.eps = eps
        self.algebra = algebra
        self.module = module
        self.module_decl = module_decl
        self.families = families
        self.grid = grid
        self.options = options

    @property
    def is_lie(self) -> bool:
        return isinstance(self.algebra, LieColorAlgebra)


# ---------------------------------------------------------------------------
# parsing

def parse_spec(text: str) -> ProblemSpec:
    """Parse and fully resolve a problem file.

    Raises SpecErrorList carrying every located schema error if anything
    is malformed: unknown keys, wrong degree arity, unresolved basis
    labels, malformed scalars, grading violations.
    """
    errors: list[SpecError] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecErrorList([SpecError("$", f"not valid JSON: {exc}")])
    if not isinstance(raw, dict):
        raise SpecErrorList([SpecError("$", "problem file must be a JSON object")])

    _unknown_keys(raw, _TOP_KEYS, "$", errors)

    name = raw.get("name", "A")
    if not isinstance(name, str) or not name:
        errors.append(SpecError("$.name", "must be a non-empty string"))
        name = "A"

    options = _parse_options(raw.get("options"), errors)

    group = None
    if isinstance(raw.get("group"), dict):
        _unknown_keys(raw["group"], _GROUP_KEYS, "$.group", errors)
    try:
        group = group_from_json(raw.get("group"))
    except (GradingError, TypeError) as exc:
        errors.append(SpecError("$.group", str(exc)))

    eps = None
    if group is not None:
        bobj = raw.get("bicharacter")
        mode = bobj.get("mode", "form") if isinstance(bobj, dict) else None
        # an unknown or non-string mode is refused by bichar_from_json
        if isinstance(mode, str) and mode in _BICHAR_KEYS:
            _unknown_keys(bobj, _BICHAR_KEYS[mode], "$.bicharacter", errors)
        if mode == "table" and options["strict"] is not None:
            bobj = dict(bobj, strict=options["strict"])
        try:
            eps = bichar_from_json(group, bobj)
            # one evaluation refuses an unsupported root order here, located
            eps(group.zero, group.zero)
        except (BicharacterError, GradingError, ValueError, TypeError,
                ZeroDivisionError) as exc:
            errors.append(SpecError("$.bicharacter", str(exc)))
            eps = None

    algebra = None
    if "algebra" not in raw:
        errors.append(SpecError("$.algebra", "missing"))
    elif group is not None and eps is not None:
        algebra = _parse_algebra(group, eps, raw["algebra"], errors)

    module = None
    module_decl = raw.get("module", "natural")
    if algebra is not None:
        if isinstance(algebra, LieColorAlgebra):
            if "module" in raw:
                errors.append(SpecError(
                    "$.module",
                    "coefficient modules attach to left-symmetric algebras; "
                    "remove the key for a bracket algebra"))
        else:
            module = _parse_module(algebra, module_decl, errors)

    families = {}
    # a grid key is checked only against families that all parsed; an
    # unknown key in a family does not stop it from parsing
    all_parsed = algebra is not None
    if "family" in raw and "families" in raw:
        errors.append(SpecError("$.family", "give either family or families, not both"))
        all_parsed = False
    elif algebra is not None:
        decls = {"family": raw["family"]} if "family" in raw else raw.get("families", {})
        if not isinstance(decls, dict):
            errors.append(SpecError("$.families", "must be an object of named families"))
            decls, all_parsed = {}, False
        for fname, fobj in decls.items():
            path = "$.family" if "family" in raw else f"$.families.{fname}"
            _family_keys(fobj, path, errors)
            try:
                families[fname] = family_from_json(algebra.space, algebra.eps, fobj)
            except (VarietyError, ValueError) as exc:
                errors.append(SpecError(path, str(exc)))
                all_parsed = False

    grid = {}
    if "grid" in raw:
        try:
            grid = parse_grid(raw["grid"])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            errors.append(SpecError("$.grid", str(exc)))
        if all_parsed:
            params = {p for fam in families.values() for p in fam.parameters}
            for key in sorted(set(grid) - params):
                errors.append(SpecError(
                    "$.grid", f"{key!r} is not a parameter of a declared family"))

    if errors:
        raise SpecErrorList(errors)
    return ProblemSpec(name, group, eps, algebra, module, module_decl,
                       families, grid, options)


def _unknown_keys(obj, known, path, errors, message="unknown key"):
    """One error per key of the object ``obj`` outside ``known``, sorted."""
    for key in sorted(set(obj) - known):
        errors.append(SpecError(f"{path}.{key}", message))


def _family_keys(obj, path, errors):
    """Unknown keys of a family and of its free and fixed entries."""
    if not isinstance(obj, dict):
        return
    _unknown_keys(obj, set(_FAMILY_KEYS), path, errors)
    for side, known in _FAMILY_KEYS.items():
        entries = obj.get(side)
        for i, entry in enumerate(entries if isinstance(entries, list) else []):
            if isinstance(entry, dict):
                _unknown_keys(entry, known, f"{path}.{side}[{i}]", errors)


def _parse_options(obj, errors):
    options = {"max_n": 3, "strict": None, "force": False}
    if obj is None:
        return options
    if not isinstance(obj, dict):
        errors.append(SpecError("$.options", "must be an object"))
        return options
    _unknown_keys(obj, _OPTION_KEYS, "$.options", errors, "unknown option")
    if "max_n" in obj:
        if _is_int(obj["max_n"]) and 0 <= obj["max_n"] <= 6:
            options["max_n"] = obj["max_n"]
        else:
            errors.append(SpecError("$.options.max_n", "must be an integer in 0..6"))
    for key in ("strict", "force"):
        if key in obj:
            if isinstance(obj[key], bool):
                options[key] = obj[key]
            else:
                errors.append(SpecError(f"$.options.{key}", "must be a boolean"))
    return options


def _check_degree(group, value, path, errors) -> bool:
    if not isinstance(value, list) or not all(_is_int(c) for c in value):
        errors.append(SpecError(path, "degree must be a list of integers"))
        return False
    if len(value) != group.rank:
        errors.append(SpecError(
            path, f"degree has {len(value)} components, the group has rank "
                  f"{group.rank}"))
        return False
    return True


def _walk_basis(eps, obj, path, errors):
    """Validate a basis declaration list; returns name -> reduced degree."""
    group = eps.group
    table = {}
    if not isinstance(obj, list) or not obj:
        errors.append(SpecError(path, "must be a non-empty list"))
        return table
    for i, entry in enumerate(obj):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict) or "name" not in entry or "degree" not in entry:
            errors.append(SpecError(here, "needs name and degree"))
            continue
        nm = entry["name"]
        if not isinstance(nm, str) or not nm:
            errors.append(SpecError(f"{here}.name", "must be a non-empty string"))
            continue
        if nm in table:
            errors.append(SpecError(f"{here}.name", f"duplicate basis label {nm!r}"))
            continue
        if not _check_degree(group, entry["degree"], f"{here}.degree", errors):
            continue
        deg = group.degree(entry["degree"])
        try:
            eps(deg, deg)
        except BicharacterError as exc:
            errors.append(SpecError(f"{here}.degree", str(exc)))
            continue
        table[nm] = deg
    return table


def _known(label, labels) -> bool:
    return isinstance(label, str) and label in labels


def _walk_terms(terms, labels, path, errors):
    """Validate a result combination [{"basis","coeff"}]; returns the
    (label, scalar) terms that passed, zero coefficients included."""
    checked = []
    if not isinstance(terms, list):
        errors.append(SpecError(path, "result must be a list of terms"))
        return checked
    for j, term in enumerate(terms):
        here = f"{path}[{j}]"
        if not isinstance(term, dict) or "basis" not in term or "coeff" not in term:
            errors.append(SpecError(here, "needs basis and coeff"))
            continue
        if not _known(term["basis"], labels):
            errors.append(SpecError(
                f"{here}.basis", f"unresolved basis label {term['basis']!r}"))
            continue
        try:
            c = parse_scalar(term["coeff"])
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            errors.append(SpecError(f"{here}.coeff", f"malformed scalar: {exc}"))
            continue
        checked.append((term["basis"], c))
    return checked


def _walk_entries(entries, path, sides, labels, errors):
    """Validate a keyed entry list such as [{"left", "right", "result"}]:
    ``sides`` maps each key to the labels it may name, ``labels`` are the
    labels the result may name.  Yields (path, entry, terms) for each entry
    whose sides all resolve, once the entry's errors are recorded."""
    if not isinstance(entries, list):
        errors.append(SpecError(path, "must be a list"))
        return
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict) or not {*sides, "result"} <= set(entry):
            errors.append(SpecError(here, f"needs {', '.join(sides)}, result"))
            continue
        unresolved = [side for side, known in sides.items()
                      if not _known(entry[side], known)]
        for side in unresolved:
            errors.append(SpecError(
                f"{here}.{side}", f"unresolved basis label {entry[side]!r}"))
        terms = _walk_terms(entry["result"], labels, f"{here}.result", errors)
        if not unresolved:
            yield here, entry, terms


def _parse_algebra(group, eps, obj, errors):
    if not isinstance(obj, dict):
        errors.append(SpecError("$.algebra", "must be an object"))
        return None
    _unknown_keys(obj, _ALGEBRA_KEYS, "$.algebra", errors)
    before = len(errors)
    lie = obj.get("lie", False)
    if not isinstance(lie, bool):
        errors.append(SpecError("$.algebra.lie", "must be a boolean"))
        lie = False
    degrees = _walk_basis(eps, obj.get("basis"), "$.algebra.basis", errors)
    if not degrees:
        return None
    index = {nm: k for k, nm in enumerate(degrees)}

    checked = []
    for here, entry, terms in _walk_entries(
            obj.get("products", []), "$.algebra.products",
            {"left": degrees, "right": degrees}, degrees, errors):
        target = degrees[entry["left"]] + degrees[entry["right"]]
        for nm, c in terms:
            if not c.is_zero() and degrees[nm] is not target:
                errors.append(SpecError(
                    here,
                    f"result {nm!r} has degree {degrees[nm]} but "
                    f"{entry['left']}*{entry['right']} forces {target}"))
        checked.append(((index[entry["left"]], index[entry["right"]]), terms))
    if len(errors) > before:
        return None
    # entries for one pair add up, in document order; a sum past the
    # conductor bound is reported only once every entry has checked out
    rows = {}
    try:
        for key, terms in checked:
            row = rows.setdefault(key, [_ZERO] * len(index))
            for nm, c in terms:
                row[index[nm]] = row[index[nm]] + c
    except ConductorError as exc:
        errors.append(SpecError("$.algebra", str(exc)))
        return None
    cls = LieColorAlgebra if lie else ColorAlgebra
    return cls(GradedSpace(group, list(degrees.items())), eps, rows)


def _parse_module(A, decl, errors):
    if decl in ("natural", None):
        return natural_bimodule(A)
    if decl == "trivial":
        return trivial_bimodule(A)
    if not isinstance(decl, dict):
        errors.append(SpecError(
            "$.module", 'must be "natural", "trivial", or an explicit object'))
        return None
    _unknown_keys(decl, _MODULE_KEYS, "$.module", errors)
    before = len(errors)
    degrees = _walk_basis(A.eps, decl.get("basis"), "$.module.basis", errors)
    if not degrees:
        return None
    aindex = {nm: i for i, nm in enumerate(A.space.names)}
    vindex = {nm: t for t, nm in enumerate(degrees)}
    checked = [(side, entry, terms)
               for side in ("left", "right")
               for _, entry, terms in _walk_entries(
                   decl.get(side, []), f"$.module.{side}",
                   {"x": aindex, "v": vindex}, vindex, errors)]
    if len(errors) > before:
        return None
    # entries for one pair add up as for the algebra; Bimodule checks the grading
    actions = {"left": {}, "right": {}}
    try:
        for side, entry, terms in checked:
            x, v = aindex[entry["x"]], vindex[entry["v"]]
            row = actions[side].setdefault((x, v) if side == "left" else (v, x), {})
            for nm, c in terms:
                row[vindex[nm]] = row.get(vindex[nm], _ZERO) + c
        return Bimodule(A, GradedSpace(A.space.group, list(degrees.items())),
                        actions["left"], actions["right"])
    except (BimoduleError, ConductorError) as exc:
        errors.append(SpecError("$.module", str(exc)))
        return None


# ---------------------------------------------------------------------------
# emission (round-trip support)

def spec_to_json(spec: ProblemSpec) -> dict:
    """Serialize a parsed spec; parse_spec(json.dumps(...)) returns an
    identical spec (same emission, same resolved objects)."""
    out = {
        "name": spec.name,
        "group": {"orders": list(spec.group.orders)},
        "bicharacter": _bichar_json(spec.eps),
        "algebra": _algebra_json(spec.algebra),
    }
    if spec.is_lie:
        pass
    elif isinstance(spec.module_decl, str) or spec.module_decl is None:
        out["module"] = spec.module_decl or "natural"
    else:
        out["module"] = _module_json(spec.algebra, spec.module)
    if spec.families:
        out["families"] = {nm: _family_json(fam)
                           for nm, fam in sorted(spec.families.items())}
    if spec.grid:
        out["grid"] = {nm: [_scalar_json(v) for v in vals]
                       for nm, vals in sorted(spec.grid.items())}
    options = {"max_n": spec.options["max_n"], "force": spec.options["force"]}
    if spec.options["strict"] is not None:
        options["strict"] = spec.options["strict"]
    out["options"] = options
    return out


def _scalar_json(v):
    return scalar_to_json(v if isinstance(v, CycScalar) else CycScalar.rational(v))


def _bichar_json(eps):
    if eps.mode == "form":
        return {"mode": "form", "matrix": [list(row) for row in eps.matrix],
                "root_order": eps.root_m}
    return {"mode": "table",
            "degrees": [list(d.components) for d in eps.degrees],
            "values": [[scalar_to_json(v) for v in row] for row in eps.values],
            "strict": eps.strict}


def _combo_json(space, vec):
    """The nonzero terms of a stored vector -- a dense algebra row or a
    sparse action row -- in ascending basis order."""
    return [{"basis": space.names[k], "coeff": scalar_to_json(c)}
            for k, c in sorted(_entries(vec), key=lambda kc: kc[0])]


def _basis_json(space):
    return [{"name": nm, "degree": list(d.components)}
            for nm, d in zip(space.names, space.degrees)]


def _algebra_json(A):
    space = A.space
    out = {
        "basis": _basis_json(space),
        "products": [
            {"left": space.names[i], "right": space.names[j],
             "result": _combo_json(space, vec)}
            for (i, j), vec in sorted(A.products.items())
        ],
    }
    if isinstance(A, LieColorAlgebra):
        out["lie"] = True
    return out


def _module_json(A, V: Bimodule):
    aspace, vspace = A.space, V.space
    return {
        "basis": _basis_json(vspace),
        "left": [
            {"x": aspace.names[i], "v": vspace.names[w],
             "result": _combo_json(vspace, vec)}
            for (i, w), vec in sorted(V.left.items())
        ],
        "right": [
            {"v": vspace.names[w], "x": aspace.names[i],
             "result": _combo_json(vspace, vec)}
            for (w, i), vec in sorted(V.right.items())
        ],
    }


def _family_json(fam):
    space = fam.space

    def slot_json(slot):
        i, j, k = slot
        return {"left": space.names[i], "right": space.names[j],
                "result": space.names[k]}

    return {
        "free": [dict(slot_json(slot), parameter=nm) for slot, nm in fam.free],
        "fixed": [dict(slot_json(slot), value=_scalar_json(v))
                  for slot, v in sorted(fam.fixed.items())],
    }


# ---------------------------------------------------------------------------
# report formatting

def _fmt_degree(deg) -> str:
    return "(" + ",".join(str(c) for c in deg) + ")"


def _fmt_residual(res: dict) -> str:
    return ", ".join(f"{nm} -> {c!r}" for nm, c in res.items())


def _violation_lines(bad, tagged):
    """One line per violation; a tagged check names its law first in each
    key, as in ("bm1", x, y, w)."""
    lines = []
    for key, res in bad:
        if tagged:
            head = f"{key[0]} ({', '.join(str(p) for p in key[1:])})"
        else:
            head = f"({', '.join(str(p) for p in key)})"
        lines.append(f"  {head}: {_fmt_residual(res)}")
    return lines


def _fmt_vector(space, vec) -> str:
    terms = []
    for k, c in _entries(vec):
        if c == CycScalar.one():
            terms.append(space.names[k])
        elif c == -CycScalar.one():
            terms.append(f"-{space.names[k]}")
        else:
            terms.append(f"{c!r}*{space.names[k]}")
    return " + ".join(terms) if terms else "0"


def _aligned(header, rows) -> list:
    table = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def _recorded(build, err):
    """Run ``build()`` and print a warning line for each warning it raised.
    A build that raises prints none of them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build()
    for w in caught:
        print(f"warning: {w.message}", file=err)
    return result


def _write_report(json_path, spec, vlabel, err, entries=(), checks=()) -> bool:
    """Write the --json report when a path is given; False if it cannot be
    written."""
    if json_path is None:
        return True
    report = {"algebra": spec.name, "module": vlabel,
              "entries": entries, "theorem_checks": checks}
    try:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write {json_path}: {exc}", file=err)
        return False
    return True


# ---------------------------------------------------------------------------
# commands

def run(command: str, spec: ProblemSpec, max_n=None, module=None, n=None,
        family=None, json_path=None, out=None, err=None) -> int:
    """Execute one command against a parsed spec; returns the exit code.

    A conductor the scalar arithmetic refuses mid-command (the lcm of two
    coefficients' conductors, say) ends the command with exit code 2.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if command not in COMMANDS:
        print(f"unknown command {command!r}", file=err)
        return 2
    if json_path is not None and command not in ("cohomology", "h0", "verify-theorem"):
        print("--json applies to cohomology, h0, and verify-theorem", file=err)
        return 2
    try:
        if command == "validate":
            return _cmd_validate(spec, out)
        if command == "commutator":
            return _cmd_commutator(spec, out, err)
        if command == "scan":
            return _cmd_scan(spec, family, out, err)
        # the remaining commands run the cochain machinery over a bimodule
        if spec.is_lie:
            print(f"{command} expects a left-symmetric algebra; this problem "
                  f"file declares a bracket algebra", file=err)
            return 2
        if module in (None, "spec"):
            V = spec.module
            vlabel = ("explicit" if isinstance(spec.module_decl, dict)
                      else (spec.module_decl or "natural"))
        elif module in ("natural", "trivial"):
            build = natural_bimodule if module == "natural" else trivial_bimodule
            V, vlabel = build(spec.algebra), module
        else:
            print(f"unknown module {module!r}: use natural, trivial, or spec",
                  file=err)
            return 2
        if command == "cohomology":
            depth = spec.options["max_n"] if max_n is None else max_n
            return _cmd_cohomology(spec, V, vlabel, depth, json_path, out, err)
        if command == "h0":
            return _cmd_h0(spec, V, vlabel, json_path, out, err)
        return _cmd_verify(spec, V, vlabel, 1 if n is None else n,
                           json_path, out, err)
    except ConductorError as exc:
        print(f"{command} refused: {exc}", file=err)
        return 2


def _cmd_validate(spec, out) -> int:
    checks = []
    if spec.is_lie:
        checks.append(("bracket axioms (skew + jacobi)",
                       validate_lie_color(spec.algebra),
                       spec.algebra.dim ** 2 + spec.algebra.dim ** 3, True))
    else:
        checks.append(("left-symmetric identity",
                       validate_left_symmetric(spec.algebra),
                       spec.algebra.dim ** 3, False))
        if isinstance(spec.module_decl, dict):
            checks.append(("bimodule axioms (bm1 + bm2)",
                           validate_bimodule(spec.algebra, spec.module), None, True))
    failed = False
    for label, bad, total, tagged in checks:
        if bad:
            failed = True
            counted = f"{len(bad)}" + (f" of {total}" if total else "")
            print(f"{label}: FAIL ({counted} checks)", file=out)
            for line in _violation_lines(bad, tagged):
                print(line, file=out)
        else:
            print(f"{label}: PASS", file=out)
    return 1 if failed else 0


def _cmd_commutator(spec, out, err) -> int:
    if spec.is_lie:
        print("commutator expects a left-symmetric algebra; this problem "
              "file already declares a bracket algebra", file=err)
        return 2
    try:
        L = commutator_algebra(spec.algebra, force=spec.options["force"])
    except AlgebraError as exc:
        print(f"commutator refused: {exc}", file=out)
        return 1
    space = L.space
    printed = False
    for i in range(L.dim):
        for j in range(i, L.dim):
            vec = L.products.get((i, j))
            if vec is not None:
                printed = True
                print(f"[{space.names[i]}, {space.names[j]}] = "
                      f"{_fmt_vector(space, vec)}", file=out)
    if not printed:
        print("all brackets vanish", file=out)
    return 0


def _cmd_cohomology(spec, V, vlabel, max_n, json_path, out, err) -> int:
    if not 0 <= max_n <= 6:
        print("--max-n must be in 0..6", file=err)
        return 2
    entries = _recorded(lambda: cohomology_table(
        build_lsca_complex(spec.algebra, V, max_n)), err)
    rows = [[e["n"], _fmt_degree(e["degree"]), e["dimC"], e["dimZ"],
             e["dimB"], e["dimH"]] for e in entries]
    for line in _aligned(["n", "degree", "dimC", "dimZ", "dimB", "dimH"], rows):
        print(line, file=out)
    return 0 if _write_report(json_path, spec, vlabel, err, entries) else 2


def _cmd_h0(spec, V, vlabel, json_path, out, err) -> int:
    entries = [e for e in _recorded(lambda: cohomology_table(
        build_lsca_complex(spec.algebra, V, 0)), err) if e["n"] == 0]
    hits = [e for e in entries if e["dimH"] > 0]
    if hits:
        for e in hits:
            print(f"dim H0 = {e['dimH']} at degree {_fmt_degree(e['degree'])}",
                  file=out)
    else:
        print("dim H0 = 0", file=out)
    return 0 if _write_report(json_path, spec, vlabel, err, entries) else 2


def _cmd_verify(spec, V, vlabel, n, json_path, out, err) -> int:
    if n < 1:
        print("--n must be at least 1", file=err)
        return 2
    try:
        report = _recorded(lambda: verify_main_theorem(
            spec.algebra, V, n, force=spec.options["force"]), err)
    except CohomologyError as exc:
        print(f"theorem check at n={n}: REFUSED ({exc})", file=out)
        return 1
    rows = [[_fmt_degree(c["degree"]), c["lhs"], c["rhs"],
             "yes" if c["equal"] else "NO",
             "yes" if c["intertwining_zero"] else "NO"]
            for c in report["checks"]]
    for line in _aligned(["degree", "dim H^{n+1}(A,V)", "dim H^n([A],C1)",
                          "equal", "intertwining"], rows):
        print(line, file=out)
    ok = report["equal"] and report["intertwining_zero"]
    print(f"theorem check at n={n}: {'PASS' if ok else 'FAIL'}", file=out)
    if not _write_report(json_path, spec, vlabel, err, checks=report["checks"]):
        return 2
    return 0 if ok else 1


def _cmd_scan(spec, family, out, err) -> int:
    if not spec.families:
        print("the problem file declares no parameter family", file=err)
        return 2
    if family is None:
        if len(spec.families) > 1:
            print(f"--family required: choose one of "
                  f"{', '.join(sorted(spec.families))}", file=err)
            return 2
        family = next(iter(spec.families))
    fam = spec.families.get(family)
    if fam is None:
        print(f"unknown family {family!r}: the file declares "
              f"{', '.join(sorted(spec.families))}", file=err)
        return 2
    try:
        results = scan_family(fam, grid=spec.grid or None)
    except VarietyError as exc:
        print(str(exc), file=err)
        return 2
    print(scan_csv(results), file=out)
    return 0 if all(r["passes"] for r in results) else 1


# ---------------------------------------------------------------------------
# entry point

_PARSER = argparse.ArgumentParser(
    prog="colorhom",
    description="Exact cohomology of left-symmetric color algebras: "
                "validate structure constants, build cochain complexes, "
                "scan parameter families.")
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("spec", help="path to a problem JSON file")
_PARSER.add_argument("--max-n", dest="max_n", type=int, default=None,
                     help="highest cochain level for the cohomology table")
_PARSER.add_argument("--module", choices=["natural", "trivial", "spec"],
                     default=None,
                     help="coefficient module (default: the file's declaration)")
_PARSER.add_argument("--n", type=int, default=None,
                     help="level for verify-theorem (compares H^{n+1} with H^n)")
_PARSER.add_argument("--family", default=None,
                     help="family name for scan (default: the only one declared)")
_PARSER.add_argument("--json", dest="json_path", default=None,
                     help="also write the machine-readable report to this path")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = parse_spec(text)
    except SpecErrorList as exc:
        for e in exc.errors:
            print(f"schema error at {e.path}: {e.message}", file=sys.stderr)
        return 2
    return run(args.command, spec, max_n=args.max_n, module=args.module,
               n=args.n, family=args.family, json_path=args.json_path)


if __name__ == "__main__":
    sys.exit(main())
