"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pk4lie"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree) -> set:
    """Every name the module reads, including those in quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _used_names(ast.parse(c.value, mode="eval"))
    return used


def _imported_names(tree) -> dict:
    """{bound name: line} of every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


# (module, function, parameter) -> why the parameter is never read
UNREAD_PARAMETERS = {
    ("notation.py", "<lambda>", "i"):
        "emit_endo's cell filter keeps every cell (i, j)",
    ("notation.py", "<lambda>", "j"):
        "emit_endo's cell filter keeps every cell (i, j)",
    ("structures.py", "metric_from", "domain"):
        "perfbench/explore.py passes it positionally",
}


def _unread_parameters(path):
    """(module, function, parameter) for each parameter a function or lambda
    never reads, `self` and `cls` aside."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for b in body for n in ast.walk(b)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for a in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg, args.kwarg]:
            if a is not None and a.arg not in ("self", "cls") and a.arg not in read:
                yield path.name, getattr(node, "name", "<lambda>"), a.arg


def test_every_parameter_is_read():
    unread = {u for path in SRC.glob("*.py") for u in _unread_parameters(path)}
    assert unread - UNREAD_PARAMETERS.keys() == set(), "parameters never read"
    assert UNREAD_PARAMETERS.keys() - unread == set(), "stale allowlist entries"


# "module.py:name" -> why nothing in src/ or perfbench/ refers to it
UNREFERENCED_DEFINITIONS = {
    "liealg.py:form_apply":
        "tests/oracles.py's dense loops call it; perfbench/tracer.py wraps "
        "it by its name, a string",
    "linalg.py:Mat4.scale":
        "the tests scale metrics and forms by a Scalar",
    "scalars.py:identity_test":
        "the tests' sampling oracle; perfbench/tracer.py wraps it by its "
        "name, a string",
    "linalg.py:signature_of":
        "the tests' oracle for a metric's signature; perfbench/tracer.py "
        "wraps it by its name, a string",
}


# The tests' sampling oracles and `signature_of`, which a sampled signature
# reads: each may call another, and no other function in src/ calls any of
# them, so no verdict rests on a sample.
SAMPLERS = ("identity_test", "sampled_values", "signature_of")


def _sampler_calls(path):
    """"module.py:line name" for each call of a sampler outside the
    samplers' own bodies."""
    tree = ast.parse(path.read_text(), str(path))
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name in SAMPLERS
              for n in ast.walk(f)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and id(n) not in inside:
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if name in SAMPLERS:
                yield f"{path.name}:{n.lineno} {name}"


def test_no_module_samples_a_verdict():
    found = {c for path in SRC.glob("*.py") for c in _sampler_calls(path)}
    assert found == set(), "a check samples"


def _definitions(path):
    """(qualified name, is a method) of each module-level function and class
    and of each function in a class body (methods and properties), dunders
    aside."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", True


def _references(paths) -> tuple:
    """(names read or imported, attribute names read) over the files."""
    names, attrs = set(), set()
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.update(a.name for a in n.names)
    return names, attrs


def test_every_definition_is_referenced():
    # A method or property counts as referenced when some attribute of that
    # name is read; a function or class when its name is read or imported.
    names, attrs = _references([*SRC.glob("*.py"),
                                *(SRC.parent.parent / "perfbench").glob("*.py")])
    unreferenced = set()
    for path in SRC.glob("*.py"):
        for qual, is_method in _definitions(path):
            short = qual.rsplit(".", 1)[-1]
            if short not in attrs and (is_method or short not in names):
                unreferenced.add(f"{path.name}:{qual}")
    assert unreferenced - UNREFERENCED_DEFINITIONS.keys() == set(), "defined, never used"
    assert UNREFERENCED_DEFINITIONS.keys() - unreferenced == set(), \
        "stale allowlist entries"


# "module.py:name" -> why the module imports another pk4lie module's
# underscore name
PRIVATE_IMPORTS = {
    "notation.py:_parse":
        "the one grammar, which notation.py runs with its own leaf builder",
    "notation.py:_scalar_leaf":
        "the Scalar leaf builder that notation.py's leaves fall back on",
    "curvature.py:_eliminate":
        "the one elimination; rank_on_domain is for 4 x 4 matrices only",
    "curvature.py:_P_ZERO":
        "the shared zero polynomial",
}


def _private_imports(path):
    """"module.py:name" for each underscore name the module imports from
    another pk4lie module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("pk4lie")):
            for a in node.names:
                if a.name.startswith("_"):
                    yield f"{path.name}:{a.name}"


def test_no_module_imports_a_private_name_of_another():
    found = {imp for path in SRC.glob("*.py") for imp in _private_imports(path)}
    assert found - PRIVATE_IMPORTS.keys() == set(), "private names imported"
    assert PRIVATE_IMPORTS.keys() - found == set(), "stale allowlist entries"


# "module.py" -> why the module reads an attribute named `trials`
TRIALS_READERS = {
    "cli.py": "argparse's args.trials, the --trials option",
}


def test_only_cli_reads_an_attribute_named_trials():
    # A verdict is its kind alone, so `trials` names nothing but the
    # --trials option that the CLI parses.
    found = {path.name for path in SRC.glob("*.py") if path.name != "scalars.py"
             for n in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(n, ast.Attribute) and n.attr == "trials"
             and isinstance(n.ctx, ast.Load)}
    assert found - TRIALS_READERS.keys() == set(), "trials read outside scalars.py"
    assert TRIALS_READERS.keys() - found == set(), "stale allowlist entries"


# "module.py" -> which bracket tables it parses into an algebra
ALGEBRA_PARSERS = {
    "catalog.py": "the data files' tables",
    "cli.py": "the inline table of `geometry --algebra`",
}


def test_only_the_catalog_and_inline_input_parse_an_algebra():
    # A suite takes its algebras from the catalog, which parses each table
    # once and checks its Jacobi identity; no suite keeps a copy of its own.
    found = {f"{path.name}:{n.lineno}" for path in SRC.glob("*.py")
             for n in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "parse"
             and getattr(n.func.value, "id", None) == "LieAlgebra4"}
    modules = {site.split(":")[0] for site in found}
    assert modules - ALGEBRA_PARSERS.keys() == set(), sorted(found)
    assert ALGEBRA_PARSERS.keys() - modules == set(), "stale allowlist entries"


# The certificates that `ParamDomain.known_nonzero` and `ParamDomain.sign`
# combine: a caller asks the domain, and never runs one on its own.
CERTIFICATES = ("_root_excluded", "_definite_sign", "nonvanishing_basis")


def _calls(path, names):
    """(line, name, has arguments) for each call of a function or method
    named in `names`."""
    for n in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if name in names:
                yield n.lineno, name, bool(n.args or n.keywords)


def test_a_domain_answers_from_its_own_constraints():
    outside = {f"{path.name}:{line} {name}" for path in SRC.glob("*.py")
               if path.name != "scalars.py"
               for line, name, _ in _calls(path, CERTIFICATES)}
    assert outside == set(), "a certificate run outside ParamDomain"
    # the search draws the domain's own parameters, so no caller names any
    with_args = {f"{path.name}:{line}" for path in SRC.glob("*.py")
                 for line, _, args in _calls(path, ("satisfiable",)) if args}
    assert with_args == set(), "satisfiable() given an argument"
