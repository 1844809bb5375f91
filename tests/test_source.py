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
    ("catalog.py", "_algebra_row", "variant"):
        "row-builder protocol: build(key, raw, variant, fields)",
    ("catalog.py", "_algebra_row", "fields"):
        "row-builder protocol: build(key, raw, variant, fields)",
    ("catalog.py", "_iso_row", "variant"):
        "row-builder protocol: build(key, raw, variant, fields)",
    ("catalog.py", "_iso_row", "fields"):
        "row-builder protocol: build(key, raw, variant, fields)",
    ("verify.py", "<lambda>", "seed"):
        "SUITES protocol: the curvature and witness suites sample nothing",
    ("verify.py", "<lambda>", "trials"):
        "SUITES protocol: the curvature and witness suites sample nothing",
    ("notation.py", "<lambda>", "i"):
        "emit_endo's cell filter keeps every cell (i, j)",
    ("notation.py", "<lambda>", "j"):
        "emit_endo's cell filter keeps every cell (i, j)",
    ("linalg.py", "_first_nonzero", "domain"):
        "_eliminate's pick protocol: pick(rows, row_used, col, domain)",
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
