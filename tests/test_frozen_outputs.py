"""Outputs frozen byte for byte: a sha256 per command in `frozen_outputs.json`.

Each digest covers a command's exit code, stdout and stderr, run in-process
through `pk4lie.cli.main`.  The commands are text and JSON `geometry` of
every id in the benchmark's explore space, JSON `geometry` of each
parametric id with every parameter set to 1/2 and to 2/3, `verify all` as
JSON at seeds 0 and 3, text `verify curvature` with its table, JSON
`verify witnesses`, text and JSON `phase` for every base/dual pair of the
explore space, the usage-error corpus, and `dump` of every entry and
variant key.  A mismatch names the first command that differs.  The
commands share one catalog per check mode, as `load_catalog` is memoized
while they run.

A digest changes only when a PR corrects a printed table on purpose; that PR
says so in CHANGES.md.  The file was written by

    PYTHONPATH=src python tests/test_frozen_outputs.py

which rewrites it from the current code.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path

from pk4lie import catalog
from pk4lie.catalog import load_catalog
from pk4lie.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGEST_FILE = Path(__file__).with_name("frozen_outputs.json")

# the usage errors of `test_usage_error_exit_code`, with their messages
USAGE_ERRORS = [
    ["verify", "not-a-scope"],
    ["--trials", "0", "verify", "symplectic"],
    ["--trials", "-1", "verify", "symplectic"],
    ["--trials", "abc", "verify", "symplectic"],
    ["geometry"],
    ["phase", "nope", ""],
    ["phase", "b2", "e3.e3=1/0*e4"],
    ["geometry", "--algebra", "[e1,e2]=e3/0", "--metric", "eps14-eps23"],
    ["geometry", "--algebra", "[e1,e2]=e3", "--metric", "eps14-eps23",
     "--domain", "x/0 > 0"],
    ["geometry", "--algebra", "[e1,e2]=x*e3", "--metric", "eps14-eps23",
     "--domain", "x>0, x<0"],
    ["geometry", "--algebra", "[e1,e2]=x*e3", "--metric", "eps14-eps23",
     "--domain", "97*x == 7"],
    ["geometry", "--algebra", "[e1,e2]=x*e3", "--metric", "eps14-eps23",
     "--domain", "x == 1"],
    ["geometry", "--algebra", "[e1,e2]=e12*e3", "--metric", "eps14-eps23"],
    ["geometry", "--algebra", "[e1,e2]=e3", "--metric", "eps14-eps23+E11*eps11"],
    *(["geometry", "curvature/d4_1/8", "--set", item]
      for item in ("x=1/0", "x=abc", "x", "q=1")),
    ["geometry", "curvature/d4_half/1", "--set", "x=1", "--set", "x=2"],
]


def commands() -> list:
    """[(label, argv)] of every CLI command the file freezes, in order."""
    space = json.loads((ROOT / "perfbench" / "explore_space.json").read_text())
    ids = sorted(space["geometry"])
    argvs = [["--format", fmt, "geometry", i] for i in ids for fmt in ("text", "json")]
    for value in ("1/2", "2/3"):
        for i in ids:
            argv = ["--format", "json", "geometry", i]
            for p in space["geometry"][i]:
                argv += ["--set", f"{p}={value}"]
            if space["geometry"][i]:
                argvs.append(argv)
    argvs += [["--format", "json", "--seed", "3", "--trials", "5", "verify", "all"],
              ["--format", "json", "verify", "all"], ["verify", "curvature"],
              ["--format", "json", "verify", "witnesses"]]
    argvs += [["--format", fmt, "phase", base, dual] for base in space["phase_bases"]
              for dual in space["phase_duals"] for fmt in ("text", "json")]
    cat = catalog.load_catalog(check=False)
    sections = (cat.algebras, cat.symplectic, cat.structures, cat.phase_rows,
                cat.iso_rows, cat.curvature_rows)
    keys = list(cat.raw_entries) + [k for rows in sections for k in rows if ":" in k]
    argvs += USAGE_ERRORS + [["dump", key] for key in keys]
    return [(" ".join(map(repr, argv)), argv) for argv in argvs]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outputs():
    """(label, sha256) of each frozen output, computed lazily in order."""
    for label, argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield label, _sha(json.dumps([code, out.getvalue(), err.getvalue()]))


def test_outputs_match_their_frozen_digests(monkeypatch):
    # the CLI looks `catalog.load_catalog` up when a command runs
    monkeypatch.setattr(catalog, "load_catalog", functools.cache(load_catalog))
    frozen = json.loads(DIGEST_FILE.read_text())
    seen = []
    for label, digest in outputs():
        assert label in frozen, f"no frozen digest for {label}"
        assert digest == frozen[label], f"first output that differs: {label}"
        seen.append(label)
    assert seen == list(frozen)


if __name__ == "__main__":
    catalog.load_catalog = functools.cache(load_catalog)
    DIGEST_FILE.write_text(json.dumps(dict(outputs()), indent=0) + "\n")
