"""Seeded single-entry commands for the `explore` workload.

The command space is frozen in `explore_space.json`: every curvature row and
structure id with the parameters its algebra, metric and domain mention, the
left-symmetric base algebras of `pk4lie phase`, and dual-side products.  The
space belongs to the benchmark, so that a change to the program does not
change the inputs it is measured on.  It was written by

    PYTHONPATH=src python3 perfbench/explore.py

and that command rewrites it from the current catalog.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

SPACE_FILE = Path(__file__).with_name("explore_space.json")

# Per unit: symbolic geometry, geometry at a rational point, phase pairs.
MIX = (("geometry", 12), ("geometry_at", 9), ("phase", 4))
COMMANDS_PER_UNIT = sum(n for _, n in MIX)
# Small-height rationals n/d with |n| <= 3 and 1 <= d <= 3.  Zero and the
# other values are kept even where they hit a denominator root of a row:
# such a command counts as failed, not as skipped.
POINTS = sorted({Fraction(n, d) for n in range(-3, 4) for d in range(1, 4)})


def load_space() -> dict:
    return json.loads(SPACE_FILE.read_text())


def _systematic(rng: random.Random, items: list, n: int) -> list:
    """n items at even steps through `items` from a seeded offset.  Every
    stretch of the sorted list is drawn in each unit, so units differ less
    in cost than independent draws would make them."""
    step = len(items) / n
    offset = rng.random() * step
    return [items[int(offset + k * step)] for k in range(n)]


def commands(space: dict, seed: int, unit: int) -> list:
    """The `unit`-th block of COMMANDS_PER_UNIT commands for `seed`."""
    rng = random.Random(f"explore/{seed}/{unit}")
    ids = sorted(space["geometry"])
    with_params = [i for i in ids if space["geometry"][i]]
    pairs = [(b, d) for b in space["phase_bases"] for d in space["phase_duals"]]
    out = []
    for kind, n in MIX:
        if kind == "geometry":
            out += [["--format", "json", "geometry", i] for i in _systematic(rng, ids, n)]
        elif kind == "geometry_at":
            for entry in _systematic(rng, with_params, n):
                cmd = ["--format", "json", "geometry", entry]
                for p in space["geometry"][entry]:
                    cmd += ["--set", f"{p}={rng.choice(POINTS)}"]
                out.append(cmd)
        else:
            out += [["--format", "json", "phase", b, d]
                    for b, d in _systematic(rng, pairs, n)]
    rng.shuffle(out)
    return out


def _write_space() -> None:
    from pk4lie.catalog import load_catalog
    from pk4lie.phase_space import LSA_CATALOG_TEXT
    from pk4lie.structures import metric_from

    def names(L, h, domain):
        params = set(h.params()) | set(domain.params())
        for v in L.brackets.values():
            for s in v:
                params |= s.params()
        return sorted(p.name for p in params)

    cat = load_catalog(check=False)
    geometry = {}
    for row in cat.curvature_list():
        geometry[row.entry_id] = names(row.algebra, row.metric, row.domain)
    for st in cat.structure_list():
        h = metric_from(st.omega, st.K, st.domain)
        geometry[st.entry_id] = names(st.algebra, h, st.domain)
    # Each base's products moved onto the dual plane (e1 -> e3, e2 -> e4),
    # the trivial product, and the example from the README.
    duals = sorted({re.sub(r"e([12])", lambda m: f"e{int(m[1]) + 2}", text)
                    for text, _ in LSA_CATALOG_TEXT.values() if text != "trivial"}
                   | {"", "e3.e3=x*e4"})
    SPACE_FILE.write_text(json.dumps({
        "geometry": geometry,
        "phase_bases": sorted(LSA_CATALOG_TEXT),
        "phase_duals": duals,
    }, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_space()
