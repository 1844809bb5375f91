"""Tests of the benchmark itself:

    python3 -m pytest perfbench

The traced-run test takes about a minute: it runs `validate` twice.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import explore
import run

ROOT = Path(__file__).resolve().parent.parent


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"validate", "curvature", "explore"}


def test_wrappers_reach_every_binding(tmp_path):
    # cmd_geometry calls levi_civita, curvature and ricci through names it
    # imported itself; ricci calls curvature again through the curvature
    # module's binding.  A binding left unwrapped shows as a low count.
    c = run.spawn("trace", ["--format", "json", "geometry", "curvature/d4_half/1"],
                  tmp_path, child_env())
    assert c.rc == 0
    counts = c.trace["counts"]
    assert counts["catalog.load.calls"] == 1
    assert counts["structures.levi_civita.calls"] == 1
    assert counts["curvature.ricci.calls"] == 1
    assert counts["curvature.solve_soliton.calls"] == 1
    assert counts["curvature.curvature.calls"] == 2
    untraced = run.spawn("run", c.argv, tmp_path, child_env())
    assert untraced.stdout == c.stdout


GCD_BRANCHES = """
import json, pk4lie.cli, tracer
from pk4lie import scalars
from pk4lie.scalars import Poly
t = tracer.Tracer()
tracer.install(t)
x, y, one = Poly.var("x"), Poly.var("y"), Poly.const(1)
for a, b in [(Poly(), x), (one, x + y),                  # trivial
             (x * y, x * x + x), (x + y, x * y),         # monomial
             (x * x - one, x * x + x + x + one),         # univariate
             (x * y + one, x * y * x + x)]:              # multivariate
    scalars.poly_gcd(a, b)
print(json.dumps(t.counts))
"""


def test_gcd_branches_are_counted_as_taken():
    # The branch counts come from the helpers poly_gcd calls, so they follow
    # the program if its branches are reordered.
    r = subprocess.run([sys.executable, "-c", GCD_BRANCHES], cwd=ROOT / "perfbench",
                       env=child_env(), capture_output=True, text=True, check=True)
    counts = json.loads(r.stdout)
    assert {k: v for k, v in counts.items() if k.startswith("scalars.poly_gcd.calls.")} \
        == {"scalars.poly_gcd.calls." + k: v for k, v in
            {"trivial": 2, "monomial": 2, "univariate": 1, "multivariate": 1}.items()}
    assert counts["scalars.poly_gcd.calls"] == 5
    assert counts["scalars.sympy_gcd.calls"] == 1


def test_traced_counts_repeat():
    def counts():
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "validate",
                            "--seed", "5", "--seconds", "1", "--trace", "1"],
                           cwd=ROOT, capture_output=True, text=True, check=True)
        metrics = json.loads(r.stdout.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    first = counts()
    assert first["structures.validate_para_kahler.calls"] > 0
    assert first == counts()


def test_explore_commands_follow_the_seed():
    space = explore.load_space()
    a = explore.commands(space, 7, 0)
    assert a == explore.commands(space, 7, 0)
    assert a != explore.commands(space, 8, 0)
    assert a != explore.commands(space, 7, 1)
    assert len(a) == explore.COMMANDS_PER_UNIT
    assert all(cmd[:2] == ["--format", "json"] for cmd in a)


def fake(argv, rc, stdout):
    return run.Command(argv, rc, 0.1, 0.1, 1000, stdout, b"", 0.0, None)


def test_explore_check_counts_crashes_as_failed():
    geometry = ["--format", "json", "geometry"]
    cmds = [fake(geometry + ["a"], 0, b'{"entry": "a"}'),
            fake(geometry + ["b"], 1, b'{"error": "metric is degenerate"}'),
            fake(geometry + ["c"], 1, b""),      # traceback
            fake(geometry + ["d"], 2, b"")]      # usage error
    problems = []
    assert run.check_explore(cmds, problems) == (4, 2)
    assert problems == []
    assert [c.outcome for c in cmds] == ["answered", "answered", "failed", "failed"]


def test_output_checks_catch_a_changed_byte():
    argv, (rc, digest) = next(iter(run.DIGESTS["explore"].items()))
    problems = []
    run.check_explore([fake(shlex.split(argv), rc, b'{"changed": true}')], problems)
    assert problems
    problems = []                   # a recorded command that now crashes
    assert run.check_explore([fake(shlex.split(argv), 1, b"")], problems) == (1, 1)
    assert problems
    problems = []
    stdout = b"PASS curvature/x\n"
    run.check_verify("curvature", 0, [fake(["verify", "curvature"], 0, stdout)], problems)
    assert any("digest" in p for p in problems)
    assert any("tallies" in p for p in problems)
