"""The pk4lie benchmark: three workloads against the CLI, one fresh process
per command, with every output checked.

    python3 perfbench/run.py --workload {validate,curvature,explore} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports pk4lie from ./src.  Load comes
from this one process, one command at a time (a closed loop with one client).

Workloads (why each was chosen):
  validate   the five para-Kahler verify scopes, JSON output, 265 entries.
             Lie algebra checks, transport and isomorphisms, signature and
             Pfaffian sampling, the sympy gcd path; one Levi-Civita
             connection per validation and no curvature, so it bypasses
             curvature and geometry-dedup changes.
  curvature  `verify curvature` with its text table, 115 rows.  Curvature,
             Ricci, the soliton solve and the rank case splits, with the same
             geometry recomputed several times per row.
  explore    seeded single-entry commands (explore.py): interactive use,
             where interpreter start, imports and the catalog load are most
             of a command's time, and geometry runs on constant or
             one-parameter scalars.

A run repeats its workload's unit (the five scopes; the curvature command; a
block of explore.COMMANDS_PER_UNIT commands) while another unit is expected to
end within --seconds, and always runs MIN_UNITS units, so a run may take
longer than --seconds, and a faster program gets more units in the same
time.  A traced run makes exactly MIN_UNITS units, so that its counts depend
on the seed alone.

--trace 0 prints the end-to-end metrics, each with its unit and sample count:
  setup_s       a fresh interpreter imports pk4lie.cli and finishes
                load_catalog() with its load assertions; median of
                SETUP_REPEATS probes after one unmeasured warm-up, half of
                them before the units and half after
  wall_s        spawn of a unit's first command to exit of its last; median
                over the run's units
  rss_p50_mb    the median ru_maxrss of the workload's commands
  query_p50_ms, query_p90_ms
                per-command latency, spawn to exit, over all commands
  peak_rss_mb   the largest ru_maxrss of the workload's commands
  fail_ratio    failed operations over attempted ones
Only the first three (END_TO_END) are in the result line.  On the machine
of BASELINE.md the speed switches between two levels about 1.5x apart for
seconds to minutes at a time, and CPU time follows wall time.  A sum over a
unit, or a median over units and probes, is the steadiest figure across
seeds; one scope command's latency is less steady (validate's percentiles
spread by 8-29%), and so is explore's p50, because most geometry commands
cost about the same and their median jumps with the share of them that ran
slow.  A command that imports sympy peaks at about 56 MiB and one that does
not at about 22 MiB, so an explore run's peak depends on whether its seed
drew such a command.  And fail_ratio is 0 on a correct program.
--trace 1 runs MIN_UNITS units with tracer.py's wrappers in each command and
prints the per-layer metrics in PER_LAYER, summed over those commands.

Outputs are checked against digests.json: the verdict tallies, the sha256 of
each verify command's stdout (the report's `seed` field is the only part that
depends on the seed, so it is set to 0 before hashing), and for explore the
exit code and stdout digest of every command recorded there, whatever the
command's outcome now.  digests.json["explore"] holds them for every
answered command of seeds 0-9, units 0-3, each run once when the benchmark
was written; on other seeds an explore command is checked for its exit code
and JSON alone.  A mismatch makes the run incorrect and the exit code 1.

The last line of stdout is the JSON result; the run record, with versions,
load averages, every command and its exit code, goes to out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shlex
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import explore

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = json.loads((BENCH / "digests.json").read_text())

# Set-up probes, half before the workload's units and half after them, so
# that their median spans the run and not one moment of the machine's speed.
SETUP_REPEATS = 6
# Units a run makes at least: explore's p90 needs 100 commands to have ten
# beyond it.
MIN_UNITS = {"validate": 1, "curvature": 1, "explore": 100 // explore.COMMANDS_PER_UNIT}
COMMAND_TIMEOUT_S = 150
VALIDATE_SCOPES = ("symplectic", "structures", "phase", "iso", "witnesses")
EXPECTED = {"validate": {"PASS": 262, "WARN": 3, "FAIL": 0},
            "curvature": {"PASS": 102, "WARN": 13, "FAIL": 0}}

END_TO_END = {"setup_s": "s", "wall_s": "s", "rss_p50_mb": "MiB"}
REPORTED = {**END_TO_END, "query_p50_ms": "ms", "query_p90_ms": "ms",
            "peak_rss_mb": "MiB", "fail_ratio": "1"}


def _calls_s(*layers):
    return [n for layer in layers for n in (layer + ".calls", layer + ".s")]


# Grouped by layer, in the order of the module stack: cli, catalog, notation,
# scalars, linalg, liealg, structures, curvature, morphisms, phase_space,
# verify.  `.calls` and other counters are counts, `.s` is self time.
PER_LAYER = (
    ["cli.startup.s", "cli.import.s", "cli.self.s", "cli.sympy_imported"]
    + _calls_s("catalog.load", "notation.parse", "notation.emit")
    + [f"scalars.{op}.{k}" for op in ("add", "mul")
       for k in ("calls", "zero_operand", "const_const")]
    + ["scalars.arith.s"]
    + [f"scalars.poly_gcd.calls.{p}"
       for p in ("trivial", "monomial", "univariate", "multivariate")]
    + ["scalars.poly_gcd.s"]
    + _calls_s("scalars.sympy_gcd", "scalars.domain_sample", "scalars.identity_test")
    + [f"scalars.identity_test.{k}" for k in ("zero_exact", "zero_sampled", "nonzero")]
    + _calls_s("linalg.matmul", "linalg.det", "linalg.inverse", "linalg.signature_of")
    + ["linalg.eval.calls", "linalg.eval.denominator_vanishes"]
    + _calls_s("linalg.solve_affine", "linalg.rank_on_domain")
    + ["linalg.rank_ambiguous"]
    + _calls_s("liealg.form_apply", "liealg.is_lie_algebra", "liealg.ce_d",
               "liealg.paracomplex_check", "liealg.pfaffian_nondegenerate",
               "structures.levi_civita", "structures.validate_para_kahler",
               "curvature.classify_row", "curvature.curvature", "curvature.ricci",
               "curvature.solve_soliton", "curvature.soliton_family_equal",
               "morphisms.transport", "morphisms.check_lie_isomorphism",
               "morphisms.invertible", "phase_space.is_lie_extendible",
               "phase_space.assembled_brackets")
    + [f"verify.suite.{s}.s" for s in VALIDATE_SCOPES + ("curvature",)]
    + ["verify.pass", "verify.warn", "verify.fail"])


@dataclass
class Command:
    """One finished child process."""

    argv: list
    rc: int
    seconds: float      # spawn to exit
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    spawned: float      # time.monotonic() just before the spawn
    trace: Optional[dict]
    outcome: str = ""   # "answered" or "failed", set by the workload check


def spawn(mode: str, argv, work: Path, env: dict) -> Command:
    """Run `child.py mode argv` in a fresh interpreter and wait for it to exit."""
    trace_file = work / "trace.json"
    child_args = [mode, *([str(trace_file)] if mode == "trace" else []), *argv]
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        p = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *child_args],
                             stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
        p.returncode = os.waitstatus_to_exitcode(status)
    tr = None
    if mode == "trace" and trace_file.exists():
        tr = json.loads(trace_file.read_text())
        trace_file.unlink()
    return Command(argv, p.returncode, ended - spawned,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   out_path.read_bytes(), err_path.read_bytes(), spawned, tr)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- workloads: units of commands, and the check of their outputs ------------

def unit_commands(workload: str, seed: int, unit: int, space: dict):
    if workload == "validate":
        return [["--seed", str(seed), "--format", "json", "verify", s]
                for s in VALIDATE_SCOPES]
    if workload == "curvature":
        return [["--seed", str(seed), "verify", "curvature"]]
    return explore.commands(space, seed, unit)


def check_verify(workload: str, seed: int, cmds, problems: list):
    """Tallies and digests of verify commands; returns (attempted, failed)."""
    tally = {"PASS": 0, "WARN": 0, "FAIL": 0}
    for c in cmds:
        scope = c.argv[-1]
        out = c.stdout
        if workload == "validate":
            out = out.replace(f'\n  "seed": {seed},\n'.encode(), b'\n  "seed": 0,\n', 1)
            try:
                for e in json.loads(c.stdout)["entries"]:
                    tally[e["status"]] += 1
            except (ValueError, KeyError, TypeError):
                problems.append(f"{scope}: stdout is not a verify report")
        else:
            for m in re.finditer(rb"^(PASS|WARN|FAIL) ", c.stdout, re.M):
                tally[m[1].decode()] += 1
        if sha256(out) != DIGESTS["verify"][scope]:
            problems.append(f"{scope}: stdout digest differs from digests.json")
        if c.rc != 0:
            problems.append(f"{scope}: exit code {c.rc}")
        c.outcome = "answered" if c.rc == 0 else "failed"
    expected = EXPECTED[workload]
    if tally != expected:
        problems.append(f"verdict tallies {tally}, expected {expected}")
    attempted = sum(expected.values())
    return attempted, attempted - tally["PASS"] - tally["WARN"]


def check_explore(cmds, problems: list):
    """A command is answered when it exits 0 or 1 with a JSON object on
    stdout (exit 1: degenerate metric, or a pair that is not Lie-extendible);
    a traceback, a usage error or a timeout is a failed operation."""
    failed = 0
    for c in cmds:
        try:
            parsed = json.loads(c.stdout)
        except ValueError:
            parsed = None
        if c.rc in (0, 1) and isinstance(parsed, dict):
            c.outcome = "answered"
        else:
            c.outcome = "failed"
            failed += 1
            if c.rc == 0:
                problems.append(f"{shlex.join(c.argv)}: exit 0 without a JSON object")
        # A recorded command is compared whatever its outcome: one that
        # crashes now is a mismatch, not just a failed operation.
        want = DIGESTS["explore"].get(shlex.join(c.argv))
        if want and want != [c.rc, sha256(c.stdout)]:
            problems.append(f"{shlex.join(c.argv)}: exit code or output differs "
                            "from digests.json")
    return len(cmds), failed


# -- metrics -----------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def per_layer(cmds) -> dict:
    counts, seconds = {}, {}
    startup = imports = sympy = 0.0
    for c in cmds:
        tr = c.trace or {"counts": {}, "seconds": {}, "started": c.spawned,
                         "import_s": 0.0, "sympy_imported": False}
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in tr["seconds"].items():
            seconds[k] = seconds.get(k, 0.0) + v
        startup += tr["started"] - c.spawned
        imports += tr["import_s"]
        sympy += tr["sympy_imported"]
    out = {}
    for name in PER_LAYER:
        if name == "cli.startup.s":
            out[name] = startup
        elif name == "cli.import.s":
            out[name] = imports
        elif name == "cli.self.s":
            out[name] = seconds.get("cli", 0.0)
        elif name == "cli.sympy_imported":
            out[name] = int(sympy)
        elif name.endswith(".s"):
            out[name] = seconds.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out


def layer_unit(name: str) -> str:
    return "s" if name.endswith(".s") else "count"


# -- the run record ----------------------------------------------------------

def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return ""


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True)
    return r.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "pk4lie").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("validate", "curvature", "explore"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM ends the run through spawn()'s cleanup, which kills the running
    # command and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pk4lie" / "cli.py").is_file():
        print(f"error: no pk4lie sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    space = explore.load_space()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"), "nproc": os.cpu_count(),
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "loadavg_before": loadavg(),
    }
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)

        def probe_setup(n: int) -> Optional[list]:
            """The times of n set-up probes, or None if one fails."""
            times = []
            for _ in range(n):
                c = spawn("setup", [], work, env)
                where = Path(c.stdout.decode().strip() or ".").resolve()
                if c.rc != 0 or SRC.resolve() not in where.parents:
                    print(f"error: setup probe failed (exit {c.rc}, imported from "
                          f"{where})\n{c.stderr.decode()}", file=sys.stderr)
                    return None
                times.append(c.seconds)
            return times

        # The warm-up writes the bytecode caches, which a user's later runs
        # do not pay for again.
        half = 0 if args.trace else SETUP_REPEATS // 2
        if probe_setup(1) is None or (setups := probe_setup(half)) is None:
            return 2
        cmds, unit_walls, unit_index = [], [], []
        started = time.monotonic()
        while True:
            unit = len(unit_walls)
            argvs = unit_commands(args.workload, args.seed, unit, space)
            t0 = time.monotonic()
            for a in argvs:
                cmds.append(spawn("trace" if args.trace else "run", a, work, env))
                unit_index.append(unit)
            unit_walls.append(time.monotonic() - t0)
            elapsed = time.monotonic() - started
            if len(unit_walls) >= MIN_UNITS[args.workload] and (
                    args.trace or elapsed + statistics.median(unit_walls) > args.seconds):
                break
        if (after := probe_setup(half)) is None:
            return 2
        setups += after
    record["loadavg_after"] = loadavg()

    problems = []
    if args.workload == "explore":
        attempted, failed = check_explore(cmds, problems)
    else:
        attempted, failed = 0, 0
        for u in range(len(unit_walls)):
            a, f = check_verify(args.workload, args.seed,
                                [c for c, i in zip(cmds, unit_index) if i == u], problems)
            attempted, failed = attempted + a, failed + f
    correct = not problems

    latencies = [c.seconds for c in cmds]
    ops = "commands" if args.workload == "explore" else "entry verdicts"
    report = {  # name: (value, sample count)
        "setup_s": (statistics.median(setups) if setups else None,
                    f"median of {len(setups)} probes"),
        "wall_s": (statistics.median(unit_walls), f"median of {len(unit_walls)} unit(s)"),
        "rss_p50_mb": (statistics.median(c.rss_kb for c in cmds) / 1024,
                       f"median of {len(cmds)} commands"),
        "query_p50_ms": (1000 * percentile(latencies, 50), f"n={len(latencies)}"),
        "query_p90_ms": (1000 * percentile(latencies, 90), f"n={len(latencies)}"),
        "peak_rss_mb": (max(c.rss_kb for c in cmds) / 1024, f"max of {len(cmds)} commands"),
        "fail_ratio": (failed / attempted, f"{failed} of {attempted} {ops}"),
    }
    if args.trace:
        layers = per_layer(cmds)
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        metrics = {n: {"value": report[n][0], "unit": u} for n, u in END_TO_END.items()}

    record.update({
        "correct": correct, "problems": problems, "attempted": attempted,
        "failed": failed, "setup_s": setups, "unit_wall_s": unit_walls,
        "report": {n: v for n, (v, _) in report.items()}, "metrics": metrics,
        "commands": [{"unit": i, "argv": c.argv, "exit": c.rc, "seconds": c.seconds,
                      "cpu_s": c.cpu_s, "rss_kb": c.rss_kb, "outcome": c.outcome,
                      "stdout_sha256": sha256(c.stdout),
                      **({"stderr_tail": c.stderr.decode(errors="replace")[-300:]}
                         if c.outcome == "failed" else {})}
                     for c, i in zip(cmds, unit_index)],
    })
    if args.trace:
        record["spans"] = [{"command": k, "spans": c.trace["spans"] if c.trace else []}
                           for k, c in enumerate(cmds)]
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(unit_walls)} unit(s), {len(cmds)} commands; "
          f"record {record_path.relative_to(ROOT)}")
    for n, (v, samples) in report.items():
        if v is not None:
            print(f"  {n:14s} {v:12.4f} {REPORTED[n]:4s} {samples}")
    if args.trace:
        print("  (times above are traced; the untraced wall_s subtracted from this "
              "one is the tracing overhead)")
        for n, v in layers.items():
            print(f"  {n:42s} {v:.6g} {layer_unit(n)}")
    for p in problems:
        print(f"  output check failed: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
