import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pk4lie import (
    catalog, cli, curvature, liealg, notation, phase_space, structures, verify,
)
from pk4lie.catalog import DATA_DIR, Catalog, load_catalog
from pk4lie.cli import _curvature_table, main
from pk4lie.scalars import ParamDomain
from pk4lie.verify import run_curvature_rows, run_scope


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "--trials", "4",
                           "verify", "symplectic")
    assert code == 0
    data = json.loads(out)
    assert data["scope"] == "symplectic"
    assert data["status"] == "PASS"
    assert len(data["entries"]) == 24
    assert json.loads(json.dumps(data)) == data


def test_verify_witnesses_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "witnesses")
    assert code == 0
    assert "witness/nonequivalence/residuals" in out
    assert "WARN" in out  # documented print discrepancies surface


def test_geometry_worked_example(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "geometry",
                           "curvature/d4_half/1")
    assert code == 0
    data = json.loads(out)
    assert data["Ric"] == [[ "(3*x)/2", "0", "0", "0"],
                           ["0", "(3*x)/2", "0", "0"],
                           ["0", "0", "(3*x)/2", "0"],
                           ["0", "0", "0", "(3*x)/2"]]
    assert data["scalar_curvature"] == "6*x"
    assert data["soliton"]["lambda"] == "(3*x)/2"
    assert data["soliton"]["X"] == ["0", "0", "0", "0"]
    assert data["flat"] is False


def test_geometry_at_assignment(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "geometry",
                           "curvature/d4_half/1", "--set", "x=0")
    assert code == 0
    data = json.loads(out)
    assert data["flat"] is True
    assert data["soliton"]["free_parameters"] == 1


def test_assignment_outside_the_domain_notes_the_rational_constraint(capsys):
    code, _, err = run_cli(capsys, "geometry", "curvature/d4_lam/3:a",
                           "--set", "lam=0")
    assert code == 0
    assert err.splitlines() == [
        "note: assignment leaves the stated domain (lam-1/2 >= 0)",
        "note: assignment leaves the stated domain (lam-1/2 > 0)"]


def test_geometry_inline_abelian(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "geometry",
                           "--algebra", "abelian", "--metric", "eps13+eps24")
    assert code == 0
    data = json.loads(out)
    assert data["flat"] is True and data["ricci_flat"] is True
    assert data["soliton"]["free_parameters"] == 4


def test_phase_command_golden_and_failure(capsys):
    code, out, _ = run_cli(capsys, "phase", "b2", "e3.e3=x*e4")
    assert code == 0
    assert "[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4" in out
    assert "PASS" in out

    code, out, _ = run_cli(capsys, "phase", "b2", "e3.e4=e4")
    assert code == 1
    assert "not Lie-extendible" in out

    code, out, _ = run_cli(capsys, "phase", "c1", "")
    assert code == 0
    assert "abelian" in out


def test_phase_parses_only_the_named_algebra(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, phase_space.parse_products)
    code, _, _ = run_cli(capsys, "phase", "b2", "e3.e3=x*e4")
    assert code == 0
    assert len(calls) == 2      # the base b2 and the dual
    code, _, err = run_cli(capsys, "phase", "nope", "")
    assert code == 2
    assert err == ("error: unknown left-symmetric algebra 'nope'; choices: "
                   "b1_alpha, b2, b3_alpha, b4, b5_minus, b5_plus, c1, c2, c3, "
                   "c4, c5_minus, c5_plus\n")


def test_phase_assembles_the_bracket_once(monkeypatch, capsys):
    # the printed table and the Jacobi verdict read one assembly
    calls = _count_calls(monkeypatch, phase_space.assembled_brackets)
    assert run_cli(capsys, "phase", "b2", "e3.e3=x*e4")[0] == 0
    assert run_cli(capsys, "phase", "b2", "e3.e4=e4")[0] == 1
    assert len(calls) == 2


# sha256 of the whole stdout of `verify all` as JSON at seed 0 and of
# `verify curvature` as text: every verdict, note, detail and table cell
VERIFY_REPORT_SHA256 = {
    ("--format", "json", "verify", "all"):
        "0f0b658d0348256a3ee60387e2b45656799116c21bf9e6fc3a4094f69a692efa",
    ("verify", "curvature"):
        "16dc8e354acd8c32f376b308824ff9e6991f8ce894fa8bf8c2555b02c419e514",
}


@pytest.mark.parametrize("argv", list(VERIFY_REPORT_SHA256))
def test_verify_reports_frozen(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_SHA256[argv]


# sha256 over the exit code and stdout of `phase` for every base/dual pair
# of the benchmark's explore space, in text and JSON at seed 0
PHASE_REPORTS_SHA256 = \
    "7348fb2e3aa2e500dec96b97e2a9318740c9e400144030cfd90b6a709db7fad9"


def test_phase_reports_frozen(capsys):
    root = Path(__file__).resolve().parent.parent
    space = json.loads((root / "perfbench" / "explore_space.json").read_text())
    digest, codes = hashlib.sha256(), []
    for base in space["phase_bases"]:
        for dual in space["phase_duals"]:
            for fmt in ("text", "json"):
                code, out, _ = run_cli(capsys, "--format", fmt, "phase", base, dual)
                codes.append(code)
                digest.update(f"{code}\n{out}".encode())
    assert (len(codes), codes.count(0), codes.count(1)) == (312, 68, 244)
    assert digest.hexdigest() == PHASE_REPORTS_SHA256


def test_dump_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "dump", "structures/d4_half/K1")
    assert code == 0
    assert out.rstrip() + "\n" in (DATA_DIR / "structures.txt").read_text()


def test_usage_error_exit_code(capsys):
    assert main(["verify", "not-a-scope"]) == 2
    for trials in ("0", "-1", "abc"):
        assert main(["--trials", trials, "verify", "symplectic"]) == 2, trials
    assert main(["geometry"]) == 2
    assert main(["phase", "nope", ""]) == 2
    # a literal division by zero is a parse error
    assert main(["phase", "b2", "e3.e3=1/0*e4"]) == 2
    assert main(["geometry", "--algebra", "[e1,e2]=e3/0",
                 "--metric", "eps14-eps23"]) == 2
    assert main(["geometry", "--algebra", "[e1,e2]=e3",
                 "--metric", "eps14-eps23", "--domain", "x/0 > 0"]) == 2
    # an inline domain that no point satisfies
    assert main(["geometry", "--algebra", "[e1,e2]=x*e3",
                 "--metric", "eps14-eps23", "--domain", "x>0, x<0"]) == 2
    # an equation is refused when the domain is parsed, whatever its height
    for dom in ("97*x == 7", "x == 1"):
        assert main(["geometry", "--algebra", "[e1,e2]=x*e3",
                     "--metric", "eps14-eps23", "--domain", dom]) == 2, dom
    # an atom of another kind is not read as a parameter
    assert main(["geometry", "--algebra", "[e1,e2]=e12*e3",
                 "--metric", "eps14-eps23"]) == 2
    assert main(["geometry", "--algebra", "[e1,e2]=e3",
                 "--metric", "eps14-eps23+E11*eps11"]) == 2
    capsys.readouterr()
    # malformed --set: a usage error, refused before any substitution
    for item in ("x=1/0", "x=abc", "x", "q=1"):
        code, out, err = run_cli(capsys, "geometry", "curvature/d4_1/8",
                                 "--set", item)
        assert code == 2, item
        assert out == "" and err.startswith("error: --set"), item
    # a repeated parameter is refused, not silently set to its last value
    code, out, err = run_cli(capsys, "geometry", "curvature/d4_half/1",
                             "--set", "x=1", "--set", "x=2")
    assert (code, out) == (2, "")
    assert err == "error: --set 'x=2': duplicate assignment for x\n"


@pytest.mark.parametrize("argv", [
    ["geometry", "--algebra", "[e1,e2]=\u00b2*e2", "--metric", "eps11+eps22+eps33+eps44"],
    ["phase", "b2", "e3.e3=\u00b9*e4"],
])
def test_a_superscript_digit_is_a_usage_error(capsys, argv):
    # str.isdigit() holds for superscripts, which int() refuses
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: unexpected character")


def test_a_decimal_digit_of_another_script_is_an_integer(capsys):
    code, out, _ = run_cli(capsys, "geometry", "--algebra", "[e1,e2]=\u0663*e2",
                           "--metric", "eps11+eps22+eps33+eps44")
    assert code == 0
    assert "algebra: [e1,e2]=3*e2\n" in out


def test_an_unknown_geometry_entry_is_named_without_quotes(capsys):
    assert run_cli(capsys, "geometry", "nope") == (
        2, "", "error: no curvature row or structure named 'nope'\n")


@pytest.mark.parametrize("argv", [
    ["curvature/d4_2/5:a", "--set", "x=0"],
    ["structures/r2p/K1", "--set", "x=0"],
    ["structures/r4_m1_beta/K3", "--set", "beta=0", "--set", "x=0"],
])
def test_geometry_assignment_hitting_a_denominator(capsys, argv):
    code, out, _ = run_cli(capsys, "--format", "json", "geometry", *argv)
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "assignment makes a denominator vanish"
    assert data["entry"] == argv[0]
    assert "x" in data["metric"]  # the metric is reported unsubstituted
    code, out, _ = run_cli(capsys, "geometry", *argv)
    assert code == 1
    assert out.splitlines()[-1] == "error:  assignment makes a denominator vanish"


def _count_calls(monkeypatch, orig):
    """Replace every binding of `orig` that a pk4lie module or class holds
    with a wrapper that records each call; return the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "pk4lie" or name.startswith("pk4lie."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
                elif isinstance(value, type) and value.__module__ == name:
                    for attr, member in list(vars(value).items()):
                        if member is orig:
                            monkeypatch.setattr(value, attr, counted)
    return calls


def test_curvature_suite_and_table_build_each_connection_once(monkeypatch):
    # Count Levi-Civita connections through every binding of the function,
    # as imported by each pk4lie module.
    calls = _count_calls(monkeypatch, structures.levi_civita)
    cat = load_catalog()
    run_curvature_rows(cat)
    _curvature_table(cat)
    # one per row, plus the slice of the one row whose rank splits
    # (curvature/d4_2/7); its generic branch reuses the row's connection
    assert len(cat.curvature_list()) == 115
    assert len(calls) == 116


def test_curvature_suite_and_table_lower_the_brackets_twice_per_geometry(monkeypatch):
    # Each of the 116 geometries lowers the brackets by its metric once for
    # the connection and once for the soliton system, which the solve, the
    # residual and the family check all read.
    calls = _count_calls(monkeypatch, liealg.lowered_brackets)
    cat = load_catalog()
    run_curvature_rows(cat)
    _curvature_table(cat)
    assert len(calls) <= 2 * 116


def test_curvature_suite_and_table_solve_each_soliton_system_once(monkeypatch):
    # One solve per geometry, plus the generic branch of curvature/d4_2/7,
    # whose row keeps the RankAmbiguous of its own solve for the table.
    calls = _count_calls(monkeypatch, curvature.solve_soliton)
    cat = load_catalog()
    run_curvature_rows(cat)
    _curvature_table(cat)
    assert len(calls) == 116 + 1


def test_scopes_are_the_verify_suites():
    # a literal in cli, so that parsing the arguments imports no suite
    assert cli.SCOPES == (*verify.SUITES, "all")


# the catalog sections that each scope reads, as README's table lists them
SECTIONS_READ = {
    "symplectic": {"symplectic", "algebras"},
    "structures": {"structures", "symplectic", "algebras"},
    "phase": {"phase_rows"},
    "iso": {"iso_rows", "phase_rows", "algebras"},
    "witnesses": {"iso_rows", "phase_rows", "algebras"},
    "curvature": {"curvature_rows", "algebras"},
    "all": {"algebras", "symplectic", "structures", "phase_rows", "iso_rows",
            "curvature_rows"},
}


@pytest.mark.parametrize("scope", cli.SCOPES)
def test_a_scope_asserts_each_section_it_builds_rows_of(monkeypatch, capsys, scope):
    # A checked catalog asserts a section on the first read of one of its
    # rows: a scope builds and asserts every row of the sections it reads,
    # and of no other.
    seen = {}

    def load(*args, _orig=catalog.load_catalog, **kwargs):
        seen["cat"] = _orig(*args, **kwargs)
        return seen["cat"]

    monkeypatch.setattr(catalog, "load_catalog", load)
    assert main(["verify", scope]) == 0
    capsys.readouterr()
    for name in SECTIONS_READ["all"]:
        rows = getattr(seen["cat"], name)
        asserted = rows._check is None and len(rows._rows) == len(rows)
        assert asserted == (name in SECTIONS_READ[scope]), name
        assert bool(rows._rows) == asserted, name


def test_verify_all_parses_each_bracket_table_once(monkeypatch):
    calls = _count_calls(monkeypatch, notation.parse_brackets)
    cat = load_catalog()
    run_scope(cat, "all")
    # 19 algebras, 45 phase rows and the witness suite's own algebra; every
    # other row takes its brackets from the built row it names
    assert len(calls) == 65


def test_no_verdict_of_verify_all_rests_on_sampling(monkeypatch, capsys):
    # Nothing samples: the report is the same for every seed, and the one
    # seeded sampling loop is never entered.
    calls = _count_calls(monkeypatch, ParamDomain.sampled_values)
    code, out0, _ = run_cli(capsys, "--format", "json", "verify", "all")
    assert code == 0
    code, out5, _ = run_cli(capsys, "--seed", "5", "--format", "json",
                            "verify", "all")
    assert code == 0
    assert json.loads(out5)["seed"] == 5
    assert out5.replace('"seed": 5,', '"seed": 0,', 1) == out0
    assert calls == []


def test_geometry_inline_brackets_failing_jacobi(capsys):
    argv = ["geometry", "--algebra", "[e1,e2]=e3; [e1,e3]=e1",
            "--metric", "eps14-eps23"]
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 1
    assert json.loads(out) == {"entry": "inline",
                               "algebra": "[e1,e2]=e3; [e1,e3]=e1",
                               "metric": "eps14-eps23",
                               "error": "brackets fail the Jacobi identity"}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines() == ["entry:  inline",
                                "algebra: [e1,e2]=e3; [e1,e3]=e1",
                                "metric:  eps14-eps23",
                                "error:  brackets fail the Jacobi identity"]


def test_geometry_and_dump_build_only_the_named_row(monkeypatch, capsys):
    built = []
    for name in ("_structure", "_curvature_row"):
        def counted(self, key, *args, _orig=getattr(Catalog, name)):
            built.append(key)
            return _orig(self, key, *args)
        monkeypatch.setattr(Catalog, name, counted)
    assert main(["geometry", "curvature/d4_half/1"]) == 0
    assert built == ["curvature/d4_half/1"]
    built.clear()
    assert main(["geometry", "structures/rr3_m1/K1:b"]) == 0
    assert built == ["structures/rr3_m1/K1:b"]
    built.clear()
    assert main(["dump", "curvature/d4_half/1"]) == 0
    assert built == []
    capsys.readouterr()


def test_the_benchmark_tracer_finds_every_name_it_hooks():
    # perfbench/tracer.py wraps pk4lie functions by name, some of which no
    # command calls (Scalar.__rsub__, __rtruediv__, identity_test, ...);
    # renaming or deleting one must fail here, not only in a benchmark run.
    root = Path(__file__).resolve().parent.parent
    r = subprocess.run(
        [sys.executable, "-c",
         "import pk4lie.cli, tracer; tracer.install(tracer.Tracer())"],
        cwd=root / "perfbench", env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# the pk4lie modules every command loads: the cli and what it imports itself
CORE = {"pk4lie", "pk4lie.cli", "pk4lie.liealg", "pk4lie.linalg",
        "pk4lie.notation", "pk4lie.scalars", "pk4lie.structures"}
CATALOG = {"pk4lie.catalog", "pk4lie.curvature"}


@pytest.mark.parametrize("argv, modules", [
    (["dump", "curvature/d4_half/1"], CORE | CATALOG),
    (["geometry", "curvature/d4_half/1"], CORE | CATALOG),
    (["phase", "b2", "e3.e3=x*e4"], CORE | {"pk4lie.phase_space"}),
    (["verify", "symplectic"], CORE | CATALOG | {
        "pk4lie.morphisms", "pk4lie.phase_space", "pk4lie.verify"}),
], ids=["dump", "geometry", "phase", "verify"])
def test_each_command_imports_only_what_it_runs(argv, modules):
    # a cold process: the modules loaded once the command has run
    code = ("import json, sys\n"
            "from pk4lie.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "sys.stderr.write(json.dumps(sorted(sys.modules)))\n")
    root = Path(__file__).resolve().parent.parent
    r = subprocess.run([sys.executable, "-c", code, *argv],
                       env=dict(os.environ, PYTHONPATH=str(root / "src")),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stderr))
    assert {m for m in loaded if m.split(".")[0] == "pk4lie"} == modules
    assert "dataclasses" not in loaded
