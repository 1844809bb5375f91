import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pk4lie import (
    catalog, cli, curvature, liealg, notation, phase_space, structures, verify,
)
from pk4lie.catalog import DATA_DIR, Catalog, load_catalog
from pk4lie.cli import _curvature_table, main
from pk4lie.scalars import Param, ParamDomain, parse_scalar
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


TWO_PARAMETER_GEOMETRY = [
    "geometry", "--algebra", "[e1,e2]=x*e3+e4; [e1,e3]=y*e4; [e2,e3]=e4",
    "--metric", "x*eps11+2*x*y*eps12+(y/3+1)*eps22+x*x*eps13+eps33+eps44+(1-x)*eps24"]
# three times the 1.6-1.7 s this command took in-process on a 2-CPU VM
TWO_PARAMETER_BOUND_S = 5.0


def _at(value, point):
    """A geometry report's tensors with every entry evaluated at `point`."""
    if isinstance(value, str):
        return parse_scalar(value).eval(point)
    if isinstance(value, dict):
        return {k: _at(v, point) for k, v in value.items()}
    return [_at(v, point) for v in value]


def test_two_parameter_geometry_finishes_and_specializes(capsys):
    # A metric and an algebra in x and y: det h has degree 6, and the
    # rational-function chain through the inverse of h did not finish in
    # 90 s.  Evaluated at a point, every tensor is the one that the
    # metric at that point gives.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "--format", "json", *TWO_PARAMETER_GEOMETRY)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < TWO_PARAMETER_BOUND_S
    data = json.loads(out)
    assert not data["flat"] and not data["ricci_flat"]
    for x, y in (("2", "3"), ("-1", "1/2")):
        code, out, _ = run_cli(capsys, "--format", "json", *TWO_PARAMETER_GEOMETRY,
                               "--set", f"x={x}", "--set", f"y={y}")
        assert code == 0
        at = json.loads(out)
        point = {Param("x"): Fraction(x), Param("y"): Fraction(y)}
        for key in ("nabla", "curvature", "ric", "Ric", "scalar_curvature"):
            assert _at(data[key], point) == _at(at[key], point), (key, x, y)


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


@pytest.mark.parametrize("variant", ["a", "b"])
def test_r4_a_ma_1_is_flat_at_alpha_minus_one_half(capsys, variant):
    # The gcd of R's numerators is alpha*(2*alpha+1), and alpha = -1/2 lies
    # in -1 < alpha < 0: the slice is flat, with no note, while the row's
    # printed "flat: No" still passes, checked only as R != 0.
    entry = f"curvature/r4_a_ma/1:{variant}"
    code, out, err = run_cli(capsys, "--format", "json", "geometry", entry,
                             "--set", "alpha=-1/2")
    assert (code, err) == (0, "")
    assert json.loads(out)["flat"] is True
    [rep] = [r for r in run_curvature_rows(load_catalog()) if r.entry_id == entry]
    assert rep.status == "PASS"
    assert {"name": "flat", "ok": True, "detail": "computed False, printed False"} \
        in rep.checks


@pytest.mark.parametrize("domain, code, err", [
    ("x > 0, x < 0", 2, "error: inline: domain unsatisfiable\n"),
    # a domain in a parameter that neither the algebra nor the metric reads
    ("z > 0", 0, ""),
])
def test_an_inline_domain_is_searched_in_its_own_parameters(capsys, domain, code, err):
    got = run_cli(capsys, "geometry", "--algebra", "[e1,e2]=x*e3",
                  "--metric", "eps14-eps23", "--domain", domain)
    assert (got[0], got[2]) == (code, err)


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


@pytest.fixture
def default_int_digit_limit():
    """The interpreter's default limit on int-string conversion while the
    test runs (`main` lifts it for its process), restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


def test_integers_beyond_the_conversion_limit(capsys, default_int_digit_limit):
    # a 5,000-digit coefficient is read, and a 4,800-digit product printed
    nines = "9" * 5000
    code, out, err = run_cli(capsys, "--format", "json", "geometry", "--algebra",
                             f"[e1,e2]={nines}*e3", "--metric", "eps14-eps23")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["algebra"] == f"[e1,e2]={nines}*e3"
    assert len(data["nabla"]["e2"][2][0].lstrip("-")) == 5000
    product = "*".join(["9999"] * 1200)
    code, out, err = run_cli(capsys, "--format", "json", "phase", "b2",
                             f"e3.e3={product}*e4")
    assert (code, err) == (0, "")
    dual = json.loads(out)["dual"]
    assert dual.startswith("e3.e3=") and dual.endswith("*e4")
    assert len(dual[len("e3.e3="):-len("*e4")]) == 4800


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
    # a variant key that no section lists names no entry
    for key in ("alg/r4_0:a", "structures/h4/K1:", "structures/h4/K1:c",
                "curvature/d4_half/1:zz", "structures/d4_half/K1:a"):
        assert run_cli(capsys, "dump", key) == (2, "", f"error: unknown entry {key!r}\n")


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


@pytest.mark.parametrize("scope, algebras", [("curvature", 24), ("all", 102)])
def test_a_scope_checks_jacobi_once_per_algebra(monkeypatch, scope, algebras):
    # An algebra keeps its Jacobi verdict: the checked catalog and the
    # suites ask each algebra they read, and only the first ask computes.
    # The recorded calls keep their algebras alive, so ids are not reused.
    calls = _count_calls(monkeypatch, liealg.LieAlgebra4.jacobi_defect)
    run_scope(load_catalog(), scope)
    assert len({id(args[0]) for args in calls}) == len(calls) == algebras


@pytest.mark.parametrize("base, dual, code", [
    ("b2", "e3.e3=x*e4", 0), ("c1", "", 0), ("b2", "e3.e4=e4", 1)])
def test_phase_checks_jacobi_once(monkeypatch, capsys, base, dual, code):
    # the Lie-extendible verdict, its residuals and the validation of the
    # normal form read one evaluation of the assembled algebra's defects
    calls = _count_calls(monkeypatch, liealg.LieAlgebra4.jacobi_defect)
    assert run_cli(capsys, "phase", base, dual)[0] == code
    assert len(calls) == 1


def test_verify_all_parses_each_bracket_table_once(monkeypatch):
    calls = _count_calls(monkeypatch, notation.parse_brackets)
    cat = load_catalog()
    run_scope(cat, "all")
    # 19 algebras and 45 phase rows; every other row takes its brackets from
    # the built row it names
    assert len(calls) == 64


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


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # `pk4lie --format json verify all | head -1`: the report is larger than
    # the pipe holds, so a write meets the closed pipe
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "pk4lie.cli", "--format", "json", "verify", "all"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


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
    assert main(["dump", "structures/rr3_m1/K1:b"]) == 0
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
CATALOG, CURVATURE = {"pk4lie.catalog"}, {"pk4lie.curvature"}
VERIFY = CATALOG | {"pk4lie.verify"}


@pytest.mark.parametrize("argv, modules", [
    (["dump", "curvature/d4_half/1"], CORE | CATALOG),
    (["geometry", "curvature/d4_half/1"], CORE | CATALOG | CURVATURE),
    (["phase", "b2", "e3.e3=x*e4"], CORE | {"pk4lie.phase_space"}),
    (["verify", "symplectic"], CORE | VERIFY),
    (["verify", "curvature"], CORE | VERIFY | CURVATURE),
    (["verify", "phase"], CORE | VERIFY | {"pk4lie.phase_space"}),
    (["verify", "iso"], CORE | VERIFY | {"pk4lie.morphisms", "pk4lie.phase_space"}),
], ids=["dump", "geometry", "phase", "verify", "verify-curvature", "verify-phase",
        "verify-iso"])
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


def test_output_does_not_depend_on_which_parameter_came_first(capsys):
    # p and q are not in scalars.LISTED_NAMES: they rank by name, whichever
    # the process registered first
    metric = "eps14-eps23+(p-q)*eps11+p*q*eps22"
    algebras = ["[e1,e2]=p*e3+q*e4; [e1,e3]=e4", "[e1,e2]=q*e4+p*e3; [e1,e3]=e4"]
    root = Path(__file__).resolve().parent.parent
    cold = [subprocess.run(
        [sys.executable, "-m", "pk4lie.cli", "geometry", "--algebra", alg,
         "--metric", metric], env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, check=True).stdout for alg in algebras]
    Param("q"), Param("p")
    warm = [run_cli(capsys, "geometry", "--algebra", alg, "--metric", metric)[1]
            for alg in algebras]
    assert cold[0] == cold[1] == warm[0] == warm[1]
    assert "metric:  (p-q)*eps11+eps14+p*q*eps22-eps23\n" in cold[0]
