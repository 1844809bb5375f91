import json
import sys

import pytest

from pk4lie import structures
from pk4lie.catalog import DATA_DIR, Catalog, load_catalog
from pk4lie.cli import _curvature_table, main
from pk4lie.verify import run_curvature_rows


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


def test_dump_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "dump", "structures/d4_half/K1")
    assert code == 0
    assert out.rstrip() + "\n" in (DATA_DIR / "structures.txt").read_text()


def test_usage_error_exit_code(capsys):
    assert main(["verify", "not-a-scope"]) == 2
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
    capsys.readouterr()
    # malformed --set: a usage error, refused before any substitution
    for item in ("x=1/0", "x=abc", "x", "q=1"):
        code, out, err = run_cli(capsys, "geometry", "curvature/d4_1/8",
                                 "--set", item)
        assert code == 2, item
        assert out == "" and err.startswith("error: --set"), item


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


def test_curvature_suite_and_table_build_each_connection_once(monkeypatch):
    # Count Levi-Civita connections through every binding of the function,
    # as imported by each pk4lie module.
    calls = []
    orig = structures.levi_civita

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "pk4lie" or name.startswith("pk4lie."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    cat = load_catalog()
    run_curvature_rows(cat)
    _curvature_table(cat)
    # one per row, plus the generic branch and the slice of the one row whose
    # rank splits (curvature/d4_2/7)
    assert len(cat.curvature_list()) == 115
    assert len(calls) == 117


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
