import shutil

import pytest

from pk4lie.catalog import (
    DATA_DIR, LoadAssertionFailed, expand_variants, load_catalog,
    parse_entries,
)
from pk4lie.notation import (
    emit_endo, emit_sym_form, emit_two_form, parse_endo, parse_two_form,
)
from pk4lie.scalars import ParseError, ScalarError

CAT = load_catalog()


def test_load_counts_are_regression_constants():
    # counted once from the source tables during transcription
    assert len(CAT.algebras) == 19            # 17 families + 2 derived members
    assert len([k for k in CAT.raw_entries if k.startswith("symplectic/")]) == 19
    assert len(CAT.symplectic) == 24          # sign variants expanded
    assert len(CAT.structures) == 98          # all sign variants expanded
    assert len([k for k in CAT.phase_rows if k.startswith("phase_b/")]) == 23
    assert len([k for k in CAT.phase_rows if k.startswith("phase_c/")]) == 22
    assert len([k for k in CAT.iso_rows if k.startswith("iso_b/")]) == 46
    assert len([k for k in CAT.iso_rows if k.startswith("iso_c/")]) == 42
    assert len([k for k in CAT.raw_entries if k.startswith("curvature/")]) == 78
    assert len(CAT.curvature_rows) == 115     # sign variants expanded


def test_load_runs_all_assertions():
    # Jacobi, antisymmetry, satisfiability, cross-references
    load_catalog(check=True)


def test_dump_is_byte_identical():
    for entry_id in ("alg/rh3", "structures/d4_half/K1", "iso_b/B2",
                     "curvature/d4_half/1"):
        dumped = CAT.dump(entry_id)
        fname = {"alg": "algebras.txt", "structures": "structures.txt",
                 "iso_b": "iso_b.txt", "curvature": "curvature.txt"}[
                     entry_id.split("/")[0]]
        assert dumped.rstrip() + "\n" in (DATA_DIR / fname).read_text()
        # variants dump their parent literally
        if entry_id in ("structures/d4_half/K1",):
            assert CAT.dump(entry_id + ":a") == dumped


def test_expand_variants_counts():
    raw = CAT.raw_entries["structures/rh3/K2"]
    assert len(expand_variants(raw, ("omega", "K"))) == 2
    raw = CAT.raw_entries["structures/rh3/K1"]
    assert len(expand_variants(raw, ("omega", "K"))) == 1


def test_expand_variants_covary():
    # -+(E11+E22+-E23-E33-E44): top signs -(..+..), bottom +(..-..)
    a = CAT.structures["structures/rr3_m1/K1:a"].K
    b = CAT.structures["structures/rr3_m1/K1:b"].K
    assert a == parse_endo("-(E11+E22+E23-E33-E44)")
    assert b == parse_endo("E11+E22-E23-E33-E44")


def test_structure_omega_matches_its_symplectic_row():
    # checked at load; spot-check the mu = 0 derived rows
    st = CAT.structures["structures/r2r2_mu0/K3"]
    assert st.omega == parse_two_form("e12+e34")
    assert st.algebra.serialize() == "[e1,e2]=e2; [e3,e4]=e4"


def test_thm_entries_reference_existing_pairs():
    for st in CAT.structures.values():
        assert st.symplectic_ref in CAT.raw_entries
    for row in CAT.iso_rows.values():
        assert row.source_ref in CAT.phase_rows
        assert row.target_ref in CAT.algebras


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_entries("", "empty")
    with pytest.raises(ParseError):
        parse_entries("stray line\n", "stray")
    with pytest.raises(ParseError):
        parse_entries("[x/y]\nbrackets\n", "noval")


def _broken_copy(tmp_path, fname, old, new):
    data = tmp_path / "data"
    shutil.copytree(DATA_DIR, data)
    path = data / fname
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return data


def test_corrupted_bracket_fails_load(tmp_path):
    # break Jacobi in one algebra
    data = _broken_copy(tmp_path, "algebras.txt",
                        "brackets: [e1,e2]=e3\n",
                        "brackets: [e1,e2]=e3; [e1,e3]=e1\n")
    with pytest.raises(LoadAssertionFailed):
        load_catalog(data)


def test_excluded_parameter_value_fails_load(tmp_path):
    # lam = 1 violates the family's stated range
    data = _broken_copy(tmp_path, "structures.txt",
                        "subst: lam=1/2", "subst: lam=1")
    with pytest.raises(ScalarError):
        load_catalog(data)


def test_unsatisfiable_domain_fails_load(tmp_path):
    data = _broken_copy(tmp_path, "phase_b.txt",
                        "domain: x != 0\n\n[phase_b/B1_1_2]",
                        "domain: x != 0, x == 0\n\n[phase_b/B1_1_2]")
    with pytest.raises(LoadAssertionFailed) as e:
        load_catalog(data)
    assert "equality constraint 'x == 0'" in e.value.check
    # an equation is refused when the row's domain is parsed; sign
    # constraints that no point satisfies fail the sampled check
    data = _broken_copy(tmp_path / "signs", "phase_b.txt",
                        "domain: x != 0\n\n[phase_b/B1_1_2]",
                        "domain: x > 0, x < 0\n\n[phase_b/B1_1_2]")
    with pytest.raises(LoadAssertionFailed) as e:
        load_catalog(data)
    assert e.value.check == "domain unsatisfiable"


def test_broken_reference_fails_load(tmp_path):
    from pk4lie.catalog import BrokenReference
    data = _broken_copy(tmp_path, "iso_b.txt",
                        "source: phase_b/B2", "source: phase_b/NoSuchRow")
    with pytest.raises(BrokenReference):
        load_catalog(data)


def _row_columns(cat, key):
    """A row's payload as text: algebra, form(s), domain, expected columns."""
    if key in cat.structures:
        row = cat.structures[key]
        forms = (emit_two_form(row.omega), emit_endo(row.K), row.symplectic_ref)
    else:
        row = cat.curvature_rows[key]
        forms = (emit_sym_form(row.metric), row.expect_flat, row.expect_ricci_flat,
                 None if row.expect_x is None else [str(v) for v in row.expect_x],
                 str(row.expect_lam), row.link, row.notes)
    radicals = [(r.w.name, repr(r.radicand), r.solve_for.name)
                for r in row.domain.radicals]
    return (row.variant, row.algebra.serialize(), repr(row.algebra.domain),
            repr(row.domain), radicals) + forms


def test_rows_do_not_depend_on_read_order():
    # rows are built on first read: reading them backwards must give the
    # rows that the checked load built in file order
    fresh = load_catalog(check=False)
    keys = list(CAT.structures) + list(CAT.curvature_rows)
    assert keys == list(fresh.structures) + list(fresh.curvature_rows)
    backwards = {key: _row_columns(fresh, key) for key in reversed(keys)}
    assert backwards == {key: _row_columns(CAT, key) for key in keys}


def test_a_broken_structure_fails_load_and_its_own_read(tmp_path):
    data = _broken_copy(tmp_path, "structures.txt",
                        "subst: beta=-1\nalg: alg/r4_m1_m1\n",
                        "subst: beta=-1\nalg: alg/d4_half\n")
    with pytest.raises(LoadAssertionFailed):
        load_catalog(data)
    cat = load_catalog(data, check=False)
    assert cat.curvature_rows["curvature/d4_half/1"].metric is not None
    assert "structures/r4_m1_m1/K1" in cat.structures
    with pytest.raises(LoadAssertionFailed):
        cat.structures["structures/r4_m1_m1/K1"]
