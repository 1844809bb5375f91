import json
from pathlib import Path

from pk4lie.liealg import LieAlgebra4
from pk4lie.linalg import _eliminate
from pk4lie.notation import parse_endo, parse_two_form
from pk4lie.phase_space import (
    LSA_CATALOG_TEXT, LSAPair, assembled_brackets, emit_products,
    is_lie_extendible, lsa_pair, normal_form, normal_form_failures, parse_products,
)
from pk4lie.scalars import EMPTY_DOMAIN, Scalar, ZERO, ONE, parse_scalar
from pk4lie.structures import validate_para_kahler
from oracles import (
    commutator_brackets, extendibility_constraints, generic_ustar,
    is_left_symmetric, lsa_catalog, phase_commutators, phase_product,
    ustar_coeffs_from_products,
)

CATALOG = lsa_catalog()
B2 = CATALOG["b2"]
C1 = CATALOG["c1"]
C2 = CATALOG["c2"]


def derived_rank(L: LieAlgebra4) -> int:
    """Rank of the span of all basis brackets (the derived subalgebra)."""
    return len(_eliminate([list(v) for v in L.brackets.values()], 4, EMPTY_DOMAIN))


def test_all_ten_families_left_symmetric():
    for name, lsa in CATALOG.items():
        assert is_left_symmetric(lsa), name


def test_catalog_commutators_split_by_series():
    # b-series have non-abelian commutator Lie algebra, c-series abelian.
    for name, lsa in CATALOG.items():
        comm = commutator_brackets(lsa)
        abelian = all(c.is_zero for c in comm)
        if name.startswith("c"):
            assert abelian, name
        else:
            assert not abelian, name


def test_trivial_pair_product_vanishes():
    pair = LSAPair(C1, parse_products("trivial", 2))
    p = [parse_scalar(t) for t in ("1", "x", "2", "y")]
    q = [parse_scalar(t) for t in ("3", "0", "1", "1")]
    assert all(c.is_zero for c in phase_product(pair.on_U, pair.on_Ustar, p, q))
    ok, _ = is_lie_extendible(assembled_brackets(pair))
    assert ok


def test_b2_with_solution_product_gives_printed_brackets():
    # U* product e3.e3 = x e4 reproduces the listed bracket family.
    pair = LSAPair(B2, parse_products("e3.e3=x*e4", 2))
    L = assembled_brackets(pair)
    expected = LieAlgebra4.parse("[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e2,e4]=-e4")
    assert L.serialize() == expected.serialize()
    ok, _ = is_lie_extendible(L)
    assert ok


def test_c2_pair_hand_oracle():
    # c2 (e2.e2 = e2) with trivial U*: expanding the extension product on all
    # 16 basis pairs leaves e2.e2 = e2 and the cross term
    # e2.e4 = -Lt_{e2} e4 = -e4; everything else vanishes, so the only
    # bracket is [e2,e4] = -e4.
    pair = LSAPair(C2, parse_products("trivial", 2))
    basis = [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
             [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, ONE]]
    prods = {}
    for i in range(4):
        for j in range(4):
            prods[(i, j)] = phase_product(pair.on_U, pair.on_Ustar,
                                          basis[i], basis[j])
    for (i, j), v in prods.items():
        if (i, j) == (1, 1):
            assert v == [ZERO, ONE, ZERO, ZERO]
        elif (i, j) == (1, 3):
            assert v == [ZERO, ZERO, ZERO, -ONE]
        else:
            assert all(c.is_zero for c in v), (i, j)
    L = assembled_brackets(pair)
    assert L.serialize() == "[e2,e4]=-e4"


def _assert_assembly_matches_product_formula(on_U, on_Ustar, label):
    L = assembled_brackets(LSAPair(on_U, on_Ustar))
    for (i, j), want in phase_commutators(on_U, on_Ustar).items():
        assert L.bracket_basis(i, j) == want, (label, i, j)


def test_assembly_matches_product_formula_on_explore_pairs():
    # every base/dual pair that `pk4lie phase` is benchmarked on
    root = Path(__file__).resolve().parent.parent
    space = json.loads((root / "perfbench" / "explore_space.json").read_text())
    pairs = [(b, d) for b in space["phase_bases"] for d in space["phase_duals"]]
    assert len(pairs) == 156
    for base, dual in pairs:
        pair = lsa_pair(base, dual)
        _assert_assembly_matches_product_formula(pair.on_U, pair.on_Ustar,
                                                 (base, dual))


def test_assembly_matches_product_formula_on_generic_dual():
    # the symbolic dual product in the eight coefficients a33 .. b44
    for name in LSA_CATALOG_TEXT:
        _assert_assembly_matches_product_formula(CATALOG[name], generic_ustar(),
                                                 name)


def test_b2_constraint_system_contains_displayed_equations():
    sys = extendibility_constraints(B2)
    for text in ("b34+a33+a43", "a44", "b44+a43"):
        assert sys.contains(parse_scalar(text).num), text


def test_b2_displayed_quartic_set_after_substitution():
    # Substituting the first-stage solution (a44 = 0, b44 = -a43,
    # b34 = -a33-a43) must reproduce the displayed quartic systems from the
    # two remaining Jacobi triples, up to sign.
    sys = extendibility_constraints(B2)
    sub = {Scalar.var(n).params().pop(): v for n, v in {
        "a44": Scalar.const(0),
        "b44": -Scalar.var("a43"),
        "b34": -Scalar.var("a33") - Scalar.var("a43"),
    }.items()}
    reduced = {}
    for label, p in sys.equations:
        s = Scalar(p).substitute(sub)
        if not s.is_zero:
            reduced.setdefault(label.split(").")[0] + ")", []).append(s)
    displayed_134 = [
        "a33*a34-2*a33*a43-a34*b43-a43*a43-a43*b43",
        "a34*(a34+a43)",
        "a34",
    ]
    displayed_234 = [
        "(a34-3*a43)*b33+b43*(a33-b43)",
        "2*a43*a43+(2*a33-a34+b43)*a43-a34*(a33-b43)",
        "a34",
        "a34+b43+2*a33",
    ]
    def matches(group, displayed):
        got = {frozenset(s.num.terms.items()) for s in group} | {
            frozenset((-s.num).terms.items()) for s in group}
        for d in displayed:
            if frozenset(parse_scalar(d).num.terms.items()) not in got:
                return False
        return True

    assert matches(reduced["jacobi(e1,e3,e4)"], displayed_134)
    assert matches(reduced["jacobi(e2,e3,e4)"], displayed_234)


def test_b2_solution_and_nonsolution_membership():
    sys = extendibility_constraints(B2)
    # e3.e3 = x e4 solves the system for every x
    sol = ustar_coeffs_from_products(parse_products("e3.e3=x*e4", offset=2))
    assert sys.is_solution(sol)
    # e3.e4 = e4 violates the first displayed equation: b34+a33+a43 = 1
    claimed = ustar_coeffs_from_products(parse_products("e3.e4=e4", offset=2))
    assert not sys.is_solution(claimed)
    residual = [r for r in sys.residuals_at(claimed) if not r.is_zero]
    assert Scalar.const(1) in residual or Scalar.const(-1) in residual
    # e3.e3 = e3 (all else zero) is not a solution either
    bad = ustar_coeffs_from_products(parse_products("e3.e3=e3", offset=2))
    assert not sys.is_solution(bad)


def test_b2_claimed_product_fails_jacobi_directly():
    pair = LSAPair(B2, parse_products("e3.e4=e4", 2))
    ok, defects = is_lie_extendible(assembled_brackets(pair))
    assert not ok
    # the violated identity is the cyclic sum on (e1,e2,e3), e1 component
    assert defects[(0, 1, 2)][0] == Scalar.const(1)


def test_trivial_u_constraints_shape():
    # With trivial U the Jacobi system only constrains the U* product; the
    # trivial U* product solves it.
    sys = extendibility_constraints(C1)
    zero = {n: ZERO for n in ustar_coeffs_from_products({})}
    assert sys.is_solution(ustar_coeffs_from_products({}))


def test_c2_rows_are_solutions():
    sys = extendibility_constraints(C2)
    rows = {
        "C2_1": "e3.e3=x*e3; e4.e4=y*e4",
        "C2_2": "e3.e3=x*e3+y*e4",
        "C2_3": "e3.e3=x*e3+y*e4; e4.e3=x*e4",
    }
    for name, text in rows.items():
        sol = ustar_coeffs_from_products(parse_products(text, offset=2))
        assert sys.is_solution(sol), name


def test_c2_rows_reproduce_table_brackets():
    cases = {
        "e3.e3=x*e3; e4.e4=y*e4": "[e1,e3]=x*e1; [e2,e4]=y*e2-e4",
        "e3.e3=x*e3+y*e4": "[e1,e3]=x*e1; [e2,e3]=y*e1; [e2,e4]=-e4",
        "e3.e3=x*e3+y*e4; e4.e3=x*e4":
            "[e1,e3]=x*e1; [e2,e3]=y*e1; [e2,e4]=x*e1-e4; [e3,e4]=-x*e4",
    }
    for ustar, brackets in cases.items():
        pair = LSAPair(C2, parse_products(ustar, 2))
        ok, _ = is_lie_extendible(assembled_brackets(pair))
        assert ok
        assert assembled_brackets(pair).serialize() == \
            LieAlgebra4.parse(brackets).serialize()


def test_assembled_algebra_carries_normal_form_structure():
    # The construction's guarantee, made checkable: the assembled bracket
    # of a Lie-extendible pair validates with omega = e13+e24 and
    # K = diag(1,1,-1,-1).
    pair = LSAPair(B2, parse_products("e3.e3=x*e4", 2))
    L = assembled_brackets(pair)
    rep = validate_para_kahler(L, parse_two_form("e13+e24"),
                               parse_endo("E11+E22-E33-E44"))
    assert rep.status == "PASS", rep.failing()


def test_specialized_row_is_two_step_solvable():
    # the x=y=z=0 member of the B3_1 family: derived algebra has rank 2 and
    # its own brackets vanish
    L = LieAlgebra4.parse("[e1,e2]=e1; [e1,e3]=-e4; [e2,e4]=-e4")
    assert L.is_lie_algebra()
    assert derived_rank(L) == 2
    derived = [v for v in L.brackets.values()]
    for u in derived:
        for v in derived:
            assert all(c.is_zero for c in L.bracket(u, v))


def test_lsa_round_trip():
    for name, lsa in CATALOG.items():
        text = emit_products(lsa)
        again = parse_products(text)
        assert emit_products(again) == text


def test_a_pair_is_its_two_product_tables():
    # a pair is its two product tables: no check reads the family's range,
    # which LSA_CATALOG_TEXT keeps as printed text
    pair = lsa_pair("b3_alpha", "")
    assert emit_products(pair.on_Ustar, 2) == "trivial"
    # the products are plain tables, with no domain of their own
    assert type(pair.on_U) is type(pair.on_Ustar) is dict


def test_build_table_rows_all_validate():
    from pk4lie.catalog import load_catalog
    from pk4lie.verify import run_phase_rows
    # fault injection: a corrupted row is the only one that fails
    cat = load_catalog(check=False)
    # rows are built on first read, so the edit goes in before it
    cat.raw_entries["phase_b/B2"].fields["brackets"] = (
        "[e1,e2]=-e1; [e2,e3]=x*e1-e3-e4; [e1,e3]=e4")
    reports = run_phase_rows(cat)
    assert len(reports) == 45
    assert [(r.entry_id, r.status) for r in reports
            if r.status != "PASS"] == [("phase_b/B2", "FAIL")]


def test_the_normal_form_verdict_reads_no_domain():
    # the premise on which the phase and iso suites and `pk4lie phase` drop
    # the domain; no check takes a seed or a trial count
    from pk4lie.catalog import load_catalog
    cat = load_catalog()
    algebras = [(key, row.algebra, row.domain) for key, row in cat.phase_rows.items()]
    algebras += [(key, row.source, row.domain) for key, row in cat.iso_rows.items()]
    assert len(algebras) == 45 + 88
    for key, L, domain in algebras:
        assert normal_form_failures(L) == validate_para_kahler(
            L, *normal_form(), domain).failing(), key
