"""Verification suites over the catalog, with WARN-aware reporting.

Each suite returns a list of EntryReport records, and every status comes
from one rule: PASS when every check passes, WARN when a note explains
every failed check, FAIL otherwise.  A row whose computed values disagree
with its printed columns WARNs only if the row carries a transcription
note, and both values are reported.  Three structural failures of a
curvature row FAIL even when the row is noted: a domain that no point
satisfies (which also fails a structure row), an identically degenerate
metric, and a rank that depends on the parameters with no root to split
at, or on the generic branch of that split.

In the witness suite each known erratum is a check of its own, and its
note explains that check alone.
"""

from __future__ import annotations

from typing import List, Tuple

from .catalog import Catalog, CurvatureRowEntry
from .curvature import (
    classify_row, soliton_family_equal, soliton_residual, solve_soliton,
)
from .liealg import LieAlgebra4, ce_d, pfaffian_nondegenerate
from .linalg import (
    DegenerateError, Mat4, RankAmbiguous, mat_from_cols, split_at_root, vis_zero,
)
from .morphisms import LinMap, check_equivalence, check_lie_isomorphism, transport
from .notation import emit_endo, emit_two_form, parse_endo, parse_two_form
from .phase_space import normal_form
from .scalars import ParamDomain, Scalar, ScalarError
from .structures import EntryReport, validate_para_kahler


# ---------------------------------------------------------------------------
# Suite: symplectic rows (Jacobi, closedness, nondegeneracy)


def run_symplectic(cat: Catalog, seed: int = 0, trials: int = 32) -> List[EntryReport]:
    out = []
    for key, sym in cat.symplectic.items():
        rep = EntryReport(key)
        L, omega = sym.algebra, sym.omega
        rep.add("jacobi", L.is_lie_algebra())
        rep.add("omega_antisymmetric", omega.is_antisymmetric())
        rep.add("omega_closed", ce_d(L, omega).is_zero())
        nd = pfaffian_nondegenerate(omega, sym.domain, trials=trials, seed=seed)
        rep.add("omega_nondegenerate", nd.kind == "NonZero", nd.kind)
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# Suite: para-Kahler structures (nine-point validation per entry)


def run_structures(cat: Catalog, seed: int = 0, trials: int = 32) -> List[EntryReport]:
    out = []
    for st in cat.structure_list():
        rep = EntryReport(st.entry_id)
        if not _domain_fails(rep, st.domain):
            rep = validate_para_kahler(st.algebra, st.omega, st.K, st.domain,
                                       st.entry_id, seed, trials)
        out.append(rep)
    return out


def _domain_fails(rep: EntryReport, dom: ParamDomain) -> bool:
    """Fail the row when no point satisfies its domain, where every exact
    check would hold vacuously.  A checked catalog has already found a point
    of each row's domain, and the domain keeps it, so only a row of an
    unchecked catalog is searched here."""
    if dom.satisfiable():
        return False
    rep.add("domain_satisfiable", False, f"no point of {dom!r} found",
            structural=True)
    return True


# ---------------------------------------------------------------------------
# Suite: phase-space rows (Jacobi + normal form + Lagrangian eigenplanes)


def run_phase_rows(cat: Catalog, seed: int = 0, trials: int = 32) -> List[EntryReport]:
    nf_omega, nf_k = normal_form()
    out = []
    for entry_id, row in cat.phase_rows.items():
        rep = EntryReport(entry_id)
        L, dom = row.algebra, row.domain
        rep.add("jacobi", L.is_lie_algebra())
        failed = validate_para_kahler(L, nf_omega, nf_k, dom, entry_id,
                                      seed, trials).failing()
        rep.add("normal_form_structure", not failed, ",".join(failed))
        # span(e1,e2) and span(e3,e4) are the K eigenplanes; they must be
        # bracket-closed and omega-Lagrangian.
        plus_closed = all(L.bracket_basis(0, 1)[r].is_zero for r in (2, 3))
        minus_closed = all(L.bracket_basis(2, 3)[r].is_zero for r in (0, 1))
        rep.add("eigenplanes_bracket_closed", plus_closed and minus_closed)
        lagr = nf_omega.rows[0][1].is_zero and nf_omega.rows[2][3].is_zero
        rep.add("eigenplanes_lagrangian", lagr)
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# Suite: isomorphism rows


def run_iso_rows(cat: Catalog, seed: int = 0, trials: int = 32) -> List[EntryReport]:
    out = []
    for entry_id, row in cat.iso_rows.items():
        rep = EntryReport(entry_id, row_note=row.raw.get("notes", ""))
        dom = row.domain
        m = LinMap(row.matrix, row.target, row.source)
        inv = m.invertible(dom, trials, seed)
        rep.add("invertible", inv.kind == "NonZero", inv.kind)
        ok, res = check_lie_isomorphism(m)
        if ok:
            rep.add("lie_isomorphism", True)
        else:
            bad = {f"[f{i+1},f{j+1}]": [str(c) for c in v]
                   for (i, j), v in res.items() if not vis_zero(v)}
            rep.add("lie_isomorphism", False, f"residuals {bad}")
        try:
            w, k = transport(m, *normal_form())
            failed = validate_para_kahler(row.target, w, k, dom, entry_id,
                                          seed, trials).failing()
            rep.add("transported_structure_valid", not failed, ",".join(failed))
        except DegenerateError as e:  # already reported by "invertible"
            rep.add("transported_structure_valid", False, repr(e))
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# Suite: curvature rows


def run_curvature_rows(cat: Catalog) -> List[EntryReport]:
    return [_verify_curvature_row(row) for row in cat.curvature_list()]


def _verify_curvature_row(row: CurvatureRowEntry) -> EntryReport:
    rep = EntryReport(row.entry_id, row_note=row.notes)
    L, h, dom = row.algebra, row.metric, row.domain
    if _domain_fails(rep, dom):
        return rep
    computed = row.geometry
    try:
        sol = computed.soliton
    except DegenerateError:
        rep.add("metric_nondegenerate", False, "identically degenerate",
                structural=True)
        return rep
    except RankAmbiguous as e:
        split = split_at_root(e.poly, dom)
        try:
            if split is None:
                raise e
            var, value, dom = split
            # The connection, R and ric do not depend on the domain, so the
            # branch reuses them: only the soliton solve changes.
            sol = solve_soliton(computed.system, dom, computed.ric)
        except RankAmbiguous as ambiguous:
            rep.add("classified", False, f"rank ambiguous: {ambiguous.poly!r}",
                    structural=True)
            return rep
        try:
            special = classify_row(L.substitute({var: value}),
                                   h.substitute({var: value}), row.domain)
            sp = ("none" if special.soliton is None else
                  f"lam={special.soliton.lam}")
            branch_note = (f"rank jumps at {var.name}={value}; on that slice "
                           f"flat={special.flat}, ricci_flat={special.ricci_flat}, "
                           f"soliton {sp}; columns below are the generic branch")
        except (ScalarError, ZeroDivisionError):
            branch_note = (f"rank jumps at {var.name}={value}; columns below "
                           f"are the generic branch")
        rep.add("classified_on_generic_branch", True, branch_note)
    rep.add("flat", computed.flat == row.expect_flat,
            f"computed {computed.flat}, printed {row.expect_flat}")
    rep.add("ricci_flat", computed.ricci_flat == row.expect_ricci_flat,
            f"computed {computed.ricci_flat}, printed {row.expect_ricci_flat}")
    same, why = soliton_family_equal(computed.system, computed.ric, sol,
                                     row.expect_x, row.expect_lam, dom)
    printed = ("none" if row.expect_x is None else
               f"lam={row.expect_lam}, X=({','.join(str(c) for c in row.expect_x)})")
    got = ("none" if sol is None else
           f"lam={sol.lam}, X=({','.join(str(c) for c in sol.x)})")
    rep.add("soliton_family", same, f"computed {got}; printed {printed}" +
            (f"; {why}" if why else ""))
    if sol is not None:
        resid = soliton_residual(computed.system, sol.x, sol.lam, computed.ric)
        rep.add("soliton_residual_zero", resid.is_zero())
    if computed.flat and not computed.ricci_flat:
        rep.add("flat_implies_ricci_flat", False)
    return rep


# ---------------------------------------------------------------------------
# Suite: worked equivalence witnesses on the algebra with bracket [e1,e2]=e2


# Errata of the printed worked example; each note explains one check.
C2_3_00_OMEGA_ERRATUM = ("printed pullback lists e24 where the computed "
                         "transport gives e14; the normalizing map below "
                         "matches the computed form")
T3_PULLBACK_ERRATUM = ("printed T3 has +1 at (2,2) and (a34*a43-1)/a44 at "
                       "(3,3); the corrected form (T2's shape) verifies")
T4_K0_ERRATUM = ("printed K04 = -E11+E22+E33-E44 is not a conjugate of the "
                 "computed K4: every automorphism fixes the e1 coefficient, "
                 "so the (1,1) entry stays +1")


def _matches_up_to_y_flip(computed: Mat4, printed: Mat4) -> Tuple[bool, bool]:
    """(equal, relabelled): whether computed equals printed, and whether
    only after y -> -y, a relabelling since the branch parameter y is free."""
    if computed == printed:
        return True, False
    y = Scalar.var("y")
    if y.params() <= computed.params():
        if computed.substitute({next(iter(y.params())): -y}) == printed:
            return True, True
    return False, False


def run_equivalence_witnesses(cat: Catalog) -> List[EntryReport]:
    """Replays the four-fold pullback to (omega0, K0i), the normalizing
    automorphism families, the equivalence witness and the two
    non-equivalence residuals, exactly as parameter identities."""
    reports: List[EntryReport] = []
    rr30 = LieAlgebra4.parse("[e1,e2]=e2", "rr3_0")
    omega0 = parse_two_form("e12+e34")
    nf = normal_form()
    a21, a33, a34, a43, a44, y = (Scalar.var(n) for n in
                                  ("a21", "a33", "a34", "a43", "a44", "y"))
    one, zero = Scalar.const(1), Scalar.const(0)

    # the four sources, their printed pullbacks and the erratum of omega
    sources = [
        ("iso_c/C1_6", "e12-e34", "-E11+E22-E33+E44", ""),
        ("iso_c/C2_1_0", "-e12+e34", "E11-2*y*E12-E22+E33-E44", ""),
        ("iso_c/C2_2_00", "-e12+e34", "E11-E22+E33-E44", ""),
        ("iso_c/C2_3_00", "-e12+e24+e34", "E11-E22+E33-E44",
         C2_3_00_OMEGA_ERRATUM),
    ]
    transported: List[Tuple[Mat4, Mat4]] = []
    for ref, w_text, k_text, w_erratum in sources:
        rep = EntryReport(f"witness/transport/{ref.split('/')[-1]}")
        row = cat.iso_rows[ref]
        m = LinMap(row.matrix, row.target, row.source)
        ok, _ = check_lie_isomorphism(m)
        rep.add("lie_isomorphism", ok)
        w, k = transport(m, *nf)
        w_ok = w == parse_two_form(w_text)
        k_ok, relabelled = _matches_up_to_y_flip(k, parse_endo(k_text))
        if relabelled:
            rep.note("printed K corresponds to the branch parameter -y; the "
                     "free parameter makes both families equal")
        rep.add("omega_matches_printed", w_ok,
                "" if w_ok else f"computed {emit_two_form(w)}, printed {w_text}",
                note=w_erratum)
        rep.add("K_matches_printed", k_ok,
                "" if k_ok else f"computed {emit_endo(k)}, printed {k_text}")
        transported.append((w, k))
        reports.append(rep)

    def family(d22: Scalar, d33: Scalar, c31: Scalar = zero) -> Mat4:
        """The printed shape of T1..T4 and L1, by the entries that vary."""
        return mat_from_cols([[one, a21, c31, zero], [zero, d22, zero, zero],
                              [zero, zero, d33, a43], [zero, zero, a34, a44]])

    q_minus = (a34 * a43 - one) / a44
    q_plus = (a34 * a43 + one) / a44
    t1, t2 = family(one, q_minus), family(-one, q_plus)
    # the normalizing families as printed (T3 repeats T1's shape; T2's shape
    # is the corrected one), the printed K0i and the errata of the pullback
    # and of K0i
    normalizers = [
        ("T1", t1, "-E11+E22-E33+E44", "", ""),
        ("T2", t2, "E11+2*y*E12-E22+E33-E44", "", ""),
        ("T3", t1, "E11-E22+E33-E44", T3_PULLBACK_ERRATUM, ""),
        ("T4", family(-one, q_plus, -one), "-E11+E22+E33-E44", "",
         T4_K0_ERRATUM),
    ]
    norm_subst = {a21.params().pop(): zero, a34.params().pop(): zero,
                  a43.params().pop(): zero}
    for (name, t, k0_text, pull_erratum, k0_erratum), (w_i, k_i) in zip(
            normalizers, transported):
        rep = EntryReport(f"witness/normalize/{name}")
        auto_ok, _ = check_lie_isomorphism(LinMap(t, rr30, rr30))
        rep.add("automorphism", auto_ok)
        pull = t.transpose() @ w_i @ t
        pull_ok = pull == omega0
        rep.add("pullback_is_omega0", pull_ok,
                "" if pull_ok else f"T*omega_i = {emit_two_form(pull)}",
                note=pull_erratum)
        if not pull_ok and pull_erratum:
            t = t2
            rep.add("corrected_pullback_is_omega0",
                    t.transpose() @ w_i @ t == omega0)
        # normalized conjugation at a21 = a34 = a43 = 0, a44 symbolic
        t0 = t.substitute(norm_subst)
        k0 = t0.inverse() @ k_i.substitute(norm_subst) @ t0
        k0_ok, relabelled = _matches_up_to_y_flip(k0, parse_endo(k0_text))
        if relabelled:
            rep.note("matches after the y -> -y relabelling of the free "
                     "branch parameter")
        rep.add("normalized_K_matches_printed", k0_ok,
                "" if k0_ok else f"computed {emit_endo(k0)}, printed {k0_text}",
                note=k0_erratum)
        reports.append(rep)

    # equivalence witness L (printed): carries (omega0, K04) to (omega0, K01)
    rep = EntryReport("witness/equivalence/L")
    L_mat = mat_from_cols([[one, zero, zero, zero], [zero, one, zero, zero],
                           [zero, zero, zero, -one], [zero, zero, one, zero]])
    ok, _ = check_equivalence(LinMap(L_mat, rr30, rr30),
                              (omega0, parse_endo("-E11+E22+E33-E44")),
                              (omega0, parse_endo("-E11+E22-E33+E44")))
    rep.add("L_carries_K04_to_K01", ok)
    reports.append(rep)

    # non-equivalence residuals, exactly as parameter identities
    rep = EntryReport("witness/nonequivalence/residuals")
    k01 = parse_endo("-E11+E22-E33+E44")
    k02 = parse_endo("E11+2*y*E12-E22+E33-E44")
    l2 = mat_from_cols([[one, a21, zero, zero], [zero, one, zero, zero],
                        [zero, zero, a33, -one / a34], [zero, zero, a34, zero]])
    for name, l in (("L1", family(one, q_plus)), ("L2", l2)):
        auto_ok, _ = check_lie_isomorphism(LinMap(l, rr30, rr30))
        rep.add(f"{name}_automorphism", auto_ok)
        symp = l.transpose() @ omega0 @ l == omega0
        rep.add(f"{name}_symplectomorphism", symp)
        diff = l.inverse() @ k01 @ l - k02
        if name == "L1":
            val = diff.rows[1][1]
            rep.add("L1_residual_is_2", val == Scalar.const(2), str(val))
        else:
            val = diff.rows[0][0]
            rep.add("L2_residual_is_minus_2", val == Scalar.const(-2), str(val))
    reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Scope runner


# scope -> (cat, seed, trials) -> reports, in `verify all` order;
# cli.SCOPES copies the keys.
SUITES = {
    "symplectic": run_symplectic,
    "structures": run_structures,
    "phase": run_phase_rows,
    "iso": run_iso_rows,
    "curvature": lambda cat, seed, trials: run_curvature_rows(cat),
    "witnesses": lambda cat, seed, trials: run_equivalence_witnesses(cat),
}


def run_scope(cat: Catalog, scope: str, seed: int = 0,
              trials: int = 32) -> List[EntryReport]:
    if scope == "all":  # through run_scope, so that a wrapper sees each suite
        return [r for s in SUITES for r in run_scope(cat, s, seed, trials)]
    if scope not in SUITES:
        raise ValueError(f"unknown scope {scope!r}")
    return SUITES[scope](cat, seed, trials)
