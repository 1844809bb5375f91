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

The phase, iso and witness suites import `phase_space`, the iso and
witness suites `morphisms`, and the curvature suite `curvature`, when they
run, so each scope loads only the modules it reads.
"""

from __future__ import annotations

from typing import List

from .catalog import Catalog, CurvatureRowEntry
from .liealg import ce_d, pfaffian_nondegenerate
from .linalg import DegenerateError, Mat4, RankAmbiguous, split_at_root, vis_zero
from .notation import emit_endo, emit_two_form, parse_endo, parse_two_form
from .scalars import Param, ParamDomain, Scalar, ScalarError, parse_scalar
from .structures import EntryReport, validate_para_kahler


# ---------------------------------------------------------------------------
# Suite: symplectic rows (Jacobi, closedness, nondegeneracy)


def run_symplectic(cat: Catalog) -> List[EntryReport]:
    out = []
    for key, sym in cat.symplectic.items():
        rep = EntryReport(key)
        L, omega = sym.algebra, sym.omega
        rep.add("jacobi", L.is_lie_algebra())
        rep.add("omega_antisymmetric", omega.is_antisymmetric())
        rep.add("omega_closed", vis_zero(ce_d(L, omega).values()))
        nd = pfaffian_nondegenerate(omega, sym.domain)
        rep.add("omega_nondegenerate", nd.kind == "NonZero", str(nd))
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# Suite: para-Kahler structures (nine-point validation per entry)


def run_structures(cat: Catalog) -> List[EntryReport]:
    out = []
    for st in cat.structure_list():
        rep = EntryReport(st.entry_id)
        if not _domain_fails(rep, st.domain):
            rep = validate_para_kahler(st.algebra, st.omega, st.K, st.domain,
                                       st.entry_id)
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


def run_phase_rows(cat: Catalog) -> List[EntryReport]:
    from .phase_space import normal_form, normal_form_failures
    nf_omega, _ = normal_form()
    out = []
    for entry_id, row in cat.phase_rows.items():
        rep = EntryReport(entry_id)
        L = row.algebra
        rep.add("jacobi", L.is_lie_algebra())
        failed = normal_form_failures(L)
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


def run_iso_rows(cat: Catalog) -> List[EntryReport]:
    """Each row's map, and the phase-space normal form carried along it.

    A certified invertible map that is an exact Lie isomorphism is a change
    of basis, and each of the nine checks is invariant under it: the normal
    form pulled back to the target fails what it fails on the row's source
    (`normal_form_failures`, once per source bracket table).  Otherwise the
    check fails and names the failed premise."""
    from .morphisms import LinMap, check_lie_isomorphism
    from .phase_space import normal_form_failures
    failing = {}  # source brackets -> the checks the normal form fails there
    out = []
    for entry_id, row in cat.iso_rows.items():
        rep = EntryReport(entry_id, row_note=row.raw.get("notes", ""))
        m = LinMap(row.matrix, row.target, row.source)
        inv = m.invertible(row.domain)
        rep.add("invertible", inv.kind == "NonZero", str(inv))
        ok, res = check_lie_isomorphism(m)
        if ok:
            rep.add("lie_isomorphism", True)
        else:
            bad = {f"[f{i+1},f{j+1}]": [str(c) for c in v]
                   for (i, j), v in res.items() if not vis_zero(v)}
            rep.add("lie_isomorphism", False, f"residuals {bad}")
        premises = rep.failing()
        if premises:
            rep.add("transported_structure_valid", False,
                    f"not carried over: {','.join(premises)} failed")
        else:
            key = frozenset((ij, tuple(v)) for ij, v in row.source.brackets.items())
            if key not in failing:
                failing[key] = normal_form_failures(row.source)
            rep.add("transported_structure_valid", not failing[key],
                    ",".join(failing[key]))
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# Suite: curvature rows


def run_curvature_rows(cat: Catalog) -> List[EntryReport]:
    return [_verify_curvature_row(row) for row in cat.curvature_list()]


def _verify_curvature_row(row: CurvatureRowEntry) -> EntryReport:
    from .curvature import (
        classify_row, soliton_family_equal, soliton_residual, solve_soliton,
    )
    rep = EntryReport(row.entry_id, row_note=row.notes)
    L, h, dom = row.algebra, row.metric, row.domain
    if _domain_fails(rep, dom):
        return rep
    computed = row.geometry
    # one handler per structural failure, whether the connection, a solve
    # or the printed family's dimension raises it
    try:
        try:
            sol = computed.soliton
        except RankAmbiguous as e:
            split = split_at_root(e.poly, dom)
            if split is None:
                raise
            var, value, dom = split
            if _domain_fails(rep, dom):
                return rep
            # The connection, R and ric do not depend on the domain, so the
            # branch reuses them: only the soliton solve changes.
            sol = solve_soliton(computed.system, dom, computed.ric)
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
    except DegenerateError:
        rep.add("metric_nondegenerate", False, "identically degenerate",
                structural=True)
    except RankAmbiguous as e:
        rep.add("classified", False, f"rank ambiguous: {e.poly!r}",
                structural=True)
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

# The printed automorphism families of alg/rr3_0 as endomorphisms: column j
# is the image of e_j.  T3 repeats T1's shape; T2's shape is the corrected one.
T1 = "E11+a21*E21+E22+((a34*a43-1)/a44)*E33+a34*E34+a43*E43+a44*E44"
T2 = "E11+a21*E21-E22+((a34*a43+1)/a44)*E33+a34*E34+a43*E43+a44*E44"

# One row per source iso_c/<ref> of the worked example: its printed pullback
# (omega_i, K_i) and the erratum of omega_i, then the normalizing family as
# printed, the printed K0i, and the errata of the normalized pullback and of
# K0i.
WITNESS_ROWS = (
    ("C1_6", "e12-e34", "-E11+E22-E33+E44", "",
     "T1", T1, "-E11+E22-E33+E44", "", ""),
    ("C2_1_0", "-e12+e34", "E11-2*y*E12-E22+E33-E44", "",
     "T2", T2, "E11+2*y*E12-E22+E33-E44", "", ""),
    ("C2_2_00", "-e12+e34", "E11-E22+E33-E44", "",
     "T3", T1, "E11-E22+E33-E44", T3_PULLBACK_ERRATUM, ""),
    ("C2_3_00", "-e12+e24+e34", "E11-E22+E33-E44", C2_3_00_OMEGA_ERRATUM,
     "T4", "E11+a21*E21-E22-E31+((a34*a43+1)/a44)*E33+a34*E34+a43*E43+a44*E44",
     "-E11+E22+E33-E44", "", T4_K0_ERRATUM),
)


def run_equivalence_witnesses(cat: Catalog) -> List[EntryReport]:
    """Replays the four-fold pullback to (omega0, K0i), the normalizing
    automorphism families, the equivalence witness and the two
    non-equivalence residuals, exactly as parameter identities."""
    from .morphisms import LinMap, check_lie_isomorphism, transport
    from .phase_space import normal_form
    rr30 = cat.algebras["alg/rr3_0"].algebra
    omega0 = parse_two_form("e12+e34")
    k01 = parse_endo("-E11+E22-E33+E44")
    nf = normal_form()

    def automorphism(text: str):
        return LinMap(parse_endo(text), rr30, rr30)

    def pullback(rep: EntryReport, check: str, m, omega: Mat4, K: Mat4):
        """transport(m, omega, K), after the map's isomorphism check."""
        rep.add(check, check_lie_isomorphism(m)[0])
        return transport(m, omega, K)

    def matches(rep: EntryReport, check: str, computed: Mat4, text: str,
                flip_note: str = "", note: str = ""):
        """Compares a computed two-form or endomorphism with its printed text;
        with a `flip_note`, also after y -> -y, since the branch y is free."""
        parse, emit = ((parse_endo, emit_endo) if "E" in text else
                       (parse_two_form, emit_two_form))
        printed = parse(text)
        ok = computed == printed
        if not ok and flip_note:
            ok = computed.substitute({Param("y"): parse_scalar("-y")}) == printed
            if ok:
                rep.note(flip_note)
        detail = "" if ok else f"computed {emit(computed)}, printed {text}"
        rep.add(check, ok, detail, note=note)

    # the normalized K at a21 = a34 = a43 = 0, a44 symbolic: canonical forms
    # are unique, and det T stays nonzero there
    norm_subst = {Param(n): Scalar.const(0) for n in ("a21", "a34", "a43")}
    transported, normalized = [], []
    for (ref, w_text, k_text, w_erratum, name, t_text, k0_text, pull_erratum,
         k0_erratum) in WITNESS_ROWS:
        rep = EntryReport(f"witness/transport/{ref}")
        row = cat.iso_rows[f"iso_c/{ref}"]
        w_i, k_i = pullback(rep, "lie_isomorphism",
                            LinMap(row.matrix, row.target, row.source), *nf)
        matches(rep, "omega_matches_printed", w_i, w_text, note=w_erratum)
        matches(rep, "K_matches_printed", k_i, k_text,
                "printed K corresponds to the branch parameter -y; the "
                "free parameter makes both families equal")
        transported.append(rep)
        rep = EntryReport(f"witness/normalize/{name}")
        pull, k = pullback(rep, "automorphism", automorphism(t_text), w_i, k_i)
        pull_ok = pull == omega0
        rep.add("pullback_is_omega0", pull_ok,
                "" if pull_ok else f"T*omega_i = {emit_two_form(pull)}",
                note=pull_erratum)
        if not pull_ok and pull_erratum:
            pull, k = transport(automorphism(T2), w_i, k_i)
            rep.add("corrected_pullback_is_omega0", pull == omega0)
        matches(rep, "normalized_K_matches_printed", k.substitute(norm_subst),
                k0_text, "matches after the y -> -y relabelling of the free "
                "branch parameter", k0_erratum)
        normalized.append(rep)

    # equivalence witness L (printed): carries (omega0, K04) to (omega0, K01)
    equivalence = EntryReport("witness/equivalence/L")
    m = automorphism("E11+E22+E34-E43")
    equivalence.add("L_carries_K04_to_K01", check_lie_isomorphism(m)[0] and transport(
        m, omega0, k01) == (omega0, parse_endo("-E11+E22+E33-E44")))

    # non-equivalence residuals, exactly as parameter identities: the entry
    # of K - K02 each map leaves, and its value
    rep = EntryReport("witness/nonequivalence/residuals")
    k02 = parse_endo("E11+2*y*E12-E22+E33-E44")
    for name, l_text, check, (r, c), value in (
            ("L1", "E11+a21*E21+E22+((a34*a43+1)/a44)*E33+a34*E34+a43*E43+a44*E44",
             "L1_residual_is_2", (1, 1), 2),
            ("L2", "E11+a21*E21+E22+a33*E33+a34*E34-(1/a34)*E43",
             "L2_residual_is_minus_2", (0, 0), -2)):
        w, k = pullback(rep, f"{name}_automorphism", automorphism(l_text),
                        omega0, k01)
        rep.add(f"{name}_symplectomorphism", w == omega0)
        val = k.rows[r][c] - k02.rows[r][c]
        rep.add(check, val == Scalar.const(value), str(val))
    return transported + normalized + [equivalence, rep]


# ---------------------------------------------------------------------------
# Scope runner


# scope -> suite of the catalog, in `verify all` order; cli.SCOPES copies
# the keys.
SUITES = {
    "symplectic": run_symplectic,
    "structures": run_structures,
    "phase": run_phase_rows,
    "iso": run_iso_rows,
    "curvature": run_curvature_rows,
    "witnesses": run_equivalence_witnesses,
}


def run_scope(cat: Catalog, scope: str) -> List[EntryReport]:
    if scope == "all":  # through run_scope, so that a wrapper sees each suite
        return [r for s in SUITES for r in run_scope(cat, s)]
    if scope not in SUITES:
        raise ValueError(f"unknown scope {scope!r}")
    return SUITES[scope](cat)
