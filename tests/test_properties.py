"""Property suites across the full catalog, seed-pinned.

Levi-Civita axioms and uniqueness, parallelism of omega, anti-isometry of
the metric under K, flat => Ricci-flat, the equivalence between Nijenhuis
vanishing and sampled eigenplane involutivity, the Koszul-value test of
nabla K = 0 against the connection, the sparse kernels against their dense
references, Besse's Ricci formula against the curvature chain, Koszul's
form and the para-Kahler curvature identities, nabla K = 0 against
d omega = 0 and N_K = 0, and the eigenranks of drawn involutions against
ranks over Fractions.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as hst

from pk4lie.catalog import load_catalog
from pk4lie.curvature import (
    Geometry, classify_row, curvature, lie_derivative_metric, ricci, soliton_system,
)
from pk4lie import liealg, structures
from pk4lie.liealg import (
    LieAlgebra4, ce_d, nijenhuis, form_apply, paracomplex_check, pfaffian_nondegenerate,
)
from pk4lie.linalg import Mat4, RankAmbiguous, vbasis, vis_zero
from pk4lie.notation import parse_endo
from pk4lie.morphisms import LinMap, transport
from pk4lie.phase_space import normal_form
from pk4lie.scalars import EMPTY_DOMAIN, DenominatorVanishes, Param, ParamDomain, Scalar
from pk4lie.structures import (
    K_parallel, koszul_sums, levi_civita, metric_from, neutral_certified,
    validate_para_kahler,
)
from oracles import (
    besse_ricci, dense_bracket, dense_ce_d, dense_curvature, dense_koszul_values,
    dense_lie_derivative_metric, involutive_samples, koszul_ricci,
    levi_civita_axioms_hold, linked_structures, nabla_K, omega_parallel, perturbed,
    para_hermitian_integrable, psi_vanishes_on_derived_algebra, rank_fractions,
)
from test_errata import ERRATA, NOT_INTEGRABLE

CAT = load_catalog()
STRUCTURES = CAT.structure_list()


def _metrics():
    for st in STRUCTURES:
        yield st, metric_from(st.omega, st.K)


def test_levi_civita_axioms_hold_catalog_wide():
    for st, h in _metrics():
        nabla = levi_civita(st.algebra, h).nabla
        assert levi_civita_axioms_hold(st.algebra, h, nabla), st.entry_id


def test_nabla_omega_parallel_catalog_wide():
    for st, h in _metrics():
        nabla = levi_civita(st.algebra, h).nabla
        assert omega_parallel(st.omega, nabla), st.entry_id


def test_anti_isometry_catalog_wide():
    for st, h in _metrics():
        defect = st.K.transpose() @ h @ st.K + h
        assert defect.is_zero(), st.entry_id


def _nabla_K_zero_oracle(L, h, K):
    nabla = levi_civita(L, h).nabla
    return all(m.is_zero() for m in nabla_K(nabla, K))


def test_koszul_test_matches_the_connection_catalog_wide():
    for st, h in _metrics():
        assert K_parallel(st.algebra, h, st.K), st.entry_id
        assert _nabla_K_zero_oracle(st.algebra, h, st.K), st.entry_id


def _transported(L, omega, K, p):
    """(L, omega, K) in the basis of p's columns."""
    pinv = p.inverse()
    cols = [[p.rows[r][i] for r in range(4)] for i in range(4)]
    brackets = {(i, j): pinv.apply(L.bracket(cols[i], cols[j]))
                for i in range(4) for j in range(i + 1, 4)}
    return LieAlgebra4(brackets), p.transpose() @ omega @ p, pinv @ K @ p


CONSTANT_ALGEBRAS = [st.algebra for st in STRUCTURES
                     if not st.algebra.params()]


@settings(max_examples=40, deadline=None)
@given(hst.integers(0, len(STRUCTURES) - 1),
       hst.one_of(hst.none(), hst.integers(0, len(CONSTANT_ALGEBRAS) - 1)),
       hst.lists(hst.integers(-2, 2), min_size=16, max_size=16))
def test_koszul_test_matches_the_connection_after_transport(i, j, entries):
    # A catalog structure, on its own algebra (nabla K = 0) or on a constant
    # one of another row (mostly nabla K != 0), in a random basis.
    st = STRUCTURES[i]
    p = Mat4([entries[4 * r:4 * r + 4] for r in range(4)])
    assume(not p.det().is_zero)
    L = st.algebra if j is None else CONSTANT_ALGEBRAS[j]
    L, omega, K = _transported(L, st.omega, st.K, p)
    h = metric_from(omega, K)
    assert (K_parallel(L, h, K)
            == _nabla_K_zero_oracle(L, h, K))


def test_levi_civita_uniqueness_by_perturbation():
    rng = random.Random(20260809)
    sample = rng.sample(STRUCTURES, 12)
    for st in sample:
        h = metric_from(st.omega, st.K)
        nabla = levi_civita(st.algebra, h).nabla
        i, r, j = rng.randrange(4), rng.randrange(4), rng.randrange(4)
        bad = perturbed(nabla, i, r, j)
        assert not levi_civita_axioms_hold(st.algebra, h, bad), st.entry_id


def test_flat_implies_ricci_flat_across_rows():
    for row in CAT.curvature_list():
        try:
            c = classify_row(row.algebra, row.metric, row.domain)
        except RankAmbiguous:
            continue  # branching rows checked in the curvature suite
        if c.flat:
            assert c.ricci_flat, row.entry_id


def test_ricci_symmetry_catalog_wide():
    for row in CAT.curvature_list():
        conn = levi_civita(row.algebra, row.metric)
        ricci(row.algebra, conn)  # raises NotSymmetric on failure


def test_nijenhuis_matches_sampled_involutivity():
    rng = random.Random(0xFEED)
    for st in STRUCTURES:
        expected = all(vis_zero(v)
                       for v in nijenhuis(st.algebra, st.K).values())
        assert expected, st.entry_id  # catalog structures are integrable
        samples = involutive_samples(st.algebra, st.K, st.domain, rng, 32, 320)
        for asg, inv in samples:
            assert inv, (st.entry_id, asg)
        assert len(samples) >= 32, st.entry_id


def test_nijenhuis_cross_check_negative_control():
    # a non-integrable K: both the tensor and the sampled eigenplane test
    # must flag it (this is the bottom-sign variant the catalog replaces)
    from pk4lie.scalars import ParamDomain
    dom = ParamDomain.parse("lam > 1/2, x != 0")
    L = LieAlgebra4.parse(
        "[e1,e2]=e3; [e4,e3]=e3; [e4,e1]=lam*e1; [e4,e2]=(1-lam)*e2")
    K = parse_endo("E11+x*E12-E22+E33-E44")
    n = nijenhuis(L, K)
    assert not all(vis_zero(v) for v in n.values())
    samples = involutive_samples(L, K, dom, random.Random(5), 16, 16)
    assert [inv for _, inv in samples] == [False] * 16


def _catalog_matrices():
    for st, h in _metrics():
        yield st.omega, st.K, h
    for row in CAT.curvature_list():
        yield row.metric, row.metric.inverse(), row.metric.scale(2)


def test_zero_skipping_products_match_naive_loops():
    # Mat4 products and form_apply skip zero factors; the plain loops below
    # skip nothing, so they pin the shortcut to the general sum.
    for a, b, c in _catalog_matrices():
        for m, n in ((a, b), (b, c), (c, a)):
            naive = [[sum((m.rows[i][k] * n.rows[k][j] for k in range(4)),
                          Scalar.const(0)) for j in range(4)] for i in range(4)]
            assert (m @ n).rows == naive
            for v in n.rows + [vbasis(i) for i in range(4)]:
                assert m.apply(v) == [
                    sum((m.rows[i][k] * v[k] for k in range(4)), Scalar.const(0))
                    for i in range(4)]
                for u in n.rows:
                    assert form_apply(m, u, v) == sum(
                        (u[i] * m.rows[i][j] * v[j]
                         for i in range(4) for j in range(4)), Scalar.const(0))
    # The bracket, Koszul, Lie-derivative, curvature and differential
    # kernels read only the stored brackets and nonzero entries; the dense
    # loops read all.
    nf_omega, nf_K = normal_form()
    nf_h = metric_from(nf_omega, nf_K)
    for sym in CAT.symplectic.values():
        _ce_d_matches_dense_loop(sym.algebra, sym.omega)
    for st, h in _metrics():
        _kernels_match_dense_loops(st.algebra, h, levi_civita(st.algebra, h))
        _ce_d_matches_dense_loop(st.algebra, st.omega)
    for row in CAT.phase_rows.values():
        _kernels_match_dense_loops(row.algebra, nf_h, levi_civita(row.algebra, nf_h))
        _ce_d_matches_dense_loop(row.algebra, nf_omega)
    for row in CAT.curvature_list():
        _kernels_match_dense_loops(row.algebra, row.metric, row.geometry.conn)


def _kernels_match_dense_loops(L, h, conn):
    # the basis vectors and one combination of the rows of h
    vectors = [vbasis(i) for i in range(4)] + [h.apply(
        [Scalar.const(k) for k in (1, 2, 3, 5)])]
    for a, u in enumerate(h.rows):
        for v in [vbasis(a)] + h.rows[a + 1:]:
            assert L.bracket(u, v) == dense_bracket(L, u, v)
    assert koszul_sums(L, h) == [[[2 * v for v in g] for g in gi]
                                 for gi in dense_koszul_values(L, h)]
    system = soliton_system(L, h)
    lx = [dense_lie_derivative_metric(L, h, x) for x in vectors]
    assert [lie_derivative_metric(system, x) for x in vectors] == lx
    rows, cells = system
    assert [r[:4] for r in rows] == [[lx[m].rows[i][j] for m in range(4)]
                                     for i, j in cells]
    assert curvature(L, conn).matrices == dense_curvature(L, conn.nabla)


def _ce_d_matches_dense_loop(L, omega):
    assert ce_d(L, omega) == dense_ce_d(L, omega)


# Metric entries: mostly zero, else an integer, a fraction or, one draw in
# three, a rational function of one parameter.  Structure constants may also
# be polynomials in two parameters.
RATIONALS = hst.one_of(hst.just(0), hst.just(0), hst.integers(-3, 3),
                       hst.fractions(-2, 2, max_denominator=4))
CONSTANTS = hst.one_of(
    RATIONALS, hst.sampled_from(["x", "-x/2", "1-x", "2*x*y", "y/3+1", "x*x"]))
ONE_PARAMETER = hst.one_of(
    RATIONALS, RATIONALS, hst.sampled_from(["x", "-x/2", "1-x", "x*x", "1/(x+1)"]))


@settings(max_examples=20, deadline=None)
@given(hst.lists(CONSTANTS, min_size=24, max_size=24),
       hst.lists(ONE_PARAMETER, min_size=10, max_size=10))
def test_kernels_match_dense_loops_on_drawn_algebras(consts, metric):
    # Jacobi is not needed: every kernel is a formula in the constants.
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    L = LieAlgebra4({ij: [Scalar.of(c) for c in consts[4 * k:4 * k + 4]]
                     for k, ij in enumerate(pairs)})
    upper = (Scalar.of(v) for v in metric)
    h = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            h[i][j] = h[j][i] = next(upper)
    omega = Mat4([[0 if i == j else h[i][j] if i < j else -h[i][j]
                   for j in range(4)] for i in range(4)])
    _ce_d_matches_dense_loop(L, omega)
    h = Mat4(h)
    assume(not h.det().is_zero)
    _kernels_match_dense_loops(L, h, levi_civita(L, h))


def test_besse_ricci_matches_the_curvature_chain():
    # Besse's formula reads the structure constants and h^-1 alone: no
    # connection, no curvature and no shared kernel.
    for row in CAT.curvature_list():
        assert besse_ricci(row.algebra, row.metric) == row.geometry.ric, row.entry_id


def _para_kahler_structures():
    """(id, algebra, omega, K, domain) of the 98 catalog structures and the
    88 normal forms that the iso rows transport to their targets."""
    for st in STRUCTURES:
        yield st.entry_id, st.algebra, st.omega, st.K, st.domain
    for key, row in CAT.iso_rows.items():
        yield (key, row.target,
               *transport(LinMap(row.matrix, row.target, row.source), *normal_form()),
               row.domain)


def test_ricci_is_half_the_koszul_form_on_brackets():
    # ric(X, Y) = 1/2 psi([KX, Y]) with psi(Z) = tr ad_{KZ} - tr(K o ad_Z),
    # read from the brackets and K alone: no metric, no connection
    seen = 0
    for key, L, omega, K, domain in _para_kahler_structures():
        ric = Geometry(L, metric_from(omega, K), domain).ric
        assert ric == koszul_ricci(L, K), key
        seen += 1
    assert seen == 98 + 88


# the printed Ricci-flat "Yes" that the curvature suite WARNs about
PRINTED_RICCI_FLAT_ERRATA = {"curvature/d4_1/2"}


def test_printed_ricci_flat_column_is_psi_vanishing_on_the_derived_algebra():
    # a para-Kahler structure is Ricci-flat exactly when psi([g, g]) = 0;
    # K is the linked structure's, under the link's substitution
    links = {key: link for key, link in linked_structures(CAT).items() if link}
    assert len(links) == 108
    disagree = set()
    for key, (st, _, sub) in links.items():
        row = CAT.curvature_rows[key]
        K = st.K.substitute(sub) if sub else st.K
        assert row.geometry.ric == koszul_ricci(row.algebra, K), key
        if psi_vanishes_on_derived_algebra(row.algebra, K) != row.expect_ricci_flat:
            disagree.add(key)
    assert disagree == PRINTED_RICCI_FLAT_ERRATA



def test_para_kahler_curvature_identities():
    # K is parallel, so every R(e_i, e_j) commutes with K; K is an
    # anti-isometry of ric; the Ricci form rho = K^t ric is a closed
    # two-form; and tr(K o R(e_i, e_j)) = -2 rho(e_i, e_j)
    minus_two, with_rho = Scalar.const(-2), 0
    for st, h in _metrics():
        L, K = st.algebra, st.K
        conn = levi_civita(L, h)
        R, ric = curvature(L, conn).matrices, ricci(L, conn)
        rho = K.transpose() @ ric
        assert (rho @ K + ric).is_zero(), st.entry_id
        assert rho.is_antisymmetric(), st.entry_id
        assert vis_zero(ce_d(L, rho).values()), st.entry_id
        for (i, j), r in R.items():
            assert (r @ K - K @ r).is_zero(), (st.entry_id, i, j)
            assert (K @ r).trace() == minus_two * rho.rows[i][j], (st.entry_id, i, j)
        with_rho += not rho.is_zero()
    # the last two identities are not vacuous
    assert (len(STRUCTURES), with_rho) == (98, 29)

def _nabla_K_matches_the_integrability_oracle(L, omega, K):
    """K_parallel against d omega = 0 and N_K = 0 by the dense oracles;
    returns the common verdict."""
    parallel = K_parallel(L, metric_from(omega, K), K)
    assert parallel == para_hermitian_integrable(L, omega, K)
    return parallel


def test_nabla_K_vanishes_exactly_on_closed_integrable_pairs():
    # every catalog structure and transported normal form is positive
    for key, L, omega, K, _ in _para_kahler_structures():
        assert _nabla_K_matches_the_integrability_oracle(L, omega, K), key
    # the printed K of the non-integrable errata: d omega = 0, N_K != 0
    printed = [key for key, (_, fails) in ERRATA.items() if fails == NOT_INTEGRABLE]
    assert len(printed) == 6
    for key in printed:
        st = CAT.structures[key]
        assert not _nabla_K_matches_the_integrability_oracle(
            st.algebra, st.omega, parse_endo(ERRATA[key][0])), key


SMALL = hst.sampled_from([0, 0, 0, 1, -1, 2, -2])
PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _drawn_algebra(consts):
    return LieAlgebra4({ij: [Scalar.const(c) for c in consts[4 * k:4 * k + 4]]
                        for k, ij in enumerate(PAIRS)})


def _lagrangian_omega(b):
    """[[0, B], [-B^t, 0]]: both coordinate planes are omega-Lagrangian."""
    return Mat4([[0, 0, b[0], b[1]], [0, 0, b[2], b[3]],
                 [-b[0], -b[2], 0, 0], [-b[1], -b[3], 0, 0]])


DIAG_K = parse_endo("E11+E22-E33-E44")


@settings(max_examples=150, deadline=None)
@given(hst.lists(SMALL, min_size=24, max_size=24), hst.lists(SMALL, min_size=4, max_size=4))
def test_nabla_K_matches_the_oracle_on_drawn_integrable_pairs(consts, b):
    # [e1,e2] in span(e1,e2) and [e3,e4] in span(e3,e4) make both
    # eigenplanes of K = diag(1,1,-1,-1) subalgebras, so N_K = 0 and
    # nabla K = 0 exactly when d omega = 0.  Jacobi is not needed.
    assume(b[0] * b[3] != b[1] * b[2])
    consts[2:4], consts[20:22] = [0, 0], [0, 0]
    _nabla_K_matches_the_integrability_oracle(_drawn_algebra(consts),
                                              _lagrangian_omega(b), DIAG_K)


@settings(max_examples=100, deadline=None)
@given(hst.lists(SMALL, min_size=24, max_size=24), hst.lists(SMALL, min_size=4, max_size=4),
       hst.lists(hst.integers(-2, 2), min_size=16, max_size=16))
def test_nabla_K_matches_the_oracle_on_drawn_para_hermitian_pairs(consts, b, entries):
    # (omega, K) = (P^-t Omega P^-1, P D P^-1) for the Lagrangian Omega and
    # D = diag(1,1,-1,-1): an almost para-Hermitian pair in a drawn basis,
    # on drawn brackets
    assume(b[0] * b[3] != b[1] * b[2])
    p = Mat4([entries[4 * r:4 * r + 4] for r in range(4)])
    assume(not p.det().is_zero)
    pinv = p.inverse()
    _nabla_K_matches_the_integrability_oracle(
        _drawn_algebra(consts), pinv.transpose() @ _lagrangian_omega(b) @ pinv,
        p @ DIAG_K @ pinv)


# For each component (i, j, k) of d omega, a bracket and the two of its
# components that omega = [[0, B], [-B^t, 0]] pairs with the third vector:
# the component is affine in them, with slopes read off a row or column of
# B, and no other component reads them.
CLOSING = {(0, 1, 2): ((0, 2), (2, 3)), (0, 1, 3): ((0, 3), (2, 3)),
           (0, 2, 3): ((0, 2), (0, 1)), (1, 2, 3): ((1, 2), (0, 1))}


def _closed_drawn_algebra(consts, omega):
    """The drawn brackets with one constant per component of d omega solved
    for, so that d omega = 0; B invertible gives each a nonzero slope."""
    c = [Fraction(v) for v in consts]
    for triple, (pair, comps) in CLOSING.items():
        for r in comps:
            k = 4 * PAIRS.index(pair) + r
            c[k] = Fraction(0)
            at0 = dense_ce_d(_drawn_algebra(c), omega)[triple].const_value()
            c[k] = Fraction(1)
            slope = dense_ce_d(_drawn_algebra(c), omega)[triple].const_value() - at0
            if slope:
                c[k] = -at0 / slope
                break
            c[k] = Fraction(consts[k])
    return _drawn_algebra(c)


def _certified_nabla_K(L, omega, K, domain=EMPTY_DOMAIN):
    """validate_para_kahler's nabla_K_zero, where neutral_certified holds
    and K_parallel is not called."""
    nd = pfaffian_nondegenerate(omega, domain)
    assert neutral_certified(omega.is_antisymmetric(), nd,
                             paracomplex_check(L, K, domain))
    [check] = [c for c in validate_para_kahler(L, omega, K, domain).checks
               if c["name"] == "nabla_K_zero"]
    assert "detail" not in check
    return check["ok"]


@settings(max_examples=100, deadline=None)
@given(hst.lists(SMALL, min_size=24, max_size=24), hst.lists(SMALL, min_size=4, max_size=4),
       hst.booleans())
def test_nabla_K_matches_the_oracle_on_drawn_closed_pairs(consts, b, block):
    # d omega = 0 by construction, so nabla K = 0 exactly when N_K = 0.
    # Block brackets ([e1,e2] in span(e1,e2), [e3,e4] in span(e3,e4)) keep
    # N_K = 0, and the drawn block-breaking parts, which d omega does not
    # read, mostly break it: both verdicts occur.  Jacobi is not needed.
    assume(b[0] * b[3] != b[1] * b[2])
    if block:
        consts[2:4], consts[20:22] = [0, 0], [0, 0]
    omega = _lagrangian_omega(b)
    L = _closed_drawn_algebra(consts, omega)
    assert vis_zero(dense_ce_d(L, omega).values())
    parallel = _nabla_K_matches_the_integrability_oracle(L, omega, DIAG_K)
    assert parallel or not block
    assert _certified_nabla_K(L, omega, DIAG_K) == parallel


def test_the_nabla_K_certificate_matches_K_parallel(monkeypatch):
    # validate_para_kahler reads nabla K = 0 off d omega = 0 and N_K = 0 on
    # the 98 structures, the 88 transported normal forms and the normal form
    # on the 45 phase rows, and never calls K_parallel there
    monkeypatch.setattr(structures, "K_parallel", None)
    nf = normal_form()
    pairs = [*_para_kahler_structures(),
             *((key, row.algebra, *nf, row.domain) for key, row in CAT.phase_rows.items())]
    assert len(pairs) == 98 + 88 + 45
    for key, L, omega, K, domain in pairs:
        assert _certified_nabla_K(L, omega, K, domain) == K_parallel(
            L, metric_from(omega, K), K), key


ABELIAN = LieAlgebra4({})
INVOLUTION_ENTRIES = hst.sampled_from(["0", "1", "-1", "2", "-2", "x", "1/(x+1)"])


@settings(max_examples=30, deadline=None)
@given(hst.lists(INVOLUTION_ENTRIES, min_size=16, max_size=16),
       hst.lists(hst.sampled_from([1, -1]), min_size=4, max_size=4))
def test_involution_eigenranks_match_the_fraction_oracle(entries, signs):
    # K = P D P^-1 squares to Id exactly; its eigenranks are the counts of
    # the signs in D, and 4 - the ranks of K -+ Id at a rational point of x.
    p = Mat4([entries[4 * r:4 * r + 4] for r in range(4)])
    assume(not p.det().is_zero)
    d = Mat4([[signs[i] if i == j else 0 for j in range(4)] for i in range(4)])
    K = p @ d @ p.inverse()
    pc = paracomplex_check(ABELIAN, K)
    assert pc.squares_to_id
    assert (pc.eigenrank_plus, pc.eigenrank_minus) == (signs.count(1), signs.count(-1))
    rng = random.Random(24)
    while True:
        point = {Param("x"): Fraction(rng.randint(-50, 50), rng.randint(1, 50))}
        try:
            k = K.eval(point)
            break
        except DenominatorVanishes:
            continue
    for sign, rank in ((1, pc.eigenrank_plus), (-1, pc.eigenrank_minus)):
        shifted = [[v - sign if i == j else v for j, v in enumerate(row)]
                   for i, row in enumerate(k)]
        assert rank == 4 - rank_fractions(shifted)


def test_non_involution_eigenranks_run_rank_on_domain(monkeypatch):
    # K = diag(1, 1, x, -1) does not square to Id: its ranks come from
    # rank_on_domain, exact where the domain keeps x off +-1 and undecided
    # where it does not.
    calls, real = [], liealg.rank_on_domain

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liealg, "rank_on_domain", counted)
    K = parse_endo("E11+E22+x*E33-E44")
    pc = paracomplex_check(ABELIAN, K, ParamDomain.parse("x != 1, x != -1"))
    assert not pc.squares_to_id and len(calls) == 2
    assert (pc.eigenrank_plus, pc.eigenrank_minus, pc.rank_constraint) == (2, 1, None)
    pc = paracomplex_check(ABELIAN, K)
    assert pc.rank_constraint is not None and pc.eigenrank_plus is None
