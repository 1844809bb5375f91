"""Property suites across the full catalog, seed-pinned.

Levi-Civita axioms and uniqueness, parallelism of omega, anti-isometry of
the metric under K, flat => Ricci-flat, the equivalence between Nijenhuis
vanishing and sampled eigenplane involutivity, the Koszul-value test of
nabla K = 0 against the connection, the sparse kernels against their dense
references, and Besse's Ricci formula against the curvature chain.
"""

import random

from hypothesis import assume, given, settings, strategies as hst

from pk4lie.catalog import load_catalog
from pk4lie.curvature import (
    classify_row, curvature, lie_derivative_metric, ricci, soliton_system,
)
from pk4lie.liealg import LieAlgebra4, ce_d, nijenhuis, form_apply
from pk4lie.linalg import Mat4, RankAmbiguous, vbasis, vis_zero
from pk4lie.notation import parse_endo
from pk4lie.phase_space import normal_form
from pk4lie.scalars import Scalar
from pk4lie.structures import K_parallel, koszul_values, levi_civita, metric_from
from oracles import (
    besse_ricci, dense_bracket, dense_ce_d, dense_curvature, dense_koszul_values,
    dense_lie_derivative_metric, involutive_samples, levi_civita_axioms_hold,
    nabla_K, omega_parallel, perturbed,
)

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
    assert koszul_values(L, h) == dense_koszul_values(L, h)
    system = soliton_system(L, h)
    lx = [dense_lie_derivative_metric(L, h, x) for x in vectors]
    assert [lie_derivative_metric(system, x) for x in vectors] == lx
    rows, cells = system
    assert [r[:4] for r in rows] == [[lx[m].rows[i][j] for m in range(4)]
                                     for i, j in cells]
    assert curvature(L, conn).matrices == dense_curvature(L, conn.nabla)


def _ce_d_matches_dense_loop(L, omega):
    assert ce_d(L, omega).components == dense_ce_d(L, omega).components


# Metric entries: mostly zero, else an integer or a fraction.  Structure
# constants may also be polynomials in two parameters.
RATIONALS = hst.one_of(hst.just(0), hst.just(0), hst.integers(-3, 3),
                       hst.fractions(-2, 2, max_denominator=4))
CONSTANTS = hst.one_of(
    RATIONALS, hst.sampled_from(["x", "-x/2", "1-x", "2*x*y", "y/3+1", "x*x"]))


@settings(max_examples=20, deadline=None)
@given(hst.lists(CONSTANTS, min_size=24, max_size=24),
       hst.lists(RATIONALS, min_size=10, max_size=10))
def test_kernels_match_dense_loops_on_drawn_algebras(consts, metric):
    # Jacobi is not needed: every kernel is a formula in the constants.
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    L = LieAlgebra4({ij: [Scalar.of(c) for c in consts[4 * k:4 * k + 4]]
                     for k, ij in enumerate(pairs)})
    upper = iter(metric)
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
