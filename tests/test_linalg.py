"""Elimination over Scalar against the Fraction oracle (oracles.py's
nullspace_fractions and rank_fractions), which shares no code with
linalg._eliminate; signature_of against Sylvester's law of inertia."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from pk4lie.linalg import (
    Mat4, RankAmbiguous, _eliminate, adjugate_det, rank_on_domain, signature_of,
    solve_affine,
)
from pk4lie.scalars import (
    ParamDomain, Poly, Scalar, ScalarError, ZERO, common_denominator, numerator_over,
)
from oracles import nullspace_fractions, rank_fractions

small = st.fractions(-3, 3, max_denominator=3)


@st.composite
def dependent_rows(draw, m, n):
    """An m x n rational matrix whose later rows are often combinations of
    earlier ones, so every rank from 0 to full occurs."""
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                         for j in range(n)])
        else:
            rows.append(draw(st.lists(small, min_size=n, max_size=n)))
    return rows


def _scalars(rows):
    return [[Scalar.const(v) for v in row] for row in rows]


def _times(rows, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in rows]


@settings(max_examples=80, deadline=None)
@given(dependent_rows(4, 4))
def test_ranks_match_the_fraction_oracle(rows):
    m = Mat4(_scalars(rows))
    assert rank_on_domain(m) == rank_fractions(rows)


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
    lambda mn: dependent_rows(*mn)), st.data())
def test_solve_affine_matches_the_fraction_oracle(rows, data):
    n = len(rows[0])
    x0 = data.draw(st.lists(small, min_size=n, max_size=n))
    b = _times(rows, x0)
    sol_point, basis = solve_affine(_scalars(rows), [Scalar.const(v) for v in b])
    point = [s.eval({}) for s in sol_point]
    assert _times(rows, point) == b
    for vec in basis:
        assert _times(rows, [s.eval({}) for s in vec]) == [0] * len(rows)
    assert len(basis) == n - rank_fractions(rows)
    # b plus a nonzero vector of the left kernel leaves the column space
    transpose = [list(col) for col in zip(*rows)]
    left = nullspace_fractions(transpose)
    if left:
        y = left[data.draw(st.integers(0, len(left) - 1))]
        bad = [Scalar.const(u + v) for u, v in zip(b, y)]
        assert solve_affine(_scalars(rows), bad) is None


# Sparse entries: mostly zero, else an integer, a fraction, a monomial in one
# or two parameters, or a rational function.
ENTRIES = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                    st.fractions(-2, 2, max_denominator=4),
                    st.sampled_from(["x", "x*y", "1/(x+1)"]))


def _leibniz_det(rows):
    """det as the signed sum over the 24 permutations: no minor is shared
    with the Laplace expansion of linalg."""
    total = ZERO
    for p in permutations(range(4)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
        term = Scalar.const(sign)
        for i in range(4):
            term = term * rows[i][p[i]]
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(ENTRIES, min_size=16, max_size=16))
def test_adjugate_times_matrix_is_det_times_identity(entries):
    m = Mat4([[Scalar.of(v) for v in entries[4 * i:4 * i + 4]] for i in range(4)])
    adj, det = adjugate_det(m.rows, ZERO)
    assert det == m.det() == _leibniz_det(m.rows)
    a = Mat4._of(adj)
    assert m @ a == Mat4.identity().scale(det) == a @ m
    if not det.is_zero:
        assert m.inverse() == a.scale(Scalar.const(1) / det)
    # over Poly, on f*m for the lcm f of the denominators:
    # adj(f m) = f^3 adj(m) and det(f m) = f^4 det(m)
    f = common_denominator(v for row in m.rows for v in row)
    adj_f, det_f = adjugate_det(
        [[numerator_over(v, f) for v in row] for row in m.rows], Poly())
    fs = Scalar(f)
    assert Scalar(det_f) == fs ** 4 * det
    assert [[Scalar(p) for p in row] for row in adj_f] == [[fs ** 3 * v for v in row]
                                                           for row in adj]


@st.composite
def dependent_scalar_rows(draw, n):
    """Rows of ENTRIES over the parameters x and y, later ones often integer
    combinations of earlier ones, so that elimination leaves unused rows."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum((Scalar.const(c) * r[j] for c, r in zip(coeffs, rows)), ZERO)
                         for j in range(n)])
        else:
            rows.append([Scalar.of(v) for v in draw(st.lists(ENTRIES, min_size=n,
                                                             max_size=n))])
    return rows


@settings(max_examples=80, deadline=None)
@given(dependent_scalar_rows(5), st.sampled_from(["", "x > 0", "x > 0, y > 0"]))
def test_elimination_leaves_unused_rows_zero_in_each_eliminated_column(rows, domain):
    # solve_affine's consistency check reads only an unused row's last
    # entry: a pivot column is cleared outside its pivot row, and a column
    # without a pivot was zero in every row unused then, which later
    # updates, by rows unused then, keep
    try:
        pivots = _eliminate(rows, 4, ParamDomain.parse(domain))
    except RankAmbiguous:
        return
    used = set(pivots.values())
    for j, row in enumerate(rows):
        if j not in used:
            assert all(v.is_zero for v in row[:4]), (j, row)


@st.composite
def congruent_diagonals(draw):
    """(d, P): d in {-2..2}^n and an invertible rational P, n in 1..4.  Half
    the draws are hyperbolic planes, d = (a, -a, ...) with P's 2 x 2 blocks
    [[s, t], [s, -t]] and permuted columns, so that P^T diag(d) P has an
    all-zero diagonal."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        d = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        p = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                          min_size=n, max_size=n))
        assume(rank_fractions(p) == n)
        return d, p
    nonzero = small.filter(bool)
    d, p = [0] * n, [[Fraction(0)] * n for _ in range(n)]
    for k in range(0, n - 1, 2):
        d[k] = draw(st.sampled_from([-2, -1, 1, 2]))
        d[k + 1] = -d[k]
        s, t = draw(nonzero), draw(nonzero)
        p[k][k], p[k][k + 1], p[k + 1][k], p[k + 1][k + 1] = s, t, s, -t
    if n % 2:
        p[n - 1][n - 1] = draw(nonzero)
    cols = draw(st.permutations(range(n)))
    return d, [[row[j] for j in cols] for row in p]


@settings(max_examples=150, deadline=None)
@given(congruent_diagonals())
def test_signature_obeys_sylvesters_law_of_inertia(drawn):
    # congruence keeps the signature: P^T diag(d) P has d's sign counts
    d, p = drawn
    n = len(d)
    a = [[sum((p[k][i] * d[k] * p[k][j] for k in range(n)), Fraction(0))
          for j in range(n)] for i in range(n)]
    expected = (sum(v > 0 for v in d), sum(v < 0 for v in d), d.count(0))
    assert signature_of(a) == expected
    if n > 1:
        a[0][1] += 1
        with pytest.raises(ScalarError):
            signature_of(a)
