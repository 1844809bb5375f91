"""Elimination over Scalar against the Fraction oracle (oracles.py's
nullspace_fractions and rank_fractions), which shares no code with
linalg._eliminate."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pk4lie.linalg import Mat4, generic_rank, rank_on_domain, solve_affine
from pk4lie.scalars import Scalar
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
    assert rank_on_domain(m) == generic_rank(m) == rank_fractions(rows)


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
    lambda mn: dependent_rows(*mn)), st.data())
def test_solve_affine_matches_the_fraction_oracle(rows, data):
    n = len(rows[0])
    x0 = data.draw(st.lists(small, min_size=n, max_size=n))
    b = _times(rows, x0)
    sol = solve_affine(_scalars(rows), [Scalar.const(v) for v in b])
    point = [s.eval({}) for s in sol.point]
    assert _times(rows, point) == b
    for vec in sol.basis:
        assert _times(rows, [s.eval({}) for s in vec]) == [0] * len(rows)
    assert sol.free_count == n - rank_fractions(rows)
    # b plus a nonzero vector of the left kernel leaves the column space
    transpose = [list(col) for col in zip(*rows)]
    left = nullspace_fractions(transpose)
    if left:
        y = left[data.draw(st.integers(0, len(left) - 1))]
        bad = [Scalar.const(u + v) for u, v in zip(b, y)]
        assert solve_affine(_scalars(rows), bad) is None
