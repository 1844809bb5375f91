"""Exact 4x4 linear algebra over Scalar: matrices, ranks, signatures.

Indices are 0-based internally; the text formats and reports use the
1-based labels e1..e4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .scalars import (
    EMPTY_DOMAIN, Constraint, ParamDomain, Scalar, ScalarError, ZERO,
    ONE, common_denominator, emit_scalar, numerator_over,
)


class DegenerateError(ScalarError):
    pass


class RankAmbiguous(ScalarError):
    """A pivot is neither identically zero nor provably nonvanishing."""

    def __init__(self, poly):
        self.poly = poly
        super().__init__(f"rank depends on parameters through: {poly!r}")


Vec4 = List[Scalar]


def vzero() -> Vec4:
    return [ZERO, ZERO, ZERO, ZERO]


def vbasis(i: int) -> Vec4:
    v = vzero()
    v[i] = ONE
    return v


def vadd(a: Vec4, b: Vec4) -> Vec4:
    return [x + y for x, y in zip(a, b)]


def vsub(a: Vec4, b: Vec4) -> Vec4:
    return [x - y for x, y in zip(a, b)]


def vis_zero(a: Vec4) -> bool:
    return all(x.is_zero for x in a)


class Mat4:
    """4x4 matrix of Scalars."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[Scalar.of(v) for v in row] for row in rows]
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise ScalarError("Mat4 needs 4x4 entries")

    @staticmethod
    def _of(rows: List[List[Scalar]]) -> "Mat4":
        """A Mat4 on rows that are already 4 lists of 4 Scalars: no coercion."""
        m = object.__new__(Mat4)
        m.rows = rows
        return m

    @staticmethod
    def zeros() -> "Mat4":
        return Mat4._of([[ZERO] * 4 for _ in range(4)])

    @staticmethod
    def identity() -> "Mat4":
        m = Mat4.zeros()
        for i in range(4):
            m.rows[i][i] = ONE
        return m

    def __add__(self, other: "Mat4") -> "Mat4":
        return Mat4._of([[a + b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat4") -> "Mat4":
        return Mat4._of([[a - b for a, b in zip(r1, r2)]
                         for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat4":
        return Mat4._of([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Mat4":
        c = Scalar.of(c)
        return Mat4._of([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Mat4") -> "Mat4":
        out = Mat4.zeros()
        for i in range(4):
            row = self.rows[i]
            for j in range(4):
                s = ZERO
                for k in range(4):
                    a, b = row[k], other.rows[k][j]
                    if not (a.is_zero or b.is_zero):
                        s = s + a * b
                out.rows[i][j] = s
        return out

    def apply(self, v: Vec4) -> Vec4:
        return [sum((a * x for a, x in zip(row, v) if not (a.is_zero or x.is_zero)),
                    ZERO) for row in self.rows]

    def transpose(self) -> "Mat4":
        return Mat4._of([[self.rows[j][i] for j in range(4)] for i in range(4)])

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(4)), ZERO)

    def det(self) -> Scalar:
        r = self.rows
        return _laplace(_minors(r[0], r[1], ZERO), _minors(r[2], r[3], ZERO), ZERO)

    def cleared(self) -> tuple:
        """(f, rows of f m) for the lcm f of the denominators of m: the rows
        are polynomials (Polys)."""
        f = common_denominator(v for row in self.rows for v in row)
        return f, [[numerator_over(v, f) for v in row] for row in self.rows]

    def inverse(self) -> "Mat4":
        """adj / det, one division per entry."""
        adj, d = adjugate_det(self.rows, ZERO)
        if d.is_zero:
            raise DegenerateError("matrix determinant is identically zero")
        return Mat4._of([[a / d for a in row] for row in adj])

    def is_zero(self) -> bool:
        return all(v.is_zero for r in self.rows for v in r)

    def __eq__(self, other):
        """Exact equality: entries are in canonical form, so equal rational
        functions are equal structurally."""
        return isinstance(other, Mat4) and self.rows == other.rows

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()

    def substitute(self, mapping) -> "Mat4":
        return Mat4([[v.substitute(mapping) for v in r] for r in self.rows])

    def params(self) -> set:
        out = set()
        for r in self.rows:
            for v in r:
                out |= v.params()
        return out

    def eval(self, assignment) -> List[List[Fraction]]:
        return [[v.eval(assignment) for v in r] for r in self.rows]

    def __repr__(self):
        body = "; ".join(",".join(emit_scalar(v) for v in r) for r in self.rows)
        return f"Mat4[{body}]"


# The column pairs k < l of a 2x2 minor, and the complement of each.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_COMPLEMENT = {p: tuple(q for q in range(4) if q not in p) for p in PAIRS}
# For each column j, the terms (t, k, pair) of a cofactor's expansion: k is
# the t-th column other than j, and pair the two columns other than j and k.
_EXPANSION = [[(t, k, tuple(q for q in range(4) if q not in (j, k)))
               for t, k in enumerate(q for q in range(4) if q != j)] for j in range(4)]


def _minors(top, bottom, zero) -> dict:
    """{(k, l): the 2x2 minor of rows (top, bottom) in columns k < l}, with
    no product of a zero entry.  The entries are Scalars or Polys, any ring
    whose elements have `is_zero`, `+`, `-` and `*`; `zero` is its zero."""
    out = {}
    for k, l in PAIRS:
        m = zero
        if not (top[k].is_zero or bottom[l].is_zero):
            m = top[k] * bottom[l]
        if not (top[l].is_zero or bottom[k].is_zero):
            m = m - top[l] * bottom[k]
        out[(k, l)] = m
    return out


def _laplace(top: dict, bottom: dict, zero):
    """det by the Laplace expansion along rows 0 and 1: the sum over column
    pairs of (-1)^(k+l+1) * top[(k, l)] * bottom[complementary pair]."""
    d = zero
    for (k, l), m in top.items():
        c = bottom[_COMPLEMENT[(k, l)]]
        if not (m.is_zero or c.is_zero):
            d = d + m * c if (k + l) % 2 else d - m * c
    return d


def adjugate_det(rows, zero) -> tuple:
    """(adj, det) of a 4x4 matrix over a ring (see `_minors`), both from the
    twelve 2x2 minors of rows (0, 1) and (2, 3).  The cofactor C_ij expands
    the 3x3 minor along the row that shares a pair with i, against the
    minors of the other pair: C_ij = (-1)^(i+j) sum_t (-1)^t a_ok * minor,
    k the t-th column other than j (`_EXPANSION`), and adj[j][i] = C_ij."""
    top, bottom = _minors(rows[0], rows[1], zero), _minors(rows[2], rows[3], zero)
    adj = [[zero] * 4 for _ in range(4)]
    for i, other, minors in ((0, rows[1], bottom), (1, rows[0], bottom),
                             (2, rows[3], top), (3, rows[2], top)):
        for j, expansion in enumerate(_EXPANSION):
            c = zero
            for t, k, pair in expansion:
                a, m = other[k], minors[pair]
                if not (a.is_zero or m.is_zero):
                    c = c + a * m if (i + j + t) % 2 == 0 else c - a * m
            adj[j][i] = c
    return adj, _laplace(top, bottom, zero)


def mat_from_cols(cols: Sequence[Vec4]) -> Mat4:
    return Mat4([[cols[j][i] for j in range(4)] for i in range(4)])


# ---------------------------------------------------------------------------
# Domain-aware elimination: ranks and affine linear solving


def _pick_pivot(rows, row_used, col, domain):
    """Pivot rule on the domain: an unused row whose entry in `col` is
    provably nonvanishing there; RankAmbiguous when the only candidates
    might vanish."""
    best = None
    fallback = None
    for i in range(len(rows)):
        if i in row_used:
            continue
        v = rows[i][col]
        if v.is_zero:
            continue
        if v.is_const:
            return i
        if domain.known_nonzero(v.num):
            if best is None:
                best = i
        else:
            fallback = rows[i][col]
    if best is not None:
        return best
    if fallback is not None:
        raise RankAmbiguous(fallback)
    return None


def rank_on_domain(m: Mat4, domain: ParamDomain = EMPTY_DOMAIN) -> int:
    """Rank over the domain, by `_eliminate`; RankAmbiguous when a pivot
    might vanish there."""
    return len(_eliminate([list(r) for r in m.rows], 4, domain))


def split_at_root(pivot: Scalar, domain: ParamDomain) -> Optional[tuple]:
    """Case split on a pivot whose vanishing the domain leaves open:
    (param, root, domain with the pivot nonzero) when its numerator is
    univariate of degree 1, or a single-variable monomial (root 0);
    None otherwise."""
    num = pivot.num
    lin = num.univariate_linear()
    if lin is not None:
        var, c1, c0 = lin
        root = Fraction(-c0, c1)
    elif len(num.terms) == 1 and len(next(iter(num.terms))) == 1:
        var, root = next(iter(num.params())), 0
    else:
        return None
    return var, Scalar.const(root), domain.merged(ParamDomain([Constraint(num, "!=")]))


def _eliminate(rows, ncols, domain) -> dict:
    """In-place Gauss-Jordan elimination of the first `ncols` columns, with
    `_pick_pivot`'s rule on the domain; returns {column: pivot row}."""
    row_used: set = set()
    pivots = {}
    for col in range(ncols):
        i = _pick_pivot(rows, row_used, col, domain)
        if i is None:
            continue
        row_used.add(i)
        pivots[col] = i
        piv = rows[i][col]
        for j in range(len(rows)):
            if j == i:
                continue
            f = rows[j][col] / piv
            if not f.is_zero:
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    return pivots


def solve_affine(a_rows: List[List[Scalar]], b: List[Scalar],
                 domain: ParamDomain = EMPTY_DOMAIN) -> Optional[tuple]:
    """Solve A x = b exactly over Scalar: (point, basis), the solution set
    point + span(basis), or None when provably inconsistent.

    Raises RankAmbiguous when a pivot or a consistency decision depends on
    parameters in a way the domain cannot certify.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a_rows)]
    pivots = _eliminate(aug, n, domain)
    row_used = set(pivots.values())
    # consistency: an unused row is zero in every eliminated column (a pivot
    # column is cleared outside its pivot row, and `_pick_pivot` passes over
    # a column only when it is zero in every unused row, which later updates
    # keep), so only its right-hand side is left
    for j in range(m):
        if j in row_used:
            continue
        rhs = aug[j][n]
        if rhs.is_zero:
            continue
        if domain.known_nonzero(rhs.num) or rhs.is_const:
            return None
        raise RankAmbiguous(rhs)
    free_cols = [c for c in range(n) if c not in pivots]
    point = [ZERO] * n
    for col, i in pivots.items():
        point[col] = aug[i][n] / aug[i][col]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n
        vec[fc] = ONE
        for col, i in pivots.items():
            vec[col] = -aug[i][fc] / aug[i][col]
        basis.append(vec)
    return point, basis


def signature_of(matrix: List[List[Fraction]]) -> tuple:
    """Exact signature (n_pos, n_neg, n_zero) of a rational symmetric matrix."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ScalarError("signature of a non-symmetric matrix")
    alive = list(range(n))
    pos = neg = 0
    while alive:
        k = next((i for i in alive if a[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in alive for j in alive
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            # congruence: e_i <- e_i + e_j makes the (i,i) entry nonzero
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            k = i
        if a[k][k] > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(k)
        for j in alive:
            f = a[k][j] / a[k][k]
            if f == 0:
                continue
            for c in range(n):
                a[j][c] -= f * a[k][c]
            for r in range(n):
                a[r][j] -= f * a[r][k]
    zero = n - pos - neg
    return pos, neg, zero
